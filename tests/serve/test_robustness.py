"""HTTP-level robustness tests: the serve failure-mode contract.

Covers the hardened request parser (malformed Content-Length, body
caps, stalled bodies), the 400-never-500 guarantee for bad ``/graphs``
payloads, admission shedding, readiness, the failing-family rule (one
probe compute at a time, fast 503s beside it, cleared by a success),
and the degraded 2-vs-4 ``/diameter`` answer.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import ServerThread


def get_status(url, path):
    try:
        with urllib.request.urlopen(url + path, timeout=60) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def raw_roundtrip(port, data, timeout=30.0):
    """Send raw bytes; return everything the server sends back."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    try:
        sock.sendall(data)
        out = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return out
            out += chunk
    finally:
        sock.close()


@pytest.fixture(scope="module")
def server():
    with ServerThread(
        graphs=("cycle:12",),
        max_body_bytes=2048,
        read_timeout_s=0.5,
    ) as handle:
        yield handle


# -- satellite 1: malformed Content-Length must be a 400, not a crash --


def test_malformed_content_length_is_400(server):
    response = raw_roundtrip(
        server.port,
        b"POST /graphs HTTP/1.1\r\nHost: t\r\n"
        b"Content-Length: banana\r\n\r\n",
    )
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"invalid Content-Length" in response
    # The server is still healthy afterwards.
    assert get_status(server.url, "/healthz") == (200, {"ok": True})


def test_negative_content_length_is_400(server):
    response = raw_roundtrip(
        server.port,
        b"GET /healthz HTTP/1.1\r\nHost: t\r\n"
        b"Content-Length: -5\r\n\r\n",
    )
    assert response.startswith(b"HTTP/1.1 400 ")


# -- satellite 2: request bodies are capped (413) ----------------------


def test_oversize_body_is_413_without_buffering(server):
    response = raw_roundtrip(
        server.port,
        b"POST /graphs HTTP/1.1\r\nHost: t\r\n"
        b"Content-Length: 99999999\r\n\r\n",
    )
    assert response.startswith(b"HTTP/1.1 413 ")
    assert b"exceeds" in response


def test_body_at_the_cap_is_accepted(server):
    body = json.dumps({"spec": "path:5"}).encode()
    response = raw_roundtrip(
        server.port,
        b"POST /graphs HTTP/1.1\r\nHost: t\r\n"
        b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body)
        + body,
    )
    assert response.startswith(b"HTTP/1.1 200 ")


# -- stalled body: dropped on timeout, no in-flight leak ---------------


def test_stalled_body_times_out_without_leaking_inflight(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=30)
    try:
        sock.sendall(
            b"POST /graphs HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 10\r\n\r\n"
        )  # ... and never send the body
        started = time.monotonic()
        assert sock.recv(65536) == b""  # closed, no response
        assert time.monotonic() - started < 5.0
    finally:
        sock.close()
    # The aborted request did not leak the in-flight counter: the
    # admission section sees only the /stats request itself.
    _status, stats = get_status(server.url, "/stats")
    assert stats["admission"]["in_flight"] == 1
    assert server.server._active_requests <= 1
    assert stats["admission"]["protocol_errors"] >= 1


# -- satellite 3: bad /graphs payloads are 400, never 500 --------------


def post_graphs(url, payload):
    body = json.dumps(payload).encode()
    request = urllib.request.Request(
        url + "/graphs", data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def test_graphs_post_missing_file_is_400(server):
    status, payload = post_graphs(
        server.url, {"spec": "file:/no/such/edgelist.txt"}
    )
    assert status == 400
    assert "no/such/edgelist.txt" in payload["error"]


def test_graphs_post_unreadable_file_is_400(server, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\nthis is not an edge list\n")
    status, payload = post_graphs(server.url, {"spec": f"file:{bad}"})
    assert status == 400
    assert payload["error"]


@pytest.mark.parametrize("edges,expected", [
    ("1 2\n3 4\n", "disconnected"),
    ("2 3\n3 4\n", "node with ID 1"),
], ids=["disconnected", "no-node-1"])
def test_graph_no_protocol_can_run_is_400_and_spares_the_pool(
    server, tmp_path, edges, expected
):
    # A disconnected graph, or one without node 1, is rejected when it
    # loads: no pool job, and the family is never marked failing.
    edge_list = tmp_path / "edges.txt"
    edge_list.write_text(edges)
    spec = f"file:{edge_list}"
    _s, before = get_status(server.url, "/stats")
    for _ in range(4):
        status, payload = get_status(
            server.url, f"/distance?graph={spec}&source=2&target=3"
        )
        assert status == 400
        assert expected in payload["error"]
    status, payload = get_status(server.url, f"/diameter?graph={spec}")
    assert status == 400
    assert expected in payload["error"]
    status, payload = post_graphs(server.url, {"spec": spec})
    assert status == 400
    assert expected in payload["error"]
    _s, after = get_status(server.url, "/stats")
    assert (after["supervisor"]["submitted"]
            == before["supervisor"]["submitted"])
    assert (after["admission"]["failing_families"]
            == before["admission"]["failing_families"])


def test_graphs_post_bad_spec_token_is_400(server):
    status, payload = post_graphs(server.url, {"spec": "er:banana"})
    assert status == 400
    assert "malformed graph spec" in payload["error"]
    status, payload = post_graphs(server.url, {"spec": 7})
    assert status == 400
    status, _payload = post_graphs(server.url, {"wrong": "shape"})
    assert status == 400


def test_graphs_post_invalid_json_is_400(server):
    body = b"{not json"
    response = raw_roundtrip(
        server.port,
        b"POST /graphs HTTP/1.1\r\nHost: t\r\n"
        b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body)
        + body,
    )
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"invalid JSON" in response


# -- admission control: in-flight cap sheds with 429 -------------------


def test_inflight_cap_sheds_with_retry_after():
    with ServerThread(
        workers=1,
        max_inflight=1,
        chaos={"mode": "hang", "seconds": 1.0,
               "kinds": ["rows"], "jobs": 1},
    ) as handle:
        results = {}

        def slow_query():
            results["slow"] = get_status(
                handle.url,
                "/distance?graph=er:12:p=0.3:seed=1&source=1&target=2",
            )

        thread = threading.Thread(target=slow_query)
        thread.start()
        time.sleep(0.3)  # the hanging compute now holds the only slot
        # Health endpoints are exempt from admission control.
        assert get_status(handle.url, "/healthz")[0] == 200
        assert get_status(handle.url, "/readyz")[0] == 200
        # A query is shed with 429 + Retry-After.
        request = urllib.request.Request(
            handle.url
            + "/distance?graph=er:12:p=0.3:seed=1&source=1&target=3"
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                status, headers = response.status, response.headers
        except urllib.error.HTTPError as exc:
            status, headers = exc.code, exc.headers
            exc.read()
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        thread.join(timeout=60)
        assert results["slow"][0] == 200  # the slow query still answered
        _s, stats = get_status(handle.url, "/stats")
        assert stats["admission"]["shed"] >= 1


# -- degraded /diameter: deadline miss falls back to 2-vs-4 ------------


def test_diameter_deadline_degrades_to_two_vs_four():
    with ServerThread(
        workers=1,
        deadline_s=0.4,
        retries=0,
        chaos={"mode": "hang", "seconds": 30.0,
               "kinds": ["full"], "jobs": 1},
    ) as handle:
        started = time.monotonic()
        status, payload = get_status(
            handle.url, "/diameter?graph=diameter4:24:seed=1"
        )
        elapsed = time.monotonic() - started
        assert status == 200
        assert payload["degraded"] is True
        assert payload["tier"] == "degraded"
        assert payload["approximation"] == "two-vs-four"
        assert payload["approximation_factor"] == 2
        assert payload["diameter"] == 4  # exact on the promise family
        assert elapsed < 30.0  # answered within a sane budget
        _s, stats = get_status(handle.url, "/stats")
        assert stats["admission"]["degraded_answers"] == 1
        assert stats["supervisor"]["deadline_misses"] == 1
        # The exact answer is still obtainable once the hostility is
        # spent (the chaos budget was one job).
        status, payload = get_status(
            handle.url, "/diameter?graph=diameter4:24:seed=1"
        )
        assert status == 200
        assert payload["degraded"] is False
        assert payload["diameter"] == 4


def test_eccentricity_deadline_is_503_with_retry_after():
    with ServerThread(
        workers=1,
        deadline_s=0.3,
        retries=0,
        chaos={"mode": "hang", "seconds": 30.0,
               "kinds": ["rows"], "jobs": 1},
    ) as handle:
        request = urllib.request.Request(
            handle.url + "/eccentricity?graph=cycle:12&node=1"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60)
        assert excinfo.value.code == 503
        assert "Retry-After" in excinfo.value.headers
        excinfo.value.read()


# -- the failing-family rule: one probe at a time, cleared by success --


def test_malformed_weighted_param_is_400_and_spares_the_breaker(server):
    # Rejected by the registry's param check before any compute, so
    # repeated bad requests never mark the family failing.
    _s, before = get_status(server.url, "/stats")
    path = ("/distance?graph=cycle:12&source=1&target=2"
            "&protocol=weighted-apsp&max_weight={}")
    for _ in range(4):
        status, payload = get_status(server.url, path.format(0))
        assert status == 400
        assert "max_weight" in payload["error"]
    status, payload = get_status(server.url,
                                 path.format(3) + "&weight_seed=1")
    assert status == 200
    _s, stats = get_status(server.url, "/stats")
    assert (stats["admission"]["failing_families"]
            == before["admission"]["failing_families"])


def get_with_headers(url, path):
    try:
        with urllib.request.urlopen(url + path, timeout=60) as response:
            return (response.status, response.headers,
                    json.loads(response.read().decode()))
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers, json.loads(exc.read().decode())


def test_failing_family_runs_one_probe_and_recovers():
    with ServerThread(
        workers=2,
        deadline_s=0.5,
        retries=0,
        chaos={"mode": "hang", "seconds": 30.0,
               "kinds": ["rows"], "jobs": 2},
    ) as handle:
        path = "/distance?graph=cycle:12&source={}&target=1"
        # The first compute misses its deadline: the family is failing.
        assert get_status(handle.url, path.format(2))[0] == 503
        # The next compute is the probe; it hangs past the deadline too.
        probe = {}
        thread = threading.Thread(target=lambda: probe.update(
            result=get_status(handle.url, path.format(3))
        ))
        thread.start()
        time.sleep(0.15)
        # Beside the probe, the family's computes fail fast with 503 ...
        started = time.monotonic()
        status, headers, payload = get_with_headers(
            handle.url, path.format(4)
        )
        assert status == 503
        assert headers["Retry-After"] == "1"
        assert "failed" in payload["error"]
        assert time.monotonic() - started < 0.25
        # ... while other families still get the second worker.
        status, payload = get_status(
            handle.url, "/distance?graph=cycle:10&source=1&target=6"
        )
        assert (status, payload["distance"]) == (200, 5)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert probe["result"][0] == 503
        _s, stats = get_status(handle.url, "/stats")
        assert stats["supervisor"]["submitted"] == 3
        assert stats["admission"]["failed_fast"] == 1
        assert stats["admission"]["failing_families"] == 1
        # Liveness and readiness are unaffected by a failing family.
        assert get_status(handle.url, "/healthz")[0] == 200
        # The chaos budget is spent: the next probe succeeds and clears
        # the family.
        status, payload = get_status(handle.url, path.format(5))
        assert (status, payload["distance"]) == (200, 4)
        _s, stats = get_status(handle.url, "/stats")
        assert stats["admission"]["failing_families"] == 0


def test_failing_family_is_forgotten_with_its_evicted_matrix():
    # A one-byte budget keeps one matrix resident: each other family's
    # first stored row evicts the failing family's (empty) matrix.
    with ServerThread(
        workers=1,
        retries=0,
        max_matrix_bytes=1,
        chaos={"mode": "error", "kinds": ["rows"], "jobs": 1},
    ) as handle:
        failing = "/distance?graph=cycle:12&source=2&target=1"
        assert get_status(handle.url, failing)[0] == 500  # compute failed
        _s, stats = get_status(handle.url, "/stats")
        assert stats["admission"]["failing_families"] == 1
        for spec in ("cycle:10", "cycle:14"):
            status, _payload = get_status(
                handle.url, f"/distance?graph={spec}&source=1&target=3"
            )
            assert status == 200
        _s, stats = get_status(handle.url, "/stats")
        assert stats["admission"]["failing_families"] == 0
        assert handle.service.cache.evictions >= 2
        # Forgotten, not blocked: the family computes afresh.
        status, payload = get_status(handle.url, failing)
        assert (status, payload["distance"]) == (200, 1)


def test_diameter_beside_a_probe_degrades_instead_of_503():
    with ServerThread(
        workers=2,
        deadline_s=0.5,
        retries=0,
        chaos={"mode": "hang", "seconds": 30.0,
               "kinds": ["rows"], "jobs": 2},
    ) as handle:
        spec = "diameter4:24:seed=1"
        path = f"/eccentricity?graph={spec}&node={{}}"
        assert get_status(handle.url, path.format(1))[0] == 503
        probe = threading.Thread(
            target=get_status, args=(handle.url, path.format(2))
        )
        probe.start()
        time.sleep(0.15)
        # The exact run would sit beside the probe: it is refused, and
        # the answer degrades to 2-vs-4 instead of a 503.
        status, payload = get_status(handle.url, f"/diameter?graph={spec}")
        assert status == 200
        assert payload["degraded"] is True
        assert payload["diameter"] == 4
        probe.join(timeout=60)
        assert not probe.is_alive()
        _s, stats = get_status(handle.url, "/stats")
        assert stats["admission"]["failed_fast"] == 1


def test_diameter_degrades_on_every_deadline_miss():
    with ServerThread(
        workers=1,
        deadline_s=0.4,
        retries=0,
        chaos={"mode": "hang", "seconds": 30.0,
               "kinds": ["full"], "jobs": 4},
    ) as handle:
        path = "/diameter?graph=diameter4:24:seed=1"
        for _ in range(4):
            status, payload = get_status(handle.url, path)
            assert status == 200
            assert payload["degraded"] is True
            assert payload["diameter"] == 4
        status, payload = get_status(handle.url, path)
        assert status == 200
        assert payload["degraded"] is False
        assert payload["diameter"] == 4
        _s, stats = get_status(handle.url, "/stats")
        assert stats["admission"]["degraded_answers"] == 4
        assert stats["admission"]["failing_families"] == 0


def test_readyz_reflects_killed_worker():
    import os
    import signal as _signal

    with ServerThread(workers=2) as handle:
        status, payload = get_status(handle.url, "/readyz")
        assert status == 200
        assert payload["workers"] == {"alive": 2, "configured": 2}
        victim = handle.server.supervisor.worker_pids()[0]
        os.kill(victim, _signal.SIGKILL)
        # Not-ready while the complement is short or settling ...
        saw_not_ready = False
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            status, payload = get_status(handle.url, "/readyz")
            if status == 503:
                saw_not_ready = True
                assert payload["ready"] is False
            elif saw_not_ready:
                break
            time.sleep(0.01)
        assert saw_not_ready
        # ... and ready again once the heartbeat respawned it.
        status, payload = get_status(handle.url, "/readyz")
        assert status == 200
        assert payload["workers"]["alive"] == 2
        _s, stats = get_status(handle.url, "/stats")
        assert stats["supervisor"]["respawns"] >= 1
