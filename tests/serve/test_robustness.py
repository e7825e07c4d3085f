"""HTTP-level robustness tests: the ISSUE 7 failure-mode contract.

Covers the hardened request parser (malformed Content-Length, body
caps, stalled bodies), the 400-never-500 guarantee for bad ``/graphs``
payloads, admission shedding, readiness, breaker trips with half-open
recovery, and the degraded 2-vs-4 ``/diameter`` answer.
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
    # loads: no pool job, no breaker, even past the breaker threshold.
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
    assert f"{spec}|apsp" not in after["breakers"]


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
        tick_s=0.001,
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
        tick_s=0.001,
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
        tick_s=0.001,
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


# -- circuit breaker: trip on repeated failures, recover half-open -----


def test_malformed_weighted_param_is_400_and_spares_the_breaker(server):
    # Rejected by the registry's param check before any compute, so
    # even more requests than the breaker threshold (3) open nothing.
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
    breaker = stats["breakers"]["cycle:12|weighted-apsp"]
    assert breaker["state"] == "closed"
    assert breaker["opened_count"] == 0


def test_breaker_trips_and_recovers_over_http():
    with ServerThread(
        workers=1,
        retries=0,
        tick_s=0.001,
        breaker_threshold=2,
        breaker_reset_s=0.3,
        chaos={"mode": "error", "kinds": ["rows"], "jobs": 2},
    ) as handle:
        path = "/distance?graph=cycle:12&source=1&target={}"
        # Two poisoned computes → two 500s → the breaker opens.
        assert get_status(handle.url, path.format(2))[0] == 500
        assert get_status(handle.url, path.format(3))[0] == 500
        status, payload = get_status(handle.url, path.format(4))
        assert status == 503
        assert "circuit breaker" in payload["error"]
        _s, stats = get_status(handle.url, "/stats")
        key = "cycle:12|apsp"
        assert stats["breakers"][key]["state"] == "open"
        assert stats["breakers"][key]["opened_count"] == 1
        # Liveness and readiness are unaffected by a tripped family.
        assert get_status(handle.url, "/readyz")[0] == 200
        # After the reset window the half-open probe runs for real
        # (the chaos budget is spent) and closes the breaker.
        time.sleep(0.4)
        status, payload = get_status(handle.url, path.format(5))
        assert status == 200
        assert payload["distance"] == 4
        _s, stats = get_status(handle.url, "/stats")
        assert stats["breakers"][key]["state"] == "closed"


def test_readyz_reflects_killed_worker():
    import os
    import signal as _signal

    with ServerThread(workers=2, tick_s=0.001) as handle:
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
