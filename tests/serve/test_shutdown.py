"""``repro serve`` start-up and graceful-shutdown regression tests.

Real subprocess, real signals; the drain test uses ``ServerThread``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.serve import ServerThread

REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SRC = os.path.join(REPO, "src")


def serve_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def start_server(tmp_path, *extra):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", "0", "--graph", "cycle:16",
         "--stats-out", str(tmp_path / "stats.json"), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=serve_env(), text=True,
    )
    ready = proc.stdout.readline()
    assert "repro-serve: ready on http://" in ready, ready
    port = int(ready.split(":")[-1].split(" ")[0].split("(")[0])
    return proc, port


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_signal_drains_and_flushes_stats(tmp_path, signum):
    proc, port = start_server(tmp_path)
    try:
        url = f"http://127.0.0.1:{port}"
        with urllib.request.urlopen(
            url + "/distance?graph=cycle:16&source=1&target=9",
            timeout=30,
        ) as response:
            first = json.loads(response.read().decode())
        assert first["distance"] == 8
        with urllib.request.urlopen(
            url + "/distance?graph=cycle:16&source=1&target=5",
            timeout=30,
        ) as response:
            assert json.loads(response.read().decode())["tier"] == "memory"
        proc.send_signal(signum)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, stderr
    assert "repro-serve: drained" in stdout
    assert "stats flushed" in stdout
    # The stats snapshot was written on the way out.
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["cache"]["lookups"] >= 2
    assert stats["cache"]["memory"] >= 1
    assert stats["endpoints"]["/distance"]["count"] == 2


def test_ready_line_parses_ephemeral_port(tmp_path):
    proc, port = start_server(tmp_path)
    try:
        assert port > 0
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/healthz", timeout=30
        ) as response:
            assert json.loads(response.read().decode()) == {"ok": True}
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0


def serve_until_exit(*flags):
    """Run ``repro serve --port 0 <flags>``; assert it never gets ready.

    Returns ``(returncode, stderr)``.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=serve_env(), text=True,
    )
    try:
        assert "ready" not in proc.stdout.readline()
        _stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            # A server that did start drains its pool on SIGTERM;
            # SIGKILL would orphan workers holding the output pipes.
            proc.terminate()
            proc.communicate(timeout=60)
    return proc.returncode, stderr


def test_unknown_policy_exits_1_before_ready():
    returncode, stderr = serve_until_exit("--policy", "bogus")
    assert returncode == 1
    assert "unknown bandwidth policy 'bogus'" in stderr


def test_disconnected_graph_exits_1_before_ready(tmp_path):
    edge_list = tmp_path / "edges.txt"
    edge_list.write_text("1 2\n3 4\n")
    returncode, stderr = serve_until_exit("--graph", f"file:{edge_list}")
    assert returncode == 1
    assert "disconnected graph" in stderr


def test_cold_miss_during_drain_is_503_and_hits_still_answer():
    """A row miss after shutdown began is refused, never a 500."""
    handle = ServerThread(
        workers=1,
        warm=("cycle:12",),
        # The in-flight query's rows job holds the drain open for 1 s.
        chaos={"mode": "hang", "seconds": 1.0, "kinds": ["rows"],
               "jobs": 1},
    ).start()
    stopper = threading.Thread(target=handle.stop)
    inflight = {}

    def cold_query():
        with urllib.request.urlopen(
            handle.url + "/distance?graph=cycle:10&source=1&target=6",
            timeout=60,
        ) as response:
            inflight["answer"] = (
                response.status, json.loads(response.read().decode()),
            )

    query = threading.Thread(target=cold_query)
    # Kept-alive connections, opened before shutdown closes the
    # listening socket.
    late, hit, probe = (
        http.client.HTTPConnection("127.0.0.1", handle.port, timeout=60)
        for _ in range(3)
    )
    try:
        for conn in (late, hit, probe):
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
        query.start()
        time.sleep(0.3)                    # its rows job is now hung
        stopper.start()
        for _ in range(500):               # wait until shutdown began
            probe.request("GET", "/readyz")
            response = probe.getresponse()
            response.read()
            if response.status == 503:
                break
            time.sleep(0.01)
        assert response.status == 503
        late.request("GET", "/distance?graph=cycle:10&source=2&target=6")
        response = late.getresponse()
        payload = json.loads(response.read().decode())
        assert response.status == 503, payload
        assert response.getheader("Retry-After") == "1"
        assert response.getheader("Connection") == "close"
        assert "shutting down" in payload["error"]
        hit.request("GET", "/distance?graph=cycle:12&source=1&target=7")
        response = hit.getresponse()
        payload = json.loads(response.read().decode())
        assert (response.status, payload["tier"]) == (200, "memory")
        query.join(timeout=60)
        assert not query.is_alive()
        assert inflight["answer"][0] == 200
        assert inflight["answer"][1]["distance"] == 5
    finally:
        # On Python 3.12.1+ shutdown waits for every open connection.
        for conn in (late, hit, probe):
            conn.close()
        if stopper.ident is None:
            stopper.start()
        stopper.join(timeout=60)
        assert not stopper.is_alive()
