"""``repro serve`` start-up and graceful-shutdown regression tests.

Real subprocess, real signals.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import urllib.request

import pytest

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
