"""Drive ``repro serve``: spawn it, load it in a closed loop, stop it.

The client is one process with at most two threads, each owning one
keep-alive connection and sending its next request only after the
previous reply arrived (the service's callers each wait for their
reply).  Replies are kept raw and checked after the window closes, so
checking costs nothing inside it.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import threading
from time import monotonic, perf_counter, sleep
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Seconds a server gets to print its ready line or to drain and exit.
SERVER_TIMEOUT_S = 60.0

#: Seconds a reply may take before the client drops the connection.
REPLY_TIMEOUT_S = 10.0

_READY = "repro-serve: ready on http://"


class Server:
    """One server process: the ``repro serve`` CLI or the traced host."""

    def __init__(self, argv: Sequence[str], *, env: Dict[str, str], log_path: str) -> None:
        self._log = open(log_path, "ab")
        started = monotonic()
        self.proc = subprocess.Popen(
            list(argv), stdout=subprocess.PIPE, stderr=self._log,
            env=env, start_new_session=True,
        )
        try:
            self.port = self._await_ready()
        except BaseException:
            self.stop()
            raise
        #: Spawn to ready line, in seconds.
        self.setup_s = monotonic() - started

    def _await_ready(self) -> int:
        deadline = monotonic() + SERVER_TIMEOUT_S
        buffered = b""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while monotonic() < deadline:
                if not sel.select(timeout=max(0.0, deadline - monotonic())):
                    continue
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                for line in buffered.decode("utf-8", "replace").splitlines():
                    if line.startswith(_READY):
                        address = line[len(_READY):].split()[0]
                        return int(address.rsplit(":", 1)[1])
        raise RuntimeError(
            f"server did not become ready (exit code {self.proc.poll()})"
        )

    def peak_rss_mb(self) -> float:
        """Summed peak RSS (VmHWM) of the server and its workers."""
        workers = [pid for pid, ppid, _, _ in _processes() if ppid == self.proc.pid]
        return sum(_vm_hwm_kb(pid) for pid in [self.proc.pid, *workers]) / 1024.0

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def stop(self) -> int:
        """SIGTERM (drain-first shutdown) and wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            code = self.proc.wait()
        # Workers leave with the server; sweep any straggler of its group
        # and wait until none is left running.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        deadline = monotonic() + 5.0
        while monotonic() < deadline and any(
            pgrp == self.proc.pid and state != "Z"
            for _, _, pgrp, state in _processes()
        ):
            sleep(0.02)
        self.proc.stdout.close()
        self._log.close()
        return code


def _processes() -> List[Tuple[int, int, int, str]]:
    """``(pid, ppid, process group, state)`` of every process."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # State, ppid and pgrp follow the parenthesized command name.
        state, ppid, pgrp = stat[stat.rindex(b")") + 2:].split()[:3]
        out.append((int(entry), int(ppid), int(pgrp), state.decode()))
    return out


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "r") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def request_bytes(target: str) -> bytes:
    """A keep-alive ``GET`` for ``target`` (path plus query string)."""
    return (
        f"GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
    ).encode("latin-1")


def _exchange(sock: socket.socket, payload: bytes) -> Tuple[int, bytes]:
    """Send one request, read one ``Content-Length`` framed reply."""
    sock.sendall(payload)
    data = b""
    while True:
        head_end = data.find(b"\r\n\r\n")
        if head_end >= 0:
            break
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        data += chunk
    head = data[:head_end].decode("latin-1")
    status = int(head.split(" ", 2)[1])
    length = 0
    for line in head.split("\r\n")[1:]:
        name, _, value = line.partition(":")
        if name.lower() == "content-length":
            length = int(value)
    body = data[head_end + 4:]
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        body += chunk
    return status, body


#: One reply: (request index, latency seconds, status, body); status 0
#: marks a dropped connection.
Reply = Tuple[int, float, int, bytes]


def closed_loop(
    port: int,
    next_request: Callable[[], Optional[Tuple[int, bytes]]],
    seconds: float,
    connections: int = 2,
) -> Tuple[List[Reply], float]:
    """Run ``connections`` closed-loop clients for ``seconds``.

    ``next_request`` hands out ``(index, request bytes)`` and is shared
    by every connection (``None`` ends the loop early).  Returns every
    reply and the window's wall length.
    """
    replies: List[List[Reply]] = [[] for _ in range(connections)]
    lock = threading.Lock()
    start = perf_counter()
    deadline = start + seconds
    ends = [start] * connections

    def connect() -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", port), REPLY_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def client(slot: int) -> None:
        out = replies[slot]
        sock = connect()
        try:
            while perf_counter() < deadline:
                with lock:
                    item = next_request()
                if item is None:
                    break
                index, payload = item
                sent = perf_counter()
                try:
                    status, body = _exchange(sock, payload)
                except OSError:
                    out.append((index, perf_counter() - sent, 0, b""))
                    sock.close()
                    sock = connect()
                    continue
                out.append((index, perf_counter() - sent, status, body))
        finally:
            sock.close()
            ends[slot] = perf_counter()

    threads = [
        threading.Thread(target=client, args=(slot,), daemon=True)
        for slot in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for part in replies for r in part], max(ends) - start


def get_json(port: int, path: str) -> dict:
    with socket.create_connection(("127.0.0.1", port), REPLY_TIMEOUT_S) as sock:
        status, body = _exchange(sock, request_bytes(path))
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(body)
