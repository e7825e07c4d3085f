"""Load-test harness for the distance-query service.

Drives ``clients`` concurrent keep-alive HTTP connections against a
running ``repro serve`` instance for ``duration_s`` seconds, each
issuing point ``distance`` queries (plus a sprinkle of ``eccentricity``
and ``diameter`` in ``mixed`` mode) with a deterministic per-client
RNG, and reports queries/sec with p50/p90/p99 latency as a
``repro-serve-bench/1`` JSON artifact — the serving twin of the
``repro-bench/1`` reports in :mod:`repro.bench`.

The artifact embeds the server's ``/stats`` snapshot taken after the
run, so one file answers both "how fast?" and "how was it served?"
(cache tiers, batch sizes, rounds saved).  The CI ``serve-smoke`` job
gates on nonzero cache hits in exactly that snapshot.

Node sampling assumes the generator families' contiguous ``1..n`` id
space (fetched via ``POST /graphs``); queries that miss an id on other
topologies are counted as errors rather than aborting the run.
"""

from __future__ import annotations

import asyncio
import json
import random
import statistics
import time
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from ..obs import percentile

#: Artifact schema identifier; bump when the shape changes.
SCHEMA = "repro-serve-bench/1"


@dataclass
class LoadgenOptions:
    """Knobs of one load-generation run."""

    url: str
    graph: str
    protocol: str = "apsp"
    clients: int = 8
    duration_s: float = 5.0
    mode: str = "distance"        # "distance" | "mixed"
    seed: int = 0
    #: Issue one diameter query up front so the matrix is warm and the
    #: measured window exercises the cache, not one big simulation.
    warm: bool = False


class _Client:
    """One keep-alive connection issuing deterministic queries."""

    def __init__(
        self, options: LoadgenOptions, index: int, n: int
    ) -> None:
        self.options = options
        self.rng = random.Random(options.seed * 7919 + index)
        self.n = n
        self.latencies: List[float] = []
        self.errors = 0

    def next_path(self) -> str:
        opts = self.options
        suffix = f"&protocol={opts.protocol}"
        kind = "distance"
        if opts.mode == "mixed":
            roll = self.rng.random()
            if roll < 0.10:
                kind = "eccentricity"
            elif roll < 0.12:
                kind = "diameter"
        if kind == "diameter":
            return f"/diameter?graph={opts.graph}{suffix}"
        if kind == "eccentricity":
            node = self.rng.randint(1, self.n)
            return f"/eccentricity?graph={opts.graph}&node={node}{suffix}"
        source = self.rng.randint(1, self.n)
        target = self.rng.randint(1, self.n)
        return (f"/distance?graph={opts.graph}"
                f"&source={source}&target={target}{suffix}")

    async def run(self, host: str, port: int, deadline: float) -> None:
        reader = writer = None
        try:
            while time.monotonic() < deadline:
                if writer is None:
                    reader, writer = await asyncio.open_connection(
                        host, port
                    )
                path = self.next_path()
                started = time.perf_counter()
                try:
                    status, _payload = await http_get(
                        reader, writer, host, path
                    )
                except (ConnectionError, asyncio.IncompleteReadError):
                    # Server closed the keep-alive; reconnect once.
                    writer.close()
                    reader = writer = None
                    self.errors += 1
                    continue
                self.latencies.append(time.perf_counter() - started)
                if status >= 400:
                    self.errors += 1
        finally:
            if writer is not None:
                writer.close()


async def http_get(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    host: str,
    path: str,
) -> Tuple[int, Any]:
    """One keep-alive GET on an open connection; returns (status, json)."""
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Connection: keep-alive\r\n\r\n".encode("latin-1")
    )
    await writer.drain()
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    length = 0
    for line in lines[1:]:
        if line.lower().startswith("content-length:"):
            length = int(line.split(":", 1)[1])
    body = await reader.readexactly(length) if length else b""
    payload = json.loads(body.decode("utf-8")) if body else None
    return status, payload


async def _http_get_once(host: str, port: int, path: str) -> Tuple[int, Any]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        return await http_get(reader, writer, host, path)
    finally:
        writer.close()


async def _http_post_once(
    host: str, port: int, path: str, payload: Any
) -> Tuple[int, Any]:
    body = json.dumps(payload).encode("utf-8")
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            (f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
             f"Content-Type: application/json\r\n"
             f"Content-Length: {len(body)}\r\n"
             f"Connection: close\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1])
        data = await reader.readexactly(length) if length else b""
        return status, json.loads(data.decode("utf-8")) if data else None
    finally:
        writer.close()


async def _loadgen_main(options: LoadgenOptions) -> Dict[str, Any]:
    split = urlsplit(options.url)
    host, port = split.hostname, split.port
    if host is None or port is None:
        raise ValueError(
            f"--url must look like http://HOST:PORT, got {options.url!r}"
        )
    status, info = await _http_post_once(
        host, port, "/graphs", {"spec": options.graph}
    )
    if status != 200:
        raise RuntimeError(
            f"could not load graph {options.graph!r}: {info}"
        )
    n = info["n"]
    if options.warm:
        await _http_get_once(
            host, port,
            f"/diameter?graph={options.graph}"
            f"&protocol={options.protocol}",
        )
    clients = [
        _Client(options, index, n) for index in range(options.clients)
    ]
    started = time.monotonic()
    deadline = started + options.duration_s
    await asyncio.gather(
        *(client.run(host, port, deadline) for client in clients)
    )
    elapsed = time.monotonic() - started
    latencies = sorted(
        lat for client in clients for lat in client.latencies
    )
    errors = sum(client.errors for client in clients)
    _status, server_stats = await _http_get_once(host, port, "/stats")
    requests = len(latencies)
    return {
        "schema": SCHEMA,
        "generated": date.today().isoformat(),
        "url": options.url,
        "graph": options.graph,
        "protocol": options.protocol,
        "mode": options.mode,
        "clients": options.clients,
        "duration_s": elapsed,
        "requests": requests,
        "errors": errors,
        "qps": requests / elapsed if elapsed > 0 else 0.0,
        "latency_ms": {
            "p50": 1000.0 * percentile(latencies, 0.50),
            "p90": 1000.0 * percentile(latencies, 0.90),
            "p99": 1000.0 * percentile(latencies, 0.99),
            "mean": 1000.0 * statistics.fmean(latencies)
                    if latencies else 0.0,
            "max": 1000.0 * max(latencies, default=0.0),
        },
        "server_stats": server_stats,
    }


def run_loadgen(options: LoadgenOptions) -> Dict[str, Any]:
    """Run the load generator; returns the artifact dict."""
    return asyncio.run(_loadgen_main(options))


def write_artifact(report: Dict[str, Any], path: str) -> None:
    """Write the artifact as pretty-printed JSON (parents created)."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def render_summary(report: Dict[str, Any]) -> str:
    """One human line per headline number."""
    latency = report["latency_ms"]
    stats = report.get("server_stats") or {}
    cache = stats.get("cache", {})
    batches = stats.get("batches", {})
    lines = [
        f"loadgen: {report['requests']} requests "
        f"({report['errors']} errors) over "
        f"{report['duration_s']:.1f}s with {report['clients']} clients",
        f"qps: {report['qps']:.0f}",
        f"latency ms: p50 {latency['p50']:.2f}  "
        f"p90 {latency['p90']:.2f}  p99 {latency['p99']:.2f}",
    ]
    if cache:
        rate = cache.get("hit_rate")
        lines.append(
            f"server cache: {cache.get('hits', 0)} hits / "
            f"{cache.get('lookups', 0)} lookups "
            f"({'n/a' if rate is None else format(rate, '.0%')})"
        )
    if batches.get("count"):
        lines.append(
            f"batches: {batches['count']} runs, mean size "
            f"{batches['mean_size']:.1f}, max {batches['max_size']}, "
            f"~{batches['rounds_saved_estimate']} rounds saved"
        )
    return "\n".join(lines)
