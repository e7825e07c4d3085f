"""The ``repro serve-chaos`` harness: kill workers under live load.

The robustness contract of the serving stack (docs/serving.md,
"Failure modes and degraded answers") is only credible if it is
exercised the hard way: this harness stands up a real supervised
server, drives concurrent keep-alive clients issuing a stream of
*cold* queries (every query a fresh ER family, so the worker pool is
always carrying jobs), SIGKILLs workers mid-flight on a schedule, and
optionally poisons computes through the supervisor's chaos plan
(``crash`` / ``hang`` / ``error`` — the campaign harness's hostile
protocol, inside serve workers).

While the load runs it watches ``/readyz`` flip not-ready after each
kill and back to ready once the heartbeat respawns the worker, and at
the end it checks the contract:

* **zero dropped queries** — every request the clients issued got an
  HTTP response (connection resets count as drops);
* **no internal errors** — every response status is 200/429/503
  (429 = admission shed, 503 = deadline or failing family; 500
  means a crash leaked past the retry machinery);
* **full recovery** — every kill was followed by a respawn, the final
  worker complement is complete, and ``/readyz`` answers 200;
* **bounded tail** — client p99 stays under ``p99_budget_ms``.

The verdict plus the evidence (per-status counts, recovery timeline,
the final ``/stats`` snapshot) is written as a
``repro-serve-chaos/1`` artifact; the CI ``serve-chaos`` job gates on
``ok`` and uploads the artifact.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..obs import percentile
# ``write_artifact`` is re-exported: the chaos artifact is written
# exactly like the loadgen one.
from .loadgen import _http_get_once, http_get, write_artifact  # noqa: F401
from .server import ServerThread

#: Artifact schema identifier; bump when the shape changes.
SCHEMA = "repro-serve-chaos/1"


@dataclass
class ChaosOptions:
    """Knobs of one chaos run."""

    #: ER family size for the cold-query stream (small keeps one
    #: Algorithm 2 run in the tens of milliseconds).
    graph_n: int = 24
    graph_p: float = 0.2
    protocol: str = "apsp"
    clients: int = 4
    duration_s: float = 8.0
    workers: int = 2
    #: Workers to SIGKILL during the run.
    kills: int = 1
    kill_after_s: float = 1.0
    kill_every_s: float = 2.0
    deadline_s: float = 15.0
    retries: int = 2
    queue_depth: int = 128
    #: Optional compute poisoning: ``crash`` | ``hang`` | ``error``.
    inject: Optional[str] = None
    #: How many jobs the plan poisons (0 disables).
    inject_jobs: int = 0
    #: Attempts below this are poisoned (1 = retry succeeds).
    inject_attempts: int = 1
    #: Hang duration for ``inject="hang"`` (pick > deadline_s to force
    #: deadline misses, < to force slow-but-ok computes).
    hang_s: float = 30.0
    #: Fraction of queries repeating an earlier one (cache-hit traffic
    #: that must keep flowing while the pool is busy or saturated).
    hit_fraction: float = 0.25
    seed: int = 0
    p99_budget_ms: float = 30000.0


@dataclass
class _ClientState:
    statuses: Dict[int, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    dropped: int = 0
    degraded: int = 0


class _ColdStream:
    """A shared source of never-seen-before query families."""

    def __init__(self, options: ChaosOptions) -> None:
        self.options = options
        self._next_seed = 0
        self.issued: List[str] = []

    def next_spec(self) -> str:
        opts = self.options
        self._next_seed += 1
        spec = (
            f"er:{opts.graph_n}:p={opts.graph_p}:seed={self._next_seed}"
        )
        self.issued.append(spec)
        return spec


async def _client(
    index: int,
    host: str,
    port: int,
    options: ChaosOptions,
    stream: _ColdStream,
    state: _ClientState,
    deadline: float,
) -> None:
    import random

    rng = random.Random(options.seed * 6151 + index)
    reader = writer = None
    n = options.graph_n
    try:
        while time.monotonic() < deadline:
            if writer is None:
                reader, writer = await asyncio.open_connection(host, port)
            warm = stream.issued and rng.random() < options.hit_fraction
            spec = rng.choice(stream.issued) if warm else stream.next_spec()
            source = rng.randint(1, n)
            target = rng.randint(1, n)
            path = (
                f"/distance?graph={spec}&source={source}"
                f"&target={target}&protocol={options.protocol}"
            )
            started = time.perf_counter()
            try:
                status, payload = await http_get(
                    reader, writer, host, path
                )
            except (ConnectionError, asyncio.IncompleteReadError,
                    OSError):
                # An accepted query whose connection died — the drop
                # the contract forbids.
                state.dropped += 1
                writer.close()
                reader = writer = None
                continue
            state.latencies.append(time.perf_counter() - started)
            state.statuses[status] = state.statuses.get(status, 0) + 1
            if isinstance(payload, dict) and payload.get("degraded"):
                state.degraded += 1
    finally:
        if writer is not None:
            writer.close()


async def _killer(
    host: str,
    port: int,
    options: ChaosOptions,
    record: List[Dict[str, Any]],
) -> None:
    """SIGKILL one worker per round; watch ``/readyz`` round-trip."""
    await asyncio.sleep(options.kill_after_s)
    for round_no in range(options.kills):
        _status, stats = await _http_get_once(host, port, "/stats")
        pids = (stats.get("supervisor") or {}).get("pids") or []
        if not pids:
            record.append({"round": round_no, "killed": None,
                           "error": "no live worker pids"})
            continue
        victim = pids[round_no % len(pids)]
        killed_at = time.monotonic()
        os.kill(victim, signal.SIGKILL)
        entry: Dict[str, Any] = {"round": round_no, "killed": victim}
        # Tight poll: the not-ready window lasts until the heartbeat
        # (or the dispatch loop) respawns the worker.
        saw_not_ready = False
        recovered_s = None
        while time.monotonic() - killed_at < 10.0:
            status, _payload = await _http_get_once(host, port, "/readyz")
            if status != 200:
                saw_not_ready = True
            elif saw_not_ready:
                recovered_s = time.monotonic() - killed_at
                break
            await asyncio.sleep(0.005)
        entry["observed_not_ready"] = saw_not_ready
        entry["recovered_s"] = recovered_s
        record.append(entry)
        await asyncio.sleep(options.kill_every_s)


async def _drive(
    host: str, port: int, options: ChaosOptions
) -> Dict[str, Any]:
    stream = _ColdStream(options)
    state = _ClientState()
    kills: List[Dict[str, Any]] = []
    deadline = time.monotonic() + options.duration_s
    tasks = [
        asyncio.ensure_future(_client(
            index, host, port, options, stream, state, deadline
        ))
        for index in range(options.clients)
    ]
    if options.kills > 0:
        tasks.append(
            asyncio.ensure_future(_killer(host, port, options, kills))
        )
    await asyncio.gather(*tasks)
    ready_status, ready_payload = await _http_get_once(host, port, "/readyz")
    _s, stats = await _http_get_once(host, port, "/stats")
    return {
        "statuses": dict(sorted(state.statuses.items())),
        "latencies": state.latencies,
        "dropped": state.dropped,
        "degraded": state.degraded,
        "cold_families": len(stream.issued),
        "kills": kills,
        "final_ready": {"status": ready_status, **(ready_payload or {})},
        "server_stats": stats,
    }


def _checks(
    options: ChaosOptions, outcome: Dict[str, Any]
) -> List[Dict[str, Any]]:
    statuses: Dict[int, int] = outcome["statuses"]
    supervisor = (outcome["server_stats"].get("supervisor") or {})
    latencies = outcome["latencies"]
    p99_ms = 1000.0 * percentile(latencies, 0.99)
    unexpected = {
        status: count for status, count in statuses.items()
        if status not in (200, 429, 503)
    }
    kills_done = [k for k in outcome["kills"] if k.get("killed")]
    checks = [
        {
            "name": "zero_dropped_queries",
            "ok": outcome["dropped"] == 0,
            "detail": f"{outcome['dropped']} connection drop(s)",
        },
        {
            "name": "no_internal_errors",
            "ok": not unexpected,
            "detail": (
                f"unexpected statuses {unexpected}" if unexpected
                else "every response was 200/429/503"
            ),
        },
        {
            "name": "answered_queries",
            "ok": statuses.get(200, 0) > 0,
            "detail": f"{statuses.get(200, 0)} × 200",
        },
        {
            "name": "kills_performed",
            "ok": len(kills_done) == options.kills,
            "detail": f"{len(kills_done)}/{options.kills} workers killed",
        },
        {
            "name": "workers_respawned",
            "ok": supervisor.get("respawns", 0) >= len(kills_done),
            "detail": (
                f"{supervisor.get('respawns', 0)} respawn(s) for "
                f"{len(kills_done)} kill(s)"
            ),
        },
        {
            "name": "readyz_flipped",
            "ok": (
                all(k.get("observed_not_ready") for k in kills_done)
                if kills_done else True
            ),
            "detail": "each kill flipped /readyz not-ready before recovery",
        },
        {
            "name": "full_recovery",
            "ok": (
                outcome["final_ready"]["status"] == 200
                and supervisor.get("alive") == options.workers
            ),
            "detail": (
                f"final /readyz {outcome['final_ready']['status']}, "
                f"{supervisor.get('alive')}/{options.workers} "
                f"workers alive"
            ),
        },
        {
            "name": "bounded_p99",
            "ok": p99_ms <= options.p99_budget_ms,
            "detail": (
                f"p99 {p99_ms:.1f}ms vs budget "
                f"{options.p99_budget_ms:.0f}ms"
            ),
        },
    ]
    return checks


def run_chaos(options: ChaosOptions) -> Dict[str, Any]:
    """Run the full chaos scenario; returns the artifact dict."""
    chaos_spec = None
    if options.inject and options.inject_jobs > 0:
        chaos_spec = {
            "mode": options.inject,
            "seconds": options.hang_s,
            "kinds": ["rows"],
            "jobs": options.inject_jobs,
            "attempts": options.inject_attempts,
        }
    with ServerThread(
        workers=options.workers,
        deadline_s=options.deadline_s,
        retries=options.retries,
        queue_depth=options.queue_depth,
        chaos=chaos_spec,
    ) as handle:
        outcome = asyncio.run(
            _drive(handle.server.config.host, handle.port, options)
        )
    checks = _checks(options, outcome)
    latencies = outcome.pop("latencies")
    return {
        "schema": SCHEMA,
        "options": {
            "graph": (
                f"er:{options.graph_n}:p={options.graph_p}:seed=*"
            ),
            "clients": options.clients,
            "duration_s": options.duration_s,
            "workers": options.workers,
            "kills": options.kills,
            "deadline_s": options.deadline_s,
            "retries": options.retries,
            "inject": options.inject,
            "inject_jobs": options.inject_jobs,
        },
        "requests": len(latencies),
        "latency_ms": {
            "p50": 1000.0 * percentile(latencies, 0.50),
            "p99": 1000.0 * percentile(latencies, 0.99),
            "max": 1000.0 * max(latencies, default=0.0),
        },
        **outcome,
        "checks": checks,
        "ok": all(check["ok"] for check in checks),
    }


def render_summary(report: Dict[str, Any]) -> str:
    """One human line per check, verdict last."""
    lines = [
        f"serve-chaos: {report['requests']} request(s), "
        f"{report['cold_families']} cold families, "
        f"statuses {report['statuses']}, "
        f"{report['degraded']} degraded answer(s)",
        f"latency ms: p50 {report['latency_ms']['p50']:.1f}  "
        f"p99 {report['latency_ms']['p99']:.1f}",
    ]
    for kill in report["kills"]:
        recovered = kill.get("recovered_s")
        lines.append(
            f"kill #{kill['round']}: pid {kill.get('killed')} → "
            f"not-ready {kill.get('observed_not_ready')} → recovered "
            f"{'n/a' if recovered is None else f'{recovered * 1000:.0f}ms'}"
        )
    for check in report["checks"]:
        mark = "ok " if check["ok"] else "FAIL"
        lines.append(f"  [{mark}] {check['name']}: {check['detail']}")
    lines.append(f"verdict: {'OK' if report['ok'] else 'FAILED'}")
    return "\n".join(lines)
