"""Serve-side observability counters.

One :class:`ServeStats` instance per service aggregates everything the
``/stats`` endpoint exposes: per-endpoint request counts and latency
percentiles, cache hits broken down by tier (``memory`` / ``disk`` /
``computed``), and per-batch economics — how many sources each
coalesced Algorithm 2 run carried, the rounds it actually spent, and
the rounds an equivalent one-run-per-query sequence would have spent.

The service is touched from the event loop *and* read from other
threads (a test or benchmark beside a ``ServerThread``), so every
mutation takes a :class:`threading.Lock`;
:meth:`snapshot` returns a JSON-pure dict computed under the same lock.

Latency percentiles are nearest-rank (:func:`repro.obs.percentile`)
over a bounded sample window (the most recent :data:`LATENCY_WINDOW`
observations per endpoint) so a long-running server's memory stays
flat.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional

from ..obs import percentile

#: Per-endpoint latency samples retained for percentile computation.
LATENCY_WINDOW = 4096

#: Cache tiers a query can be answered from, cheapest first.
TIERS = ("memory", "disk", "computed")


class _EndpointStats:
    __slots__ = ("count", "errors", "total_s", "latencies")

    def __init__(self) -> None:
        self.count = 0
        self.errors = 0
        self.total_s = 0.0
        self.latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)


class ServeStats:
    """Thread-safe counters behind the ``/stats`` endpoint."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.time()
        self._endpoints: Dict[str, _EndpointStats] = {}
        self._tiers: Dict[str, int] = {tier: 0 for tier in TIERS}
        self._batches = 0
        self._batched_sources = 0
        self._max_batch = 0
        self._multi_source_batches = 0
        self._batch_rounds = 0
        self._sequential_rounds_estimate = 0
        self._protocol_runs = 0
        #: Extra snapshot sections (supervisor, admission…)
        #: registered by the server; each provider returns a JSON-pure
        #: dict and is called *outside* the stats lock.
        self._sections: Dict[str, Callable[[], Dict[str, Any]]] = {}

    def set_section(
        self, name: str, provider: Callable[[], Dict[str, Any]]
    ) -> None:
        """Register an extra ``/stats`` section (idempotent by name)."""
        with self._lock:
            self._sections[name] = provider

    # -- recording ---------------------------------------------------------

    def observe_request(
        self, endpoint: str, seconds: float, *, ok: bool = True
    ) -> None:
        """Record one handled request against ``endpoint``."""
        with self._lock:
            stats = self._endpoints.setdefault(endpoint, _EndpointStats())
            stats.count += 1
            stats.total_s += seconds
            stats.latencies.append(seconds)
            if not ok:
                stats.errors += 1

    def observe_tier(self, tier: str) -> None:
        """Record which cache tier answered a query."""
        with self._lock:
            self._tiers[tier] = self._tiers.get(tier, 0) + 1

    def observe_batch(
        self, size: int, rounds: int, sequential_estimate: int
    ) -> None:
        """Record one coalesced S-SP run of ``size`` sources.

        ``sequential_estimate`` is the round cost the same queries would
        have paid as ``size`` independent single-source runs — the
        |S| + D economics the batcher exists to beat.
        """
        with self._lock:
            self._batches += 1
            self._batched_sources += size
            self._max_batch = max(self._max_batch, size)
            if size >= 2:
                self._multi_source_batches += 1
            self._batch_rounds += rounds
            self._sequential_rounds_estimate += sequential_estimate

    def observe_protocol_run(self) -> None:
        """Record one full protocol simulation (apsp / weighted)."""
        with self._lock:
            self._protocol_runs += 1

    # -- reading -----------------------------------------------------------

    def hit_rate(self) -> Optional[float]:
        """Fraction of queries answered without a new simulation."""
        with self._lock:
            hits = self._tiers["memory"] + self._tiers["disk"]
            total = hits + self._tiers["computed"]
        return hits / total if total else None

    def snapshot(self) -> Dict[str, Any]:
        """JSON-pure view of every counter (the ``/stats`` payload)."""
        with self._lock:
            endpoints = {}
            for name, stats in sorted(self._endpoints.items()):
                window = list(stats.latencies)
                endpoints[name] = {
                    "count": stats.count,
                    "errors": stats.errors,
                    "mean_ms": (
                        1000.0 * stats.total_s / stats.count
                        if stats.count else 0.0
                    ),
                    "p50_ms": 1000.0 * percentile(window, 0.50),
                    "p99_ms": 1000.0 * percentile(window, 0.99),
                }
            tiers = dict(self._tiers)
            hits = tiers["memory"] + tiers["disk"]
            lookups = hits + tiers["computed"]
            batches = {
                "count": self._batches,
                "sources": self._batched_sources,
                "max_size": self._max_batch,
                "multi_source": self._multi_source_batches,
                "mean_size": (
                    self._batched_sources / self._batches
                    if self._batches else 0.0
                ),
                "rounds": self._batch_rounds,
                "sequential_rounds_estimate":
                    self._sequential_rounds_estimate,
                "rounds_saved_estimate": max(
                    0, self._sequential_rounds_estimate - self._batch_rounds
                ),
            }
            out = {
                "uptime_s": time.time() - self._started,
                "endpoints": endpoints,
                "cache": {
                    **tiers,
                    "lookups": lookups,
                    "hits": hits,
                    "hit_rate": hits / lookups if lookups else None,
                },
                "batches": batches,
                "protocol_runs": self._protocol_runs,
            }
            sections = dict(self._sections)
        for name, provider in sections.items():
            out[name] = provider()
        return out
