"""The supervised compute pool behind ``repro serve``.

Cold ``rows`` / ``full`` / ``approx-diameter`` work comes off the
asyncio event loop and runs as :func:`~repro.serve.service.run_job` in
worker *processes* of the generic :class:`~repro.harness.pool.Pool`
(the campaign harness runs on the same pool), so a crashed or wedged
Algorithm 2 run costs one worker, respawned automatically, not the
server.  The pool's per-job contract maps onto HTTP
(docs/serving.md): :class:`DeadlineExceeded` answers ``503`` (exact
``/diameter`` degrades to the 2-vs-4 approximation instead), a job
whose crash retries ran out or whose run raised is
:class:`ComputeFailed` (``500``), and :class:`PoolSaturated` sheds
with ``429 Retry-After``.

This module adds only what is serve-specific: the worker-side graph
cache, chaos stamping, the ``serve_pool_job`` span, and the typed
:meth:`Supervisor.rows` / :meth:`Supervisor.full` /
:meth:`Supervisor.approx_diameter` calls whose results are merged into
the service's cache here, in the server process.

Chaos injection — the serving twin of the harness's hostile ``chaos``
protocol — is built in for tests and the ``repro serve-chaos``
harness: a chaos plan makes the first N matching jobs hang, crash or
error *inside the worker* (routed through ``protocols.run("chaos")``
so the failure modes are exactly the campaign harness's).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional

from .. import obs, protocols
from ..graphs.specs import parse_graph
from ..harness.pool import (  # the pool's errors are serve's too
    DEFAULT_QUEUE_DEPTH,
    HEARTBEAT_S,
    ComputeFailed,
    DeadlineExceeded,
    Pool,
    PoolError,
    PoolSaturated,
)
from .matrix import QueryFamily
from .service import DistanceService, full_job, rows_job, run_job

#: Default worker-process count (``repro serve --workers``).
DEFAULT_WORKERS = 2

#: Default per-job wall-clock budget from submission to result.
DEFAULT_DEADLINE_S = 30.0

#: Crash retries per job (a killed worker requeues its batch this
#: many times before the job fails).
DEFAULT_RETRIES = 1

#: Base backoff before a crash-requeued job re-enters the queue.
DEFAULT_BACKOFF_S = 0.05

#: Pool-level failures, under serve's name.
SupervisorError = PoolError


class _ServeJob:
    """The pool's job function: chaos inject (if any), then ``run_job``.

    Every worker process holds its own copy, so each keeps a private
    graph cache and repeated families skip parsing.
    """

    def __init__(self) -> None:
        self.graphs: Dict[str, Any] = {}

    def __call__(
        self, job: Mapping[str, Any], attempt: int
    ) -> Dict[str, Any]:
        spec = job["family"]["graph"]
        graph = self.graphs.get(spec)
        if graph is None:
            graph = self.graphs[spec] = parse_graph(spec)
        inject = job.get("inject")
        if inject and attempt < inject.get("attempts", math.inf):
            protocols.run(
                "chaos", graph,
                {"mode": inject["mode"], "seconds": inject["seconds"]},
            )
        return run_job(job, graph)


class ChaosPlan:
    """Deterministic hostility applied to submitted jobs (tests only).

    ``spec`` keys: ``mode`` (``hang`` | ``crash`` | ``error``),
    ``seconds`` (hang duration), ``kinds`` (job kinds to target,
    default all), ``jobs`` (how many matching jobs to poison, default
    unbounded), ``attempts`` (poison only attempts below this per job,
    default all — ``1`` makes the first attempt fail and the crash
    retry succeed).
    """

    def __init__(self, spec: Mapping[str, Any]) -> None:
        self.mode = spec.get("mode", "error")
        self.seconds = float(spec.get("seconds", 3600.0))
        self.kinds = set(spec.get("kinds") or ())
        self.jobs_budget = spec.get("jobs")
        self.attempts = spec.get("attempts")
        self.poisoned = 0

    def stamp(self, payload: Dict[str, Any]) -> None:
        """Attach an ``inject`` block to ``payload`` if the plan says so."""
        if self.kinds and payload["kind"] not in self.kinds:
            return
        if self.jobs_budget is not None and self.poisoned >= self.jobs_budget:
            return
        self.poisoned += 1
        inject = {"mode": self.mode, "seconds": self.seconds}
        if self.attempts is not None:
            inject["attempts"] = int(self.attempts)
        payload["inject"] = inject


class Supervisor(Pool):
    """The serve compute pool: typed compute calls over :class:`Pool`.

    Construct, ``await start()``, then call :meth:`rows`,
    :meth:`full` or :meth:`approx_diameter`; ``await drain()`` then
    ``await close()`` on shutdown.  All public methods must be called
    from the owning event loop.
    """

    def __init__(
        self,
        service: DistanceService,
        *,
        workers: int = DEFAULT_WORKERS,
        deadline_s: Optional[float] = DEFAULT_DEADLINE_S,
        retries: int = DEFAULT_RETRIES,
        backoff_s: float = DEFAULT_BACKOFF_S,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        chaos: Optional[Mapping[str, Any]] = None,
        heartbeat_s: float = HEARTBEAT_S,
    ) -> None:
        super().__init__(
            _ServeJob(),
            workers=workers,
            deadline_s=deadline_s,
            retries=retries,
            backoff_s=backoff_s,
            queue_depth=queue_depth,
            heartbeat_s=heartbeat_s,
        )
        self.service = service
        self.chaos = ChaosPlan(chaos) if chaos else None

    async def submit(
        self,
        payload: Dict[str, Any],
        *,
        deadline_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Queue one job and await its result dict.

        Raises :class:`PoolSaturated` (queue full),
        :class:`DeadlineExceeded` (wall-clock budget spent) or
        :class:`ComputeFailed` (worker crash budget spent, or a
        deterministic in-job exception).
        """
        # Admit first, so a shed job never spends the chaos budget.
        self._admit()
        if self.chaos is not None:
            payload = dict(payload)
            self.chaos.stamp(payload)
        tracer = obs.active()
        if tracer is None:
            return await self._run(payload, deadline_s)
        span_id = tracer.span_begin(
            "serve_pool_job", round_no=0, kind=payload["kind"],
            graph=payload["family"]["graph"],
        )
        rounds = 0
        try:
            result = await self._run(payload, deadline_s)
            rounds = result.get("rounds", 0)
            return result
        finally:
            tracer.span_end(span_id, round_no=0, rounds=rounds)

    async def rows(self, family: QueryFamily, sources: List[int]) -> None:
        """Batched row computation in the pool; merges into the cache."""
        job = rows_job(family, sources)
        self.service.merge(family, job, await self.submit(job))

    async def full(self, family: QueryFamily) -> None:
        """Full-matrix computation in the pool; memoizes the result."""
        job = full_job(family)
        self.service.merge(family, job, await self.submit(job))

    async def approx_diameter(self, family: QueryFamily) -> int:
        """The 2-vs-4 classification (Algorithm 3) — the degraded path.

        Õ(√n) rounds instead of O(n), so it fits deadlines an exact
        run misses.  The verdict is exact on the paper's promise
        graphs (diameter ∈ {2, 4}); in general ``2`` certifies
        diameter ≤ 2 and ``4`` certifies diameter ≥ 3.
        """
        result = await self.submit({
            "kind": "approx-diameter",
            "family": family.payload(),
        })
        self.service.stats.observe_protocol_run()
        return result["diameter"]


def retry_after_header(seconds: float) -> str:
    """``Retry-After`` wants integral seconds; round up, floor at 1."""
    return str(max(1, int(math.ceil(seconds))))
