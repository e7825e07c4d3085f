"""Campaign orchestration: expand → cache-check → shard → record.

The driver turns a sweep spec into tasks, serves whatever it can from
the content-addressed :class:`~repro.harness.cache.RunCache`, shards
the remaining tasks across worker processes, and emits records **in
task order** — the output is deterministic regardless of worker count
or completion interleaving.  Per-task seeding is deterministic too:
the simulator seed is part of the task itself, never derived from
worker identity or scheduling.

Parallel runs go through the supervised worker pool
(:mod:`repro.harness.pool`, shared with ``repro serve``), which gives
every worker its own pipe, so blame is exact.  Execution is hardened
against hostile tasks (docs/harness.md):

* a per-task wall-clock **timeout** kills the overdue task's worker
  (only that one; it is respawned) and records a ``Timeout`` error
  instead of hanging the campaign;
* a worker process dying (segfault, ``os._exit``, OOM-kill) costs
  exactly the task it was running, recorded as ``WorkerCrashed`` —
  never its siblings, never the whole run;
* **transient** failures (timeouts, worker death) share one retry
  budget per task: up to ``retries`` reruns with exponential backoff;
  deterministic in-task exceptions are *not* retried — rerunning them
  cannot help;
* ``max_failures`` / ``fail_fast`` stop scheduling new tasks and
  retries once the failure budget is spent; unscheduled tasks get
  ``Skipped`` records.

Every record carries the task's content ``key`` plus a ``timing`` block
(``elapsed_s``, ``cache_hit``) which is the *only* non-deterministic
part; :func:`repro.harness.store.strip_timing` removes it for
comparisons.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .cache import RunCache
from .progress import ProgressReporter
from .runner import execute_task
from .spec import CampaignSpec, Task
from .store import ResultStore

#: Error records keep at most this much traceback text (the tail).
_TRACEBACK_CHARS = 4000


@dataclass
class CampaignSummary:
    """Outcome of one campaign invocation."""

    name: str
    records: List[Dict[str, Any]] = field(default_factory=list)
    cache_hits: int = 0
    executed: int = 0
    failures: int = 0
    retried: int = 0
    skipped: int = 0
    elapsed_s: float = 0.0

    @property
    def total(self) -> int:
        """How many tasks the campaign covered."""
        return len(self.records)

    @property
    def hit_rate(self) -> float:
        """Fraction of tasks served from the run cache."""
        return self.cache_hits / self.total if self.total else 0.0

    def describe(self) -> str:
        """One-line human summary (the CLI's closing line)."""
        parts = [
            f"campaign '{self.name}': {self.total} tasks",
            f"{self.cache_hits} from cache ({self.hit_rate:.0%})",
            f"{self.executed} executed",
        ]
        if self.retried:
            parts.append(f"{self.retried} retried")
        if self.failures:
            parts.append(f"{self.failures} FAILED")
        if self.skipped:
            parts.append(f"{self.skipped} skipped")
        parts.append(f"{self.elapsed_s:.2f}s")
        return " · ".join(parts)


def _finalize(
    record: Dict[str, Any],
    key: str,
    *,
    elapsed_s: float,
    cache_hit: bool,
) -> Dict[str, Any]:
    """Attach the content key and the (non-deterministic) timing block."""
    out = dict(record)
    out["key"] = key
    out["timing"] = {
        "elapsed_s": round(elapsed_s, 6),
        "cache_hit": cache_hit,
    }
    return out


def _truncated_traceback() -> str:
    """The current exception's traceback, truncated to the tail.

    The tail keeps the innermost frames — the ones that say where the
    task actually blew up — while bounding record size.
    """
    text = traceback.format_exc().strip()
    if len(text) > _TRACEBACK_CHARS:
        text = "... (truncated)\n" + text[-_TRACEBACK_CHARS:]
    return text


def _execute_indexed(
    job: Tuple[int, Task], attempt: int = 0,
) -> Tuple[int, Optional[Dict[str, Any]], Optional[Dict[str, str]], float]:
    """Worker entry point: run one task, never raise.

    ``attempt`` is the pool's job-attempt counter; tasks ignore it
    (:func:`run_tasks` drives their retries).

    Returns ``(index, record, error, elapsed_s)`` with exactly one of
    ``record``/``error`` set, so a bad task fails its own record instead
    of poisoning the pool.  Errors carry the (truncated) traceback so a
    failed campaign is debuggable from its JSONL store alone.
    """
    index, task = job
    started = time.perf_counter()
    try:
        record = execute_task(task)
    except Exception as exc:  # noqa: BLE001 — reported per-task
        error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": _truncated_traceback(),
        }
        return index, None, error, time.perf_counter() - started
    return index, record, None, time.perf_counter() - started


def run_tasks(
    tasks: Sequence[Task],
    *,
    jobs: int = 1,
    cache: Optional[RunCache] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    salt: str = "",
    name: str = "campaign",
    progress: Optional[ProgressReporter] = None,
    store: Optional[ResultStore] = None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.5,
    max_failures: Optional[int] = None,
    fail_fast: bool = False,
) -> CampaignSummary:
    """Execute ``tasks``, reusing cached runs; records come back in order.

    ``cache`` (or ``cache_dir``) enables the content-addressed run
    cache; ``use_cache=False`` forces recomputation while still
    *writing* fresh entries, so a once-suspect cache heals itself.
    ``store`` receives every record (in task order) when given.

    Hardening knobs (see the module docstring): ``timeout_s`` bounds
    each task's wall clock (forces pool execution even with one
    worker, so the overdue worker can be killed); ``retries`` reruns
    transient failures with ``backoff_s * 2**attempt`` pauses;
    ``max_failures`` / ``fail_fast`` cap how many failures the
    campaign tolerates before skipping the rest.
    """
    started = time.perf_counter()
    if cache is None and cache_dir is not None:
        cache = RunCache(cache_dir)
    summary = CampaignSummary(name=name)
    keys = [task.key(salt=salt) for task in tasks]
    slots: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
    pending: List[int] = []

    for index, (task, key) in enumerate(zip(tasks, keys)):
        cached = cache.get(key) if (cache and use_cache) else None
        if cached is not None and cached.get("task") == task.payload():
            slots[index] = _finalize(
                cached, key, elapsed_s=0.0, cache_hit=True
            )
            summary.cache_hits += 1
            if progress:
                progress.task_done(cache_hit=True)
        else:
            pending.append(index)

    def settle(index: int, record, error, elapsed: float) -> None:
        key = keys[index]
        if error is not None:
            slots[index] = _finalize(
                {"task": tasks[index].payload(), "error": error},
                key, elapsed_s=elapsed, cache_hit=False,
            )
            summary.failures += 1
        else:
            if cache is not None:
                cache.put(key, record)
            slots[index] = _finalize(
                record, key, elapsed_s=elapsed, cache_hit=False
            )
        summary.executed += 1
        if progress:
            progress.task_done(cache_hit=False, failed=error is not None)

    def skip(index: int) -> None:
        slots[index] = _finalize(
            {
                "task": tasks[index].payload(),
                "error": {
                    "type": "Skipped",
                    "message": "not run: campaign failure limit reached",
                },
            },
            keys[index], elapsed_s=0.0, cache_hit=False,
        )
        summary.skipped += 1
        if progress:
            progress.task_done(cache_hit=False)

    failure_limit = 1 if fail_fast else max_failures

    def limit_reached() -> bool:
        return failure_limit is not None and summary.failures >= failure_limit

    queue = deque(pending)
    # The in-process fast path cannot kill overdue tasks, survive a
    # crashing task, or retry a dead worker — any hardening knob (or
    # more than one worker) forces pool execution.
    if queue and (jobs > 1 or timeout_s is not None or retries > 0):
        # Imported here so that ``import repro`` stays asyncio-free.
        import asyncio

        from .pool import DeadlineExceeded, Pool, WorkerCrashed

        retries, backoff_s = max(0, retries), max(0.0, backoff_s)

        async def run_one(pool: Pool, index: int) -> None:
            # Timeout and WorkerCrashed draw on one retry budget; blame
            # is exact, so only this task's own failures count.  A retry
            # that the failure limit has overtaken is skipped, not run.
            for attempt in range(retries + 1):
                if attempt and limit_reached():
                    skip(index)
                    return
                try:
                    settle(*await pool.submit((index, tasks[index])))
                    return
                except DeadlineExceeded:
                    kind, elapsed = "Timeout", timeout_s
                    message = (
                        f"task exceeded the {timeout_s:g}s wall-clock limit"
                    )
                except WorkerCrashed:
                    kind, elapsed = "WorkerCrashed", 0.0
                    message = (
                        "the worker process running this task died "
                        "unexpectedly"
                    )
                if attempt < retries:
                    summary.retried += 1
                    await asyncio.sleep(backoff_s * 2 ** attempt)
            settle(
                index, None,
                {"type": kind, "message": message, "attempts": retries + 1},
                elapsed,
            )

        async def lane(pool: Pool) -> None:
            # One task at a time: a lane per worker keeps every
            # worker busy and never queues behind a hung task.
            while queue and not limit_reached():
                await run_one(pool, queue.popleft())

        async def drive() -> None:
            workers = min(max(1, jobs), len(queue))
            # Each lane has at most one job pending, so admission never
            # sheds, whatever ``jobs`` is.
            pool = Pool(
                _execute_indexed, workers=workers, deadline_s=timeout_s,
                queue_depth=workers,
            )
            await pool.start()
            try:
                await asyncio.gather(*(lane(pool) for _ in range(workers)))
            finally:
                await pool.close()

        asyncio.run(drive())
    else:
        while queue and not limit_reached():
            index = queue.popleft()
            settle(*_execute_indexed((index, tasks[index])))
    for index in queue:
        skip(index)

    summary.records = [slot for slot in slots if slot is not None]
    summary.elapsed_s = time.perf_counter() - started
    if progress:
        progress.close()
    if store is not None:
        store.extend(summary.records)
    return summary


def run_campaign(
    spec: "CampaignSpec | Dict[str, Any]",
    *,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    store_path=None,
    append: bool = False,
    show_progress: bool = False,
    progress_stream=None,
    timeout_s: Optional[float] = None,
    retries: int = 0,
    backoff_s: float = 0.5,
    max_failures: Optional[int] = None,
    fail_fast: bool = False,
) -> CampaignSummary:
    """Expand a sweep spec and run it end to end.

    When ``store_path`` is given the records land there as JSONL;
    unless ``append`` is set the store is truncated first so repeated
    invocations stay byte-comparable.  The hardening knobs
    (``timeout_s``, ``retries``, ``backoff_s``, ``max_failures``,
    ``fail_fast``) pass straight through to :func:`run_tasks`.
    """
    if not isinstance(spec, CampaignSpec):
        spec = CampaignSpec.from_dict(spec)
    tasks = spec.expand()
    store = None
    if store_path is not None:
        store = ResultStore(store_path)
        if not append:
            store.truncate()
    progress = None
    if show_progress:
        progress = ProgressReporter(
            len(tasks), label=spec.name, stream=progress_stream
        )
    return run_tasks(
        tasks,
        jobs=jobs,
        cache_dir=cache_dir,
        use_cache=use_cache,
        salt=spec.salt,
        name=spec.name,
        progress=progress,
        store=store,
        timeout_s=timeout_s,
        retries=retries,
        backoff_s=backoff_s,
        max_failures=max_failures,
        fail_fast=fail_fast,
    )
