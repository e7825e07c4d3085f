"""The generic supervised pool (repro.harness.pool) driven directly.

Serve's contract is pinned in tests/serve/test_supervisor.py and the
campaign's in tests/harness/test_hardening.py; these cover what only
the pool itself can show: closing never waits out a hung job, a
per-call deadline is named in its own failure, blame is exact — an
overdue job's worker dies alone — and ``idle`` hands a freed worker to
its waiters in order and misses no settlement.  The last two pin how
the campaign driver uses it: any ``jobs`` count is admitted, and a
retry that the failure limit has overtaken is skipped.
"""

from __future__ import annotations

import asyncio
import os
import time

import pytest

from repro.harness import Task, run_tasks
from repro.harness import pool as pool_module
from repro.harness.pool import DeadlineExceeded, Pool, PoolError


def nap(seconds: float, attempt: int) -> int:
    """Pool job: sleep, then report the worker's pid."""
    time.sleep(seconds)
    return os.getpid()


async def _with_pool(body, **kwargs):
    pool = Pool(nap, **kwargs)
    await pool.start()
    try:
        return await body(pool)
    finally:
        await pool.close()


def test_close_kills_a_hung_job_without_waiting_or_respawning():
    async def main():
        pool = Pool(nap, workers=1, deadline_s=5.0)
        await pool.start()
        hung = asyncio.ensure_future(pool.submit(60.0))
        await asyncio.sleep(0.2)  # the worker is now inside the job
        spawned = pool.spawned
        started = time.monotonic()
        await pool.close()
        elapsed = time.monotonic() - started
        with pytest.raises(PoolError, match="closed"):
            await hung
        return elapsed, spawned, pool.spawned, pool.live_workers()

    elapsed, before, after, alive = asyncio.run(main())
    assert elapsed < 2.0
    assert after == before
    assert alive == 0


def test_per_call_deadline_is_named_in_the_error():
    async def body(pool):
        with pytest.raises(DeadlineExceeded, match=r"its 0\.3s deadline"):
            await pool.submit(30.0, deadline_s=0.3)
        assert pool.snapshot()["deadline_misses"] == 1

    asyncio.run(_with_pool(body, workers=1, deadline_s=30.0))


def test_timeout_kills_only_the_overdue_worker():
    async def body(pool):
        before = set(pool.worker_pids())
        results = await asyncio.gather(
            pool.submit(30.0, deadline_s=0.3),
            pool.submit(0.6),
            return_exceptions=True,
        )
        assert isinstance(results[0], DeadlineExceeded)
        # The sibling ran its job to the end on its original worker.
        assert results[1] in before
        assert results[1] in pool.worker_pids()
        snap = pool.snapshot()
        assert snap["respawns"] == 1
        assert snap["completed"] == 1

    asyncio.run(_with_pool(body, workers=2))


def test_idle_waits_for_a_free_worker_and_wakes_in_order():
    async def body(pool):
        assert await pool.idle(0.0)             # the worker is free
        busy = asyncio.ensure_future(pool.submit(0.3))
        await asyncio.sleep(0)                  # the job is accepted
        assert not await pool.idle(0.05)        # every worker is busy
        woke = []

        async def waiter(name, submit):
            assert await pool.idle(30.0)
            woke.append(name)
            if submit:
                await pool.submit(0.3)

        first = asyncio.ensure_future(waiter("first", True))
        second = asyncio.ensure_future(waiter("second", False))
        await busy
        await asyncio.sleep(0.1)
        # Both woke when the job settled; the first took the worker,
        # and the second re-checked and waits for that job in turn.
        assert woke == ["first"]
        await asyncio.wait_for(asyncio.gather(first, second), 30.0)
        assert woke == ["first", "second"]

    asyncio.run(_with_pool(body, workers=1))


def test_idle_wakes_on_a_settlement_in_the_next_turn():
    # The check and the wait happen in one step: a job that settles in
    # the turn after idle() checked must still wake it at once.
    async def body(pool):
        loop = asyncio.get_running_loop()
        job = pool_module._Job(None, loop.create_future(), None)
        pool._jobs.add(job)                     # the only worker is taken
        waiter = asyncio.ensure_future(pool.idle(5.0))
        await asyncio.sleep(0)                  # idle() checks: busy
        pool._finish(job, result=None)
        for _ in range(5):
            await asyncio.sleep(0)
        assert waiter.done() and waiter.result() is True

    asyncio.run(_with_pool(body, workers=1))


class _ShallowPool(Pool):
    """A pool whose default admission cap is two pending jobs."""

    def __init__(self, fn, **kwargs):
        kwargs.setdefault("queue_depth", 2)
        super().__init__(fn, **kwargs)


def test_campaign_lanes_beyond_the_default_queue_depth_are_admitted(
    monkeypatch,
):
    # run_tasks imports the pool lazily, so the patch takes effect.
    monkeypatch.setattr(pool_module, "Pool", _ShallowPool)
    tasks = [Task.make("path:6", "apsp", {"seed": s}) for s in range(6)]
    summary = run_tasks(tasks, jobs=4)
    assert len(summary.records) == 6
    assert summary.failures == 0
    assert [r["task"] for r in summary.records] == [
        t.payload() for t in tasks
    ]


def test_campaign_retry_overtaken_by_the_failure_limit_is_skipped():
    summary = run_tasks(
        [
            Task.make("path:4", "chaos", {"mode": "error"}),
            Task.make("path:4", "chaos", {"mode": "hang", "seconds": 60}),
        ],
        jobs=2, timeout_s=0.5, retries=3, backoff_s=0.0, max_failures=1,
    )
    types = [r["error"]["type"] for r in summary.records]
    assert types == ["TaskError", "Skipped"]
    assert summary.failures == 1
    # One timeout, then the limit stops the rest of the retry budget.
    assert summary.skipped == 1
    assert summary.retried == 1
