"""Batching correctness: coalesced S-SP vs. per-query runs.

The satellite contract: concurrent queries with distinct sources must
return **byte-identical** distances to per-query runs, and the batch
must record **strictly fewer** total rounds than the per-query sum for
``|S| >= 2`` — that is the ``|S| + D`` versus ``|S| * (D + O(1))``
economics of Theorem 3, measured on real runs rather than estimated.

The dispatch rule — an idle worker takes a miss at once, misses
coalesce only while every worker is busy — is pinned against a
:class:`StubPool` whose occupancy the test sets, counting event-loop
turns, never wall time.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.graphs import bfs_distances
from repro.graphs.specs import parse_graph
from repro.harness.hashing import canonical_json
from repro.serve import (
    DeadlineExceeded,
    DistanceService,
    QueryFamily,
    SourceBatcher,
    Supervisor,
)
from repro.serve.service import rows_job, run_job

GRAPH = "er:24:p=0.15:seed=3"


async def pooled(service, body):
    """Await ``body(pool)`` against a started one-worker Supervisor."""
    pool = Supervisor(service, workers=1)
    await pool.start()
    try:
        return await body(pool)
    finally:
        await pool.close()


def batch_service(sources, *, max_batch=64):
    """One service where ``sources`` arrived concurrently."""
    service = DistanceService()
    family = service.family_for(GRAPH)

    async def go(pool):
        batcher = SourceBatcher(
            pool.rows, pool.full, pool=pool, max_batch=max_batch
        )
        await asyncio.gather(
            *(batcher.row(family, source) for source in sources)
        )
        await batcher.drain()

    asyncio.run(pooled(service, go))
    return service, family


def singleton_services(sources):
    """One fresh service per source, each running its own S-SP."""
    graph = parse_graph(GRAPH)
    out = []
    for source in sources:
        service = DistanceService()
        family = service.family_for(GRAPH)
        job = rows_job(family, [source])
        service.merge(family, job, run_job(job, graph))
        out.append((service, family))
    return out


def test_concurrent_queries_byte_identical_to_per_query_runs():
    sources = [1, 4, 7, 13]
    batched, family = batch_service(sources)
    matrix = batched.cache.peek(family)
    graph = parse_graph(GRAPH)
    for (single, single_family), source in zip(
        singleton_services(sources), sources
    ):
        single_matrix = single.cache.peek(single_family)
        assert canonical_json(matrix.row_record(source)) == \
            canonical_json(single_matrix.row_record(source))
        # And both match the sequential BFS oracle.
        assert matrix.rows[source] == bfs_distances(graph, source)


def test_batch_spends_strictly_fewer_rounds_than_per_query_sum():
    sources = [2, 5, 9, 14, 20]
    batched, family = batch_service(sources)
    snap = batched.stats.snapshot()["batches"]
    assert snap["count"] == 1, "expected one coalesced run"
    assert snap["max_size"] == len(sources)
    per_query_rounds = sum(
        single.stats.snapshot()["batches"]["rounds"]
        for single, _ in singleton_services(sources)
    )
    assert snap["rounds"] < per_query_rounds
    # The /stats estimate is a lower bound on the measured saving's
    # direction: it must claim a saving too.
    assert snap["rounds_saved_estimate"] > 0


def test_eight_or_more_concurrent_sources_share_one_run():
    sources = list(range(1, 11))        # 10 distinct sources
    batched, family = batch_service(sources)
    snap = batched.stats.snapshot()
    assert snap["batches"]["count"] == 1
    assert snap["batches"]["max_size"] >= 8
    assert snap["protocol_runs"] == 1
    graph = parse_graph(GRAPH)
    matrix = batched.cache.peek(family)
    for source in sources:
        assert matrix.rows[source] == bfs_distances(graph, source)


def test_duplicate_sources_share_one_future():
    sources = [3, 3, 3, 8]
    batched, _family = batch_service(sources)
    snap = batched.stats.snapshot()["batches"]
    assert snap["count"] == 1
    assert snap["sources"] == 2          # deduplicated source set


def test_max_batch_splits_oversize_windows():
    sources = list(range(1, 9))
    batched, _family = batch_service(sources, max_batch=3)
    snap = batched.stats.snapshot()["batches"]
    assert snap["count"] == 3            # ceil(8 / 3)
    assert snap["max_size"] <= 3
    assert snap["sources"] == 8


def test_batch_failure_propagates_to_every_waiter():
    service = DistanceService()
    family = service.family_for("file:/missing/graph.txt")

    async def go(pool):
        batcher = SourceBatcher(pool.rows, pool.full, pool=pool)
        results = await asyncio.gather(
            batcher.row(family, 1), batcher.row(family, 2),
            return_exceptions=True,
        )
        await batcher.drain()
        return results

    results = asyncio.run(pooled(service, go))
    assert len(results) == 2
    assert all(isinstance(r, Exception) for r in results)


# -- the dispatch rule, against a pool the test controls ----------------


class StubPool:
    """A one-worker pool that never forks; the test sets its occupancy.

    ``busy`` counts occupied workers; the test may raise it to stand
    for other work.  Each run through :meth:`rows` is recorded and
    occupies the worker until the test calls :meth:`finish`.  A run
    whose family is in ``refuse`` raises at once instead, as a compute
    the server's failing-family rule refuses does.  :meth:`idle` polls
    once per event-loop turn and never times out.
    """

    workers = 1
    deadline_s = None

    def __init__(self):
        self.busy = 0
        self.runs = []
        self.refuse = set()
        self.running = []

    async def idle(self, timeout_s=None):
        while self.busy >= self.workers:
            await asyncio.sleep(0)
        return True

    async def rows(self, family, sources, deadline_s=None):
        if family in self.refuse:
            raise RuntimeError(f"{family.graph_spec} refused")
        self.runs.append((family.graph_spec, list(sources)))
        self.busy += 1
        done = asyncio.get_running_loop().create_future()
        self.running.append(done)
        try:
            await done
        finally:
            self.busy -= 1

    async def full(self, family):
        raise AssertionError("no full-matrix runs in these tests")

    def finish(self):
        """Complete the oldest running run."""
        self.running.pop(0).set_result(None)


FAMILY = QueryFamily.make("cycle:12")
OTHER = QueryFamily.make("cycle:10")


def run_bounded(main):
    """Run ``main()``, failing rather than hanging past 30 s."""
    return asyncio.run(asyncio.wait_for(main(), 30.0))


async def turns_until(condition, limit=50):
    """Event-loop turns taken until ``condition()`` holds (or ``limit``)."""
    for turn in range(limit):
        if condition():
            return turn
        await asyncio.sleep(0)
    return limit


def misses(batcher, family, sources):
    return [
        asyncio.ensure_future(batcher.row(family, source))
        for source in sources
    ]


async def finish_all(pool, waiting):
    """Complete runs as they start until every miss in ``waiting`` ends."""
    while not all(miss.done() for miss in waiting):
        if pool.running:
            pool.finish()
        await asyncio.sleep(0)
    return await asyncio.gather(*waiting, return_exceptions=True)


def test_idle_worker_takes_a_lone_miss_within_a_few_turns():
    async def main():
        pool = StubPool()
        batcher = SourceBatcher(pool.rows, pool.full, pool=pool)
        waiting = misses(batcher, FAMILY, [1])
        turns = await turns_until(lambda: pool.runs)
        await finish_all(pool, waiting)
        return turns, pool.runs

    turns, runs = run_bounded(main)
    assert turns <= 4
    assert runs == [("cycle:12", [1])]


def test_busy_pool_coalesces_misses_over_several_turns():
    async def main():
        pool = StubPool()
        batcher = SourceBatcher(pool.rows, pool.full, pool=pool)
        # Misses in one turn share a run, and the idle worker takes it.
        waiting = misses(batcher, FAMILY, [1, 2])
        await turns_until(lambda: pool.runs)
        # Every worker is busy: later misses wait in one window.
        for source in (3, 4, 5):
            waiting += misses(batcher, FAMILY, [source])
            await turns_until(lambda: False, limit=5)
        runs_while_busy = list(pool.runs)
        await finish_all(pool, waiting)
        return runs_while_busy, pool.runs

    runs_while_busy, runs = run_bounded(main)
    assert runs_while_busy == [("cycle:12", [1, 2])]
    assert runs == [("cycle:12", [1, 2]), ("cycle:12", [3, 4, 5])]


@pytest.mark.parametrize("refused", [False, True])
def test_freed_worker_goes_to_the_earlier_window(refused):
    async def main():
        pool = StubPool()
        pool.busy = 1                      # other work holds the worker
        if refused:
            pool.refuse.add(FAMILY)
        batcher = SourceBatcher(pool.rows, pool.full, pool=pool)
        waiting = misses(batcher, FAMILY, [1])
        await turns_until(lambda: False, limit=5)
        waiting += misses(batcher, OTHER, [1])
        await turns_until(lambda: False, limit=5)
        assert pool.runs == []
        pool.busy = 0                      # the worker frees
        await turns_until(lambda: pool.runs)
        runs_then = list(pool.runs)
        results = await finish_all(pool, waiting)
        return runs_then, pool.runs, results

    runs_then, runs, results = run_bounded(main)
    if refused:
        # The refused compute left the worker to the next window.
        assert runs_then == runs == [("cycle:10", [1])]
        assert isinstance(results[0], RuntimeError)
        assert results[1] is None
    else:
        assert runs_then == [("cycle:12", [1])]
        assert runs == [("cycle:12", [1]), ("cycle:10", [1])]
        assert results == [None, None]


def test_miss_for_a_running_source_joins_its_run():
    async def main():
        pool = StubPool()
        batcher = SourceBatcher(pool.rows, pool.full, pool=pool)
        waiting = misses(batcher, FAMILY, [1])
        while not pool.runs:               # source 1's run has started
            await asyncio.sleep(0)
        waiting += misses(batcher, FAMILY, [1])
        await finish_all(pool, waiting)
        return pool.runs

    assert run_bounded(main) == [("cycle:12", [1])]


def test_miss_for_a_source_in_a_full_window_joins_it():
    async def main():
        pool = StubPool()
        batcher = SourceBatcher(pool.rows, pool.full, pool=pool, max_batch=3)
        await finish_all(pool, misses(batcher, FAMILY, [1, 2, 3, 1]))
        return pool.runs

    assert run_bounded(main) == [("cycle:12", [1, 2, 3])]


def test_window_waiting_past_the_deadline_is_refused():
    """The wait for a worker counts against the pool's deadline."""
    service = DistanceService()
    family = service.family_for(GRAPH)
    runs = []

    async def run_rows(family, sources, deadline_s):
        runs.append(sources)

    async def main():
        pool = Supervisor(
            service, workers=1, deadline_s=0.2,
            chaos={"mode": "hang", "seconds": 30.0, "kinds": ["rows"]},
        )
        await pool.start()
        # A job with a longer budget of its own holds the only worker.
        blocker = asyncio.ensure_future(
            pool.submit(rows_job(family, [1]), deadline_s=30.0)
        )
        try:
            await asyncio.sleep(0)
            batcher = SourceBatcher(run_rows, pool.full, pool=pool)
            started = time.monotonic()
            with pytest.raises(DeadlineExceeded, match="waiting"):
                await batcher.row(family, 2)
            return time.monotonic() - started
        finally:
            await pool.close()
            await asyncio.gather(blocker, return_exceptions=True)

    elapsed = asyncio.run(main())
    assert 0.15 < elapsed < 2.0
    assert runs == []
