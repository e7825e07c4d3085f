"""Batching correctness: coalesced S-SP vs. per-query runs.

The satellite contract: concurrent queries with distinct sources must
return **byte-identical** distances to per-query runs, and the batch
must record **strictly fewer** total rounds than the per-query sum for
``|S| >= 2`` — that is the ``|S| + D`` versus ``|S| * (D + O(1))``
economics of Theorem 3, measured on real runs rather than estimated.
"""

from __future__ import annotations

import asyncio

from repro.graphs import bfs_distances
from repro.graphs.specs import parse_graph
from repro.harness.hashing import canonical_json
from repro.serve import DistanceService, SourceBatcher, Supervisor

GRAPH = "er:24:p=0.15:seed=3"


async def pooled(service, body):
    """Await ``body(pool)`` against a started one-worker Supervisor."""
    pool = Supervisor(service, workers=1)
    await pool.start()
    try:
        return await body(pool)
    finally:
        await pool.close()


def batch_service(sources, *, tick_s=0.05, max_batch=64):
    """One service where ``sources`` arrived concurrently."""
    service = DistanceService()
    family = service.family_for(GRAPH)

    async def go(pool):
        batcher = SourceBatcher(
            pool.rows, pool.full, tick_s=tick_s, max_batch=max_batch
        )
        await asyncio.gather(
            *(batcher.row(family, source) for source in sources)
        )
        await batcher.drain()

    asyncio.run(pooled(service, go))
    return service, family


def singleton_services(sources):
    """One fresh service per source, each running its own S-SP."""
    out = []
    for source in sources:
        service = DistanceService()
        family = service.family_for(GRAPH)
        service.compute_rows(family, [source])
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
        batcher = SourceBatcher(pool.rows, pool.full, tick_s=0.02)
        results = await asyncio.gather(
            batcher.row(family, 1), batcher.row(family, 2),
            return_exceptions=True,
        )
        await batcher.drain()
        return results

    results = asyncio.run(pooled(service, go))
    assert len(results) == 2
    assert all(isinstance(r, Exception) for r in results)
