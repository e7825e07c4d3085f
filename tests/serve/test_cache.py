"""MatrixCache: LRU eviction and RunCache rehydration."""

from __future__ import annotations

import json
import tracemalloc

from repro.graphs import bfs_distances, path_graph
from repro.graphs.specs import parse_graph
from repro.harness.cache import RunCache
from repro.serve.cache import MatrixCache
from repro.serve.matrix import QueryFamily, rows_from_matrix_record


def _rows(n):
    graph = path_graph(n)
    return {u: bfs_distances(graph, u) for u in graph.nodes}


def test_store_rows_then_memory_hit():
    cache = MatrixCache()
    family = QueryFamily.make("path:6")
    cache.store_rows(family, 6, {2: _rows(6)[2]}, rounds=9)
    assert cache.load_row(family, 6, 2) == "memory"
    assert cache.load_row(family, 6, 3) is None
    assert cache.matrix(family, 6).rounds_spent == 9


def test_disk_rehydration_of_persisted_rows(tmp_path):
    run_cache = RunCache(tmp_path)
    family = QueryFamily.make("path:6")
    warm = MatrixCache(run_cache=run_cache)
    warm.store_rows(family, 6, {2: _rows(6)[2]}, rounds=9)
    # A fresh cache (fresh process) finds the row on disk.
    cold = MatrixCache(run_cache=run_cache)
    assert cold.load_row(family, 6, 2) == "disk"
    assert cold.load_row(family, 6, 2) == "memory"
    assert cold.matrix(family, 6).rows[2] == _rows(6)[2]
    assert cold.load_row(family, 6, 3) is None


def test_disk_rehydration_of_full_matrix(tmp_path):
    run_cache = RunCache(tmp_path)
    family = QueryFamily.make("path:5")
    warm = MatrixCache(run_cache=run_cache)
    warm.store_full(family, 5, _rows(5), rounds=12)
    cold = MatrixCache(run_cache=run_cache)
    # A row lookup is satisfied by the persisted full matrix...
    assert cold.load_row(family, 5, 4) == "disk"
    matrix = cold.matrix(family, 5)
    assert matrix.complete and matrix.rounds_spent == 12
    # ...and a second cache rehydrates it via the full-matrix path.
    colder = MatrixCache(run_cache=run_cache)
    assert colder.load_full(family, 5) == "disk"
    assert colder.load_full(family, 5) == "memory"


def test_lru_eviction_respects_byte_budget(tmp_path):
    run_cache = RunCache(tmp_path)
    probe = MatrixCache()
    probe.store_full(QueryFamily.make("probe"), 8, _rows(8), rounds=1)
    budget = probe.size_bytes + 1   # room for ~one matrix
    cache = MatrixCache(max_bytes=budget, run_cache=run_cache)
    families = [QueryFamily.make(f"path:8:seed={i}") for i in range(4)]
    for family in families:
        cache.store_full(family, 8, _rows(8), rounds=1)
    assert cache.evictions >= 3
    assert cache.size_bytes <= budget
    # The most recent family survived; an evicted one rehydrates
    # from disk instead of reporting a cold miss.
    assert cache.peek(families[-1]) is not None
    assert cache.load_full(families[0], 8) == "disk"


def test_touched_family_never_evicted():
    cache = MatrixCache(max_bytes=1)   # nothing fits
    family = QueryFamily.make("path:8")
    matrix = cache.store_full(family, 8, _rows(8), rounds=1)
    # Over budget, but the only (and just-touched) matrix stays.
    assert cache.peek(family) is matrix
    assert len(cache) == 1


def test_byte_budget_prices_rows_at_their_resident_size():
    # Ten complete 64-node matrices occupy about 1.4 MiB of dicts; a
    # row's JSON length would price them at about 275 KB.
    graph = parse_graph("er:64:p=0.1:seed=1")
    rows = {u: bfs_distances(graph, u) for u in graph.nodes}
    budget = 1 << 20
    cache = MatrixCache(max_bytes=budget)
    for seed in range(10):
        family = QueryFamily.make(f"er:64:p=0.1:seed={seed}")
        cache.store_full(family, 64, rows, rounds=1)
    assert cache.evictions > 0
    assert cache.size_bytes <= budget


def test_byte_budget_counts_node_ids_above_256():
    # Rows decoded from the disk tier's JSON (or a worker's pickle)
    # hold an int object of their own for every node id above 256; the
    # dicts alone are about 82% of what a 400-node matrix occupies.
    spec = "er:400:p=0.02:seed=1"
    graph = parse_graph(spec)
    record = json.loads(json.dumps({"distances": {
        str(u): {str(v): d for v, d in bfs_distances(graph, u).items()}
        for u in graph.nodes
    }}))
    cache = MatrixCache()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache.store_full(
            QueryFamily.make(spec), 400, rows_from_matrix_record(record),
            rounds=1,
        )
        resident = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 0.9 * resident <= cache.size_bytes <= 1.1 * resident
