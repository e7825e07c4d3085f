"""The vector engine's kernels against plain-Python references.

``_bfs_depths`` packs 64 sources into each ``uint64`` word, so the
sizes below straddle one word (63, 64, 65 nodes or sources) and two
(130 nodes).  Every distance must equal
:func:`repro.graphs.analysis.bfs_distances`, and a node a source cannot
reach reads -1.  ``_bfs_parents`` must pick, for every node and column,
the lowest-id neighbor one level closer, and ``_check_lemma1`` must
reject a wave schedule in which a node stages two waves in one round.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.graphs import Graph  # noqa: E402
from repro.graphs.analysis import bfs_distances  # noqa: E402
from repro.graphs.specs import parse_graph  # noqa: E402
from repro.vector._engine import (  # noqa: E402
    _bfs_depths,
    _bfs_parents,
    _check_lemma1,
    _Csr,
    _pebble_schedule,
    _Tree,
)


def _reference(graph, sources):
    nodes = graph.nodes
    rows = []
    for s in sources:
        dist = bfs_distances(graph, nodes[s])
        rows.append([dist.get(v, -1) for v in nodes])
    return np.asarray(rows, dtype=np.int32).reshape(len(sources), len(nodes))


def _check(graph, sources):
    csr = _Csr(graph)
    got = _bfs_depths(csr, sources)
    assert got.dtype == np.int32
    assert got.shape == (len(sources), graph.n)
    assert np.array_equal(got, _reference(graph, sources))


@pytest.mark.parametrize("spec", [
    "path:1", "path:2", "er:63:p=0.05:seed=1", "er:64:p=0.08:seed=2",
    "path:64", "er:65:p=0.04:seed=3", "cycle:65", "er:130:p=0.03:seed=4",
])
def test_every_source(spec):
    graph = parse_graph(spec)
    _check(graph, list(range(graph.n)))


@pytest.mark.parametrize("count", [63, 64, 65])
def test_source_sets_around_one_word(count):
    graph = parse_graph("er:130:p=0.03:seed=4")
    sources = np.random.default_rng(count).permutation(graph.n)[:count]
    _check(graph, sources.tolist())


def test_unreachable_nodes_read_minus_one():
    graph = Graph(range(1, 7), [(1, 2), (3, 4), (4, 5)])  # node 6 isolated
    _check(graph, list(range(graph.n)))


def _reference_parents(graph, cols):
    nodes = graph.nodes
    index = {uid: i for i, uid in enumerate(nodes)}
    parents = np.full(cols.shape, len(nodes), dtype=np.int64)
    for u, uid in enumerate(nodes):
        for j in range(cols.shape[1]):
            closer = [index[w] for w in graph.neighbors(uid)
                      if cols[index[w], j] == cols[u, j] - 1]
            if closer:
                parents[u, j] = min(closer)
    return parents


@pytest.mark.parametrize("spec", [
    "path:1", "path:2", "er:65:p=0.04:seed=3", "cycle:65",
    "er:130:p=0.03:seed=4",
])
def test_bfs_parents_pick_the_lowest_closer_neighbor(spec):
    graph = parse_graph(spec)
    csr = _Csr(graph)
    distances = _bfs_depths(csr, list(range(graph.n)))
    root_column = distances[csr.root_idx][:, None]
    for cols in (root_column, distances):
        got = _bfs_parents(csr, cols)
        assert got.shape == cols.shape
        assert np.array_equal(got, _reference_parents(graph, cols))


def test_lemma1_check_rejects_a_node_staging_two_waves():
    graph = parse_graph("er:65:p=0.04:seed=3")
    csr = _Csr(graph)
    distances = _bfs_depths(csr, list(range(graph.n)))
    tree = _Tree(csr, distances[csr.root_idx])
    wave_round = _pebble_schedule(tree, tree.start_round)[0]
    _check_lemma1(wave_round + distances)
    # Start wave y one round before wave x, for an edge (x, y): node x
    # then stages both in round w(x).
    x, y = int(csr.src[0]), int(csr.indices[0])
    colliding = wave_round.copy()
    colliding[y] = wave_round[x] - 1
    with pytest.raises(AssertionError, match="Lemma 1"):
        _check_lemma1(colliding + distances)
