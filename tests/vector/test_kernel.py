"""The vector engine's one BFS kernel against a plain queue BFS.

``_bfs_depths`` packs 64 sources into each ``uint64`` word, so the
sizes below straddle one word (63, 64, 65 nodes or sources) and two
(130 nodes).  Every distance must equal
:func:`repro.graphs.analysis.bfs_distances`, and a node a source cannot
reach reads -1.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.graphs import Graph  # noqa: E402
from repro.graphs.analysis import bfs_distances  # noqa: E402
from repro.graphs.specs import parse_graph  # noqa: E402
from repro.vector._engine import _bfs_depths, _Csr  # noqa: E402


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
