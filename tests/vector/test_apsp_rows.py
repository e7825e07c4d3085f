"""Vector APSP rows: read-only views that behave like the object dicts.

``repro.vector.run_apsp`` hands each node a view of its row of the
distance matrix ``D`` and of the parent-id matrix instead of two dicts.
On the fixed cross-backend graphs every view must answer like the
object engine's dict; at bench scale every row must equal a plain BFS,
and every parent the lowest-id neighbor one level closer.  Serve copies
the rows into plain dicts before its pool ships them.
"""

import pickle
from collections import Counter

import pytest

np = pytest.importorskip("numpy")

from repro import core, vector  # noqa: E402
from repro.graphs.analysis import bfs_distances  # noqa: E402
from repro.graphs.specs import parse_graph  # noqa: E402

from .test_cross_backend import FIXED_SPECS  # noqa: E402


def _assert_same_mapping(got, want, missing):
    assert got == want and want == got
    assert not got != want
    assert len(got) == len(want)
    assert all(key in got for key in want) and missing not in got
    assert got.get(missing) is None and got.get(missing, "-") == "-"
    with pytest.raises(KeyError):
        got[missing]
    assert got.keys() == want.keys()
    assert got.items() == want.items() and want.items() == got.items()
    assert Counter(got.values()) == Counter(want.values())
    assert dict(got.items()) == want
    # Python ints and None, not numpy scalars.
    assert [(got[key], type(got[key])) for key in want] == [
        (value, type(value)) for value in want.values()
    ]
    with pytest.raises(TypeError):
        hash(got)


@pytest.mark.parametrize("spec", FIXED_SPECS)
def test_rows_answer_like_the_object_engine_dicts(spec):
    graph = parse_graph(spec)
    want = core.run_apsp(graph)
    got = vector.run_apsp(graph)
    # Pickled before any parents row is read, and again after.
    lazy = pickle.loads(pickle.dumps(got))
    missing = max(graph.nodes) + 1
    for uid in graph.nodes:
        mine, theirs = got.results[uid], want.results[uid]
        _assert_same_mapping(mine.distances, theirs.distances, missing)
        _assert_same_mapping(mine.parents, theirs.parents, missing)
        assert [mine.next_hop(v) for v in graph.nodes] == [
            theirs.next_hop(v) for v in graph.nodes
        ]
    built = pickle.loads(pickle.dumps(got))
    for back in (lazy, built):
        assert back.results == want.results
        assert back.metrics.to_dict() == want.metrics.to_dict()


def test_rows_equal_bfs_at_bench_scale():
    graph = parse_graph("er:1024:p=0.01:seed=1")
    results = vector.run_apsp(graph).results
    for uid in graph.nodes:
        assert results[uid].distances == bfs_distances(graph, uid), uid


def _matrix(rows, ids, missing):
    """The rows as an ``n × n`` array in id order, ``missing`` for None."""
    out = np.full((len(ids), len(ids)), -2, dtype=np.int64)
    for i, uid in enumerate(ids):
        keys, values = zip(*rows[uid].items())
        out[i, np.searchsorted(ids, keys)] = [
            missing if value is None else value for value in values
        ]
    return out


def test_parents_are_the_lowest_closer_neighbor_at_bench_scale():
    graph = parse_graph("er:512:p=0.02:seed=1")
    ids = np.asarray(graph.nodes)
    results = vector.run_apsp(graph).results
    none = int(ids.max()) + 1
    parents = _matrix({u: r.parents for u, r in results.items()}, ids, none)
    dist = _matrix(
        {u: bfs_distances(graph, u) for u in graph.nodes}, ids, none
    )
    for i, uid in enumerate(graph.nodes):
        near = np.searchsorted(ids, graph.neighbors(uid))
        # Column v: the lowest neighbor id one level closer to v, and
        # none at v itself, where no neighbor is closer.
        expected = np.where(
            dist[near] == dist[i] - 1, ids[near][:, None], none
        ).min(axis=0)
        assert (parents[i] == expected).all(), uid


def test_serve_copies_vector_rows_into_dicts():
    # Serve's pool ships and caches plain dicts, never views.
    from repro.serve.service import BACKENDS

    graph = parse_graph("er:24:p=0.15:seed=2")
    rows = BACKENDS["apsp"].rows_of(vector.run_apsp(graph))
    assert {type(row) for row in rows.values()} == {dict}
    assert rows == {
        u: r.distances for u, r in core.run_apsp(graph).results.items()
    }
