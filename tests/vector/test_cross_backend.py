"""Property test: object and vector backends agree on random graphs.

The golden fixtures pin a handful of workloads byte-for-byte; this
module widens the net with hypothesis-generated topologies.  For every
sampled graph the two engines must produce *identical* result payloads
and *identical* full metrics dictionaries — not just the same
distances, but the same rounds, per-round message/bit series, and
per-edge congestion audits.  Any schedule drift in the vector engine
(an off-by-one in a closed-form send round, a missed coincidence)
shows up here as a counter diff long before it would corrupt a
distance.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro import protocols  # noqa: E402
from repro.graphs.specs import parse_graph  # noqa: E402


def _canonical(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(_canonical(v) for v in value)
    if isinstance(value, float) and value == float("inf"):
        return "inf"
    return value


def _both(algorithm, graph, params=None):
    params = dict(params or {})
    obj = protocols.run(algorithm, graph,
                        {**params, "backend": "object"})
    vec = protocols.run(algorithm, graph,
                        {**params, "backend": "vector"})
    assert vec.metrics.to_dict() == obj.metrics.to_dict(), (
        f"{algorithm}: metrics diverged between backends"
    )
    assert _canonical(vec.result) == _canonical(obj.result), (
        f"{algorithm}: results diverged between backends"
    )
    return obj


graph_specs = st.one_of(
    st.builds(
        "er:{}:p={}:seed={}".format,
        st.integers(min_value=5, max_value=24),
        st.sampled_from([0.15, 0.2, 0.3, 0.5]),
        st.integers(min_value=0, max_value=9),
    ),
    st.builds(
        "diameter2:{}:seed={}".format,
        st.integers(min_value=6, max_value=20),
        st.integers(min_value=0, max_value=5),
    ),
    st.builds(
        "diameter4:{}:seed={}".format,
        st.integers(min_value=9, max_value=20),
        st.integers(min_value=0, max_value=5),
    ),
)


@settings(max_examples=30, deadline=None)
@given(spec=graph_specs, girth=st.booleans())
def test_apsp_backends_agree(spec, girth):
    graph = parse_graph(spec)
    _both("apsp", graph, {"collect_girth": girth})


@settings(max_examples=15, deadline=None)
@given(spec=graph_specs)
def test_apsp_edge_tracking_agrees(spec):
    # ``track_edges`` is an entry-point flag (not a registry param):
    # the per-edge bit audit must match down to every (u, v) count.
    from repro import core, vector

    graph = parse_graph(spec)
    obj = core.run_apsp(graph, track_edges=True)
    vec = vector.run_apsp(graph, track_edges=True)
    assert vec.metrics.to_dict() == obj.metrics.to_dict()
    assert _canonical(vec.results) == _canonical(obj.results)


@settings(max_examples=20, deadline=None)
@given(spec=graph_specs, data=st.data())
def test_ssp_backends_agree(spec, data):
    graph = parse_graph(spec)
    nodes = sorted(graph.nodes)
    sources = data.draw(
        st.lists(st.sampled_from(nodes), min_size=1,
                 max_size=min(4, len(nodes)), unique=True)
    )
    _both("ssp", graph, {"sources": sources})


@settings(max_examples=15, deadline=None)
@given(spec=graph_specs, girth=st.booleans())
def test_properties_backends_agree(spec, girth):
    graph = parse_graph(spec)
    _both("properties", graph, {"include_girth": girth})


#: Fixed graphs beside the hypothesis strategy above: the extremes of D
#: (paths down to one node, a star, a complete graph), odd and even
#: cycles, grids, a tree, and a few ER and diameter-2/4 instances.
FIXED_SPECS = [
    "path:1", "path:2", "path:5", "cycle:6", "cycle:7", "star:8",
    "complete:5", "grid:4x5", "torus:4x6", "tree:2:3",
    "er:20:p=0.2:seed=5", "er:24:p=0.15:seed=2", "er:32:p=0.15:seed=1",
    "diameter2:16", "diameter4:16",
]


def _parts(outcome):
    """The results, metrics dict and sources of an entry point's return."""
    if isinstance(outcome, tuple):  # run_bfs returns (results, metrics)
        results, metrics = outcome
        return results, metrics.to_dict(), None
    return (outcome.results, outcome.metrics.to_dict(),
            getattr(outcome, "sources", None))


@pytest.mark.parametrize("spec", FIXED_SPECS)
def test_entry_points_agree_on_fixed_graphs(spec):
    # Every vector twin against its object entry point, with the flags
    # the registry does not expose (``track_edges``) and several S-SP
    # source sets.
    from repro import core, vector

    graph = parse_graph(spec)
    nodes = list(graph.nodes)
    calls = [("run_bfs", (), {}), ("run_exact_girth", (), {})]
    calls += [("run_apsp", (), {"collect_girth": girth, "track_edges": track})
              for girth in (False, True) for track in (False, True)]
    calls += [("run_graph_properties", (), {"include_girth": girth})
              for girth in (True, False)]
    calls += [("run_ssp", ([nodes[i] for i in ids],), {"track_edges": track})
              for ids in ([0], [0, 2, 3], [1, 4, 8]) if max(ids) < len(nodes)
              for track in (False, True)]
    for name, args, kwargs in calls:
        obj = getattr(core, name)(graph, *args, **kwargs)
        vec = getattr(vector, name)(graph, *args, **kwargs)
        assert _canonical(_parts(vec)) == _canonical(_parts(obj)), (
            f"{name}{args} {kwargs}: backends diverged on {spec}"
        )
