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
from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro import protocols  # noqa: E402
from repro.graphs.specs import parse_graph  # noqa: E402


def _canonical(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical(dataclasses.asdict(value))
    if isinstance(value, Mapping):
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
#: cycles, grids, a tree, and a few ER and diameter-2/4 instances; the
#: 70-node one spans two of the BFS kernel's 64-source words.
FIXED_SPECS = [
    "path:1", "path:2", "path:5", "cycle:6", "cycle:7", "star:8",
    "complete:5", "grid:4x5", "torus:4x6", "tree:2:3",
    "er:20:p=0.2:seed=5", "er:24:p=0.15:seed=2", "er:32:p=0.15:seed=1",
    "er:70:p=0.08:seed=1", "diameter2:16", "diameter4:16",
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


#: The paper's adversarial families on both promise sides: the Theorem
#: 6/8 gadget (diameter 2 iff the sets are disjoint, at p = 8 and 16)
#: and the Theorem 2 gap-2 family (diameter 2·ell + 3 or + 5), beside
#: the extremes of D at a few hundred nodes.
ADVERSARIAL = [
    *(f"2v3:{p}:{side}" for p in (8, 16)
      for side in ("intersecting", "disjoint")),
    *(f"gap2:{p}:{ell}:{side}" for p, ell in ((8, 2), (16, 4), (32, 8))
      for side in ("intersecting", "disjoint")),
    "path:300", "star:400",
]


def _adversarial_graph(case):
    from repro.graphs import (
        diameter_2_vs_3,
        diameter_gap2_family,
        random_disjointness_instance,
        random_membership_instance,
    )

    family, *args = case.split(":")
    intersecting = args[-1] == "intersecting"
    if family == "2v3":
        p = int(args[0])
        x, y = random_disjointness_instance(
            p, intersecting=intersecting, seed=p)
        return diameter_2_vs_3(p, x, y).graph
    if family == "gap2":
        p, ell = int(args[0]), int(args[1])
        xs, ys = random_membership_instance(
            p, intersecting=intersecting, seed=p)
        return diameter_gap2_family(p, ell, xs, ys).graph
    return parse_graph(case)


@pytest.mark.parametrize("case", ADVERSARIAL)
def test_entry_points_agree_on_adversarial_families(case):
    from repro import core, vector

    # Plain equality (the result dataclasses compare field by field):
    # _canonical's deep copies would add ~40% at n = 300-400.
    graph = _adversarial_graph(case)
    for name in ("run_apsp", "run_graph_properties", "run_exact_girth"):
        obj = getattr(core, name)(graph)
        vec = getattr(vector, name)(graph)
        assert _parts(vec) == _parts(obj), (
            f"{name}: backends diverged on {case}"
        )


def test_node_blocks_do_not_change_the_run(monkeypatch):
    # Algorithm 1's sweep goes over rows of D in node blocks sized by
    # _CHUNK_ENTRIES.  Cut er:70 into many blocks, single nodes among
    # them: results and metrics must not move.
    from repro import core, vector
    from repro.vector import _engine

    graph = parse_graph("er:70:p=0.08:seed=1")
    calls = [
        ("run_apsp", {"collect_girth": True, "track_edges": True}),
        ("run_graph_properties", {"track_edges": True}),
    ]
    # Canonical before the patch: it reads the lazily built parents,
    # which must come from the default block size.
    default = [_canonical(_parts(getattr(vector, name)(graph, **kwargs)))
               for name, kwargs in calls]
    monkeypatch.setattr(_engine, "_CHUNK_ENTRIES", 16 * graph.n)
    blocks = [nodes.size for nodes, _ in
              _engine._node_blocks(_engine._Csr(graph), graph.n)]
    assert len(blocks) > 20 and min(blocks) == 1 and max(blocks) > 1
    for (name, kwargs), before in zip(calls, default):
        small = _canonical(_parts(getattr(vector, name)(graph, **kwargs)))
        obj = _canonical(_parts(getattr(core, name)(graph, **kwargs)))
        assert small == before, name
        assert small == obj, name


#: Overflow probes: graphs and budgets at which Algorithm 1 exceeds B.
OVERFLOW_SPECS = [
    "er:40:p=0.15:seed=3", "torus:6x6", "path:20", "er:128:p=0.06:seed=1",
]


def _raised(call):
    with pytest.raises(Exception) as info:
        call()
    return info.value


@pytest.mark.parametrize("bandwidth", [8, 16, 24])
@pytest.mark.parametrize("spec", OVERFLOW_SPECS)
def test_overflow_names_the_same_witness(spec, bandwidth):
    # Both engines stop at the first round with an edge over budget and
    # name its smallest such edge with that edge-round's total bits.
    from repro import core, vector
    from repro.congest.errors import BandwidthExceededError

    graph = parse_graph(spec)
    errors = [
        _raised(lambda: engine.run_apsp(graph, bandwidth_bits=bandwidth))
        for engine in (core, vector)
    ]
    assert all(type(e) is BandwidthExceededError for e in errors)
    obj, vec = [
        (e.sender, e.receiver, e.round_no, e.used_bits, e.budget_bits)
        for e in errors
    ]
    assert vec == obj


def test_disconnected_input_rejected_identically():
    from repro import core, vector
    from repro.graphs import Graph

    graph = Graph.from_edges([(1, 2), (3, 4)])
    for name, args in [("run_bfs", ()), ("run_apsp", ()),
                       ("run_ssp", ([1],)), ("run_graph_properties", ()),
                       ("run_exact_girth", ())]:
        obj, vec = [
            _raised(lambda: getattr(engine, name)(graph, *args))
            for engine in (core, vector)
        ]
        assert (type(vec), str(vec)) == (type(obj), str(obj)), name
