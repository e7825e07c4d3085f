"""Tests for the weighted-graph extension (subdivision reduction)."""

import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.congest.errors import GraphError
from repro.graphs import Graph, path_graph
from repro.graphs.weighted import (
    WeightedGraph,
    expand,
    from_edge_weights,
    oracle_weighted_distances,
    run_weighted_apsp,
)
from tests.conftest import random_connected_graph


def random_weighted(n: int, seed: int, max_w: int = 4) -> WeightedGraph:
    base = random_connected_graph(n, seed)
    rng = random.Random(seed)
    weights = {edge: rng.randint(1, max_w) for edge in base.edges}
    return WeightedGraph(base, weights)


class TestConstruction:
    def test_from_edge_weights(self):
        wg = from_edge_weights([1, 2, 3], [(1, 2, 5), (2, 3, 1)])
        assert wg.weight(1, 2) == 5
        assert wg.weight(3, 2) == 1
        assert wg.max_weight == 5

    def test_missing_weight_rejected(self):
        with pytest.raises(GraphError):
            WeightedGraph(path_graph(3), {(1, 2): 1})

    def test_unknown_edge_rejected(self):
        with pytest.raises(GraphError):
            WeightedGraph(path_graph(2), {(1, 2): 1, (1, 3): 2})

    def test_non_positive_weight_rejected(self):
        with pytest.raises(GraphError):
            WeightedGraph(path_graph(2), {(1, 2): 0})


class TestExpansion:
    def test_unit_weights_expand_to_same_graph(self):
        base = path_graph(4)
        wg = WeightedGraph(base, {e: 1 for e in base.edges})
        assert expand(wg).unit_graph == base

    def test_edge_counts(self):
        wg = from_edge_weights([1, 2, 3], [(1, 2, 3), (2, 3, 2)])
        expansion = expand(wg)
        assert expansion.unit_graph.m == 5
        assert expansion.unit_graph.n == 3 + 2 + 1
        assert set(expansion.relay_of.values()) <= {(1, 2), (2, 3)}

    def test_distances_preserved(self):
        wg = random_weighted(10, seed=3)
        expansion = expand(wg)
        oracle = oracle_weighted_distances(wg)
        from repro.graphs import bfs_distances

        for u in wg.graph.nodes:
            hops = bfs_distances(expansion.unit_graph, u)
            for v in wg.graph.nodes:
                assert hops[v] == oracle[u][v]


class TestWeightedApsp:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dijkstra_oracle(self, seed):
        wg = random_weighted(9, seed=seed)
        summary = run_weighted_apsp(wg)
        assert summary.distances == oracle_weighted_distances(wg)
        assert summary.rounds > 0

    def test_matches_networkx(self):
        wg = random_weighted(8, seed=7)
        distances = run_weighted_apsp(wg).distances
        nxg = nx.Graph()
        for (u, v), w in wg.weights.items():
            nxg.add_edge(u, v, weight=w)
        want = dict(nx.all_pairs_dijkstra_path_length(nxg))
        assert {u: dict(d) for u, d in distances.items()} == \
            {u: dict(d) for u, d in want.items()}

    def test_rounds_grow_with_weights(self):
        base = path_graph(8)
        light = WeightedGraph(base, {e: 1 for e in base.edges})
        heavy = WeightedGraph(base, {e: 4 for e in base.edges})
        light_rounds = run_weighted_apsp(light).rounds
        heavy_rounds = run_weighted_apsp(heavy).rounds
        assert heavy_rounds > light_rounds


@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=10**4))
def test_weighted_apsp_property(n, seed):
    wg = random_weighted(n, seed=seed, max_w=3)
    distances = run_weighted_apsp(wg).distances
    assert distances == oracle_weighted_distances(wg)
