"""Tests for the girth algorithms (Lemma 7 exact, Theorem 5 approx)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.girth import run_approx_girth, run_exact_girth
from repro.core.properties import GIRTH_INFINITE
from repro.graphs import (
    Graph,
    circulant_graph,
    cycle_graph,
    girth,
    grid_graph,
    lollipop_graph,
    path_graph,
    random_tree,
    torus_graph,
)
from tests.conftest import random_connected_graph, topology_zoo


@pytest.mark.parametrize("name,graph", topology_zoo())
def test_exact_girth_matches_oracle(name, graph):
    summary = run_exact_girth(graph)
    assert summary.girth == girth(graph)


class TestExactConventions:
    def test_forest_infinite(self):
        assert run_exact_girth(random_tree(14, seed=2)).girth == \
            GIRTH_INFINITE
        assert run_exact_girth(path_graph(9)).girth == GIRTH_INFINITE

    def test_triangle_found_in_big_graph(self):
        assert run_exact_girth(lollipop_graph(8, 10)).girth == 3

    def test_large_even_girth(self):
        assert run_exact_girth(cycle_graph(16)).girth == 16

    def test_results_marked_exact(self):
        summary = run_exact_girth(cycle_graph(5))
        assert all(r.exact for r in summary.results.values())


@pytest.mark.parametrize("name,graph", topology_zoo())
@pytest.mark.parametrize("epsilon", [0.5, 1.0])
def test_approx_girth_guarantee(name, graph, epsilon):
    """Theorem 5: g ≤ estimate ≤ (1+ε)·g (∞ stays ∞)."""
    summary = run_approx_girth(graph, epsilon)
    true_girth = girth(graph)
    if true_girth == GIRTH_INFINITE:
        assert summary.girth == GIRTH_INFINITE
    else:
        assert true_girth <= summary.girth <= (1 + epsilon) * true_girth


class TestApproxBehaviour:
    def test_phases_reported(self):
        summary = run_approx_girth(cycle_graph(20), 0.5)
        phases = {r.phases for r in summary.results.values()}
        assert len(phases) == 1
        assert phases.pop() >= 1

    def test_large_girth_avoids_exact_fallback(self):
        """On a big cycle, g ≈ n and a large-k phase certifies fast."""
        summary = run_approx_girth(cycle_graph(40), 1.0)
        assert not next(iter(summary.results.values())).exact
        assert summary.girth <= 2 * 40

    def test_tiny_girth_falls_back_to_exact(self):
        """A triangle in a deep graph forces the min{·, n} branch."""
        graph = lollipop_graph(4, 20)
        summary = run_approx_girth(graph, 0.25)
        assert summary.girth == 3

    def test_never_answers_below_the_girth_on_a_long_cycle(self):
        """A tree plus one chord: its only cycle has length 7.

        Algorithm 2 must never offer a source back to its new parent
        (Line 22): such an offer describes a walk through the parent
        itself, and once made the estimate 6 here.
        """
        graph = Graph.from_edges([
            (1, 2), (1, 3), (2, 6), (2, 10), (3, 4), (3, 7), (4, 5),
            (4, 9), (5, 8), (5, 11), (8, 10),
        ])
        assert girth(graph) == 7
        summary = run_approx_girth(graph, 3)
        assert 7 <= summary.girth <= (1 + 3) * 7

    def test_approx_girth_on_standard_families(self):
        for graph, expected in [
            (torus_graph(4, 8), 4),
            (grid_graph(5, 5), 4),
            (cycle_graph(12), 12),
        ]:
            assert girth(graph) == expected
            summary = run_approx_girth(graph, 0.5)
            assert expected <= summary.girth <= 1.5 * expected


@given(st.integers(min_value=3, max_value=16),
       st.integers(min_value=0, max_value=10**6))
def test_approx_girth_on_random_graphs(n, seed):
    graph = random_connected_graph(n, seed)
    true_girth = girth(graph)
    summary = run_approx_girth(graph, 1.0)
    if true_girth == GIRTH_INFINITE:
        assert summary.girth == GIRTH_INFINITE
    else:
        assert true_girth <= summary.girth <= 2 * true_girth
