"""Tests for the S-SP cycle-detection bookkeeping (Theorem 5's engine).

Soundness: every candidate is ≥ the true girth (candidates describe
real closed walks).  Completeness: with a k-dominating source set the
global minimum candidate is ≤ g + 2k + 2.  Both bounds are what the
girth approximation's stopping rule relies on.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.congest import Network
from repro.core.dominating import DominatingSetNode, compute_dominating_set
from repro.core.ssp import SspNode, ssp_main_loop
from repro.core.subroutines import build_bfs_tree
from repro.graphs import (
    circulant_graph,
    cycle_graph,
    girth,
    grid_graph,
    lollipop_graph,
    torus_graph,
)
from tests.conftest import random_connected_graph


class DetectingSspNode(SspNode):
    detect_cycles = True

    def program(self):
        in_s = bool(self.ctx.input_value)
        tree = yield from build_bfs_tree(self, 1,
                                         mark=1 if in_s else 0)
        size_s = tree.marked_count
        duration = size_s + tree.diameter_bound + 2
        outcome = yield from ssp_main_loop(
            self, in_s, size_s, duration, detect_cycles=True
        )
        return outcome.cycle_candidate


def candidates_for(graph, sources, seed=0):
    inputs = {u: (u in set(sources)) for u in graph.nodes}
    outcome = Network(graph, DetectingSspNode, inputs=inputs,
                      seed=seed).run()
    return [c for c in outcome.results.values() if c is not None]


class TestSoundness:
    @pytest.mark.parametrize("make,sources", [
        (lambda: cycle_graph(12), [1]),
        (lambda: cycle_graph(13), [1, 7]),
        (lambda: torus_graph(4, 6), [1, 10, 20]),
        (lambda: grid_graph(4, 5), [3]),
        (lambda: lollipop_graph(5, 6), [11]),
        (lambda: circulant_graph(18, [1, 5]), [2, 9]),
        # Girth 5; an offer of source 2 sent back to its new parent
        # once made node 6 record the walk length 4.
        (lambda: random_connected_graph(6, 525), [1, 2]),
    ])
    def test_candidates_never_below_girth(self, make, sources):
        graph = make()
        g = girth(graph)
        for candidate in candidates_for(graph, sources):
            assert candidate >= g

    @given(st.integers(min_value=4, max_value=16),
           st.integers(min_value=0, max_value=10**5))
    def test_soundness_on_random_graphs(self, n, seed):
        graph = random_connected_graph(n, seed)
        g = girth(graph)
        sources = list(graph.nodes)[: max(1, n // 3)]
        for candidate in candidates_for(graph, sources, seed=seed):
            assert candidate >= g


class DomDetectNode(DominatingSetNode):
    """k-dominating set, then DOM-SP with detection (one Thm 5 phase)."""

    def program(self):
        k = int(self.ctx.input_value)
        tree = yield from build_bfs_tree(self, 1)
        dom = yield from compute_dominating_set(self, tree, k)
        outcome = yield from ssp_main_loop(
            self, dom.in_dom, dom.size,
            dom.size + tree.diameter_bound + 2,
            detect_cycles=True,
        )
        return outcome.cycle_candidate


class TestCompleteness:
    @pytest.mark.parametrize("make,k", [
        (lambda: cycle_graph(20), 2),
        (lambda: cycle_graph(30), 3),
        (lambda: torus_graph(4, 8), 1),
        (lambda: grid_graph(5, 5), 2),
        (lambda: lollipop_graph(6, 10), 1),
    ])
    def test_min_candidate_within_g_plus_2k(self, make, k):
        graph = make()
        g = girth(graph)
        inputs = {u: k for u in graph.nodes}
        outcome = Network(graph, DomDetectNode, inputs=inputs).run()
        candidates = [c for c in outcome.results.values()
                      if c is not None]
        assert candidates, "a cyclic graph must yield candidates"
        assert g <= min(candidates) <= g + 2 * k + 2

    def test_forest_yields_no_candidates(self):
        from repro.graphs import random_tree

        graph = random_tree(20, seed=4)
        inputs = {u: 2 for u in graph.nodes}
        outcome = Network(graph, DomDetectNode, inputs=inputs).run()
        assert all(c is None for c in outcome.results.values())
