"""E5 + E7 — girth: exact (Lemma 7) and (×,1+ε) (Theorem 5)."""

from __future__ import annotations

import random

from ..graphs import (
    Graph,
    cycle_graph,
    diameter,
    erdos_renyi_graph,
    girth,
    lollipop_graph,
    random_tree,
    torus_graph,
)
from ..protocols import run as run_protocol
from .base import ExperimentResult, experiment, fit_loglog_slope

SWEEPS = {"quick": [24, 48], "paper": [24, 48, 72, 96]}

#: E7's sparse family, as (n, chords, seed) of :func:`_tree_plus_chords`:
#: a few long cycles, run at eps 1 and 3.  On each of these, offering a
#: source back to its new parent (what Algorithm 2's Line 22 rules out)
#: made the estimate fall below the girth.
TREE_CHORDS = {
    "quick": [(20, 1, 1), (28, 1, 0)],
    "paper": [(20, 1, 1), (28, 1, 0), (28, 2, 1), (40, 1, 0)],
}


def _tree_plus_chords(n: int, chords: int, seed: int) -> Graph:
    """``random_tree(n, seed=seed)`` plus ``chords`` random extra edges."""
    rng = random.Random(seed)
    edges = set(random_tree(n, seed=seed).edges)
    while len(edges) < n - 1 + chords:
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), 2))))
    return Graph(range(1, n + 1), sorted(edges))


@experiment("e5")
def e5_exact_girth(scale: str) -> ExperimentResult:
    """E5: exact girth rounds grow linearly (Lemma 7)."""
    result = ExperimentResult(
        exp_id="e5",
        title="exact girth rounds vs n (Lemma 7 predicts linear)",
        headers=["family", "n", "girth", "rounds", "rounds/n"],
    )
    points = []
    for n in SWEEPS[scale]:
        for family, graph in [
            ("cycle", cycle_graph(n)),
            ("lollipop", lollipop_graph(6, n - 6)),
            ("torus", torus_graph(4, max(3, n // 4))),
        ]:
            summary = run_protocol("girth", graph).summary
            want = girth(graph)
            result.require("girth-exact", summary.girth == want)
            result.rows.append((
                family, graph.n, want, summary.rounds,
                f"{summary.rounds / graph.n:.2f}",
            ))
            if family == "torus":
                points.append((graph.n, summary.rounds))
    slope = fit_loglog_slope([p[0] for p in points],
                             [p[1] for p in points])
    result.require("slope-linear", 0.6 <= slope <= 1.4)
    result.notes.append(
        f"torus family: rounds ~ n^{slope:.2f} (Lemma 7 predicts 1.0); "
        "every estimate equals the oracle"
    )
    return result


@experiment("e7")
def e7_approx_girth(scale: str) -> ExperimentResult:
    """E7: Theorem 5 estimates stay within (1+eps)."""
    result = ExperimentResult(
        exp_id="e7",
        title="(x,1+eps) girth approximation vs exact (Thm 5)",
        headers=["family", "n", "D", "girth", "eps", "estimate", "phases",
                 "exact rounds", "approx rounds"],
    )
    instances = [
        ("cycle48", cycle_graph(48), [0.5]),
        ("torus4x20", torus_graph(4, 20), [0.5]),
        ("er-dense", erdos_renyi_graph(80, 0.2, seed=5,
                                       ensure_connected=True), [0.5]),
    ]
    if scale == "paper":
        instances.insert(1, ("cycle96", cycle_graph(96), [0.5]))
    instances += [
        (f"tree{n}+{chords}:seed={seed}",
         _tree_plus_chords(n, chords, seed), [1, 3])
        for n, chords, seed in TREE_CHORDS[scale]
    ]
    for family, graph, epsilons in instances:
        want = girth(graph)
        d = diameter(graph)
        exact = run_protocol("girth", graph).summary
        for eps in epsilons:
            approx = run_protocol(
                "girth-approx", graph, {"epsilon": eps}
            ).summary
            result.require("at-least-girth", approx.girth >= want)
            result.require("within-1+eps",
                           approx.girth <= (1 + eps) * want)
            phases = next(iter(approx.results.values())).phases
            result.rows.append((
                family, graph.n, d, want, eps,
                approx.girth, phases, exact.rounds, approx.rounds,
            ))
    result.notes.append(
        "estimates always within (1+eps); the approximation wins when "
        "g is large and falls back to exact when g is tiny — Thm 5's "
        "min{., n}"
    )
    return result
