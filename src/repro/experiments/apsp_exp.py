"""E1 + E16 — Theorem 1: APSP in Θ̃(n), congestion-free (Lemma 1).

Graph instances are described as spec strings (the same syntax as the
CLI and ``repro campaign``); E16 reruns E1's Erdős–Rényi column.
"""

from __future__ import annotations

from ..congest.network import default_bandwidth
from ..graphs.specs import parse_graph
from ..protocols import run as run_protocol
from .base import ExperimentResult, experiment, fit_loglog_slope

SWEEPS = {"quick": [20, 40], "paper": [30, 60, 90, 120]}


def family_specs(n: int):
    """The four topology families of the E1 sweep, as graph specs."""
    side = max(3, round(n ** 0.5))
    return {
        "path": f"path:{n}",
        "tree": f"tree:{n}:seed=7",
        "torus": f"torus:{side}x{max(3, n // side)}",
        "er(8/n)": _er_spec(n),
    }


def _er_spec(n: int) -> str:
    return f"er:{n}:p={min(1.0, 8.0 / n)!r}:seed=3"


@experiment("e1")
def e1_apsp_linear(scale: str) -> ExperimentResult:
    """E1: APSP rounds grow linearly in n (Theorem 1)."""
    result = ExperimentResult(
        exp_id="e1",
        title="APSP rounds vs n (Thm 1 predicts linear)",
        headers=["family", "n", "m", "rounds", "rounds/n"],
    )
    per_family = {}
    for n in SWEEPS[scale]:
        for family, spec in family_specs(n).items():
            graph = parse_graph(spec)
            rounds = run_protocol("apsp", graph).metrics.rounds
            per_family.setdefault(family, []).append((graph.n, rounds))
            result.rows.append((
                family, graph.n, graph.m, rounds,
                f"{rounds / graph.n:.2f}",
            ))
    for family, points in per_family.items():
        slope = fit_loglog_slope([n for n, _ in points],
                                 [r for _, r in points])
        result.notes.append(
            f"{family}: rounds ~ n^{slope:.2f} (Theorem 1 predicts 1.0)"
        )
        result.require(f"slope-linear[{family}]", 0.6 <= slope <= 1.4)
    return result


@experiment("e16")
def e16_congestion_free(scale: str) -> ExperimentResult:
    """E16: no edge ever exceeds B (Lemma 1)."""
    result = ExperimentResult(
        exp_id="e16",
        title="peak per-edge load under Algorithm 1 (Lemma 1)",
        headers=["n", "B (bits)", "max edge bits/round",
                 "max edge msgs/round"],
    )
    for n in SWEEPS[scale]:
        graph = parse_graph(_er_spec(n))
        metrics = run_protocol("apsp", graph).metrics
        budget = default_bandwidth(graph.n)
        result.rows.append((
            graph.n, budget,
            metrics.max_edge_bits_in_round,
            metrics.max_edge_messages_in_round,
        ))
        result.require(
            "within-budget", metrics.max_edge_bits_in_round <= budget
        )
    result.notes.append(
        "every run stays within B — the pebble schedule is "
        "congestion-free"
    )
    return result
