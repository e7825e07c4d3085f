"""E11 — Section 3.1: Algorithm 1 vs the classic routing strawmen."""

from __future__ import annotations

from ..graphs.specs import parse_graph
from ..protocols import run as run_protocol
from .base import ExperimentResult, experiment, fit_loglog_slope

PATH_SWEEPS = {"quick": [16, 40], "paper": [16, 32, 48, 64]}
DENSE_SWEEPS = {"quick": [20, 40], "paper": [20, 30, 40, 50]}


def _rounds(graph, name: str, **params) -> int:
    return run_protocol(name, graph, params).metrics.rounds


@experiment("e11a")
def e11a_paths(scale: str) -> ExperimentResult:
    """E11a: baselines vs Algorithm 1 on paths (D = n)."""
    result = ExperimentResult(
        exp_id="e11a",
        title="APSP rounds on paths, D = n (§3.1)",
        headers=["n", "Algorithm 1", "periodic DV", "delta DV",
                 "sequential BFS"],
    )
    series = {"algorithm1": [], "distance-vector": [],
              "sequential-bfs": []}
    for n in PATH_SWEEPS[scale]:
        graph = parse_graph(f"path:{n}")
        ours = _rounds(graph, "apsp")
        naive_dv, delta_dv, seq = (
            _rounds(graph, "baseline", variant=variant)
            for variant in ("distance-vector", "distance-vector-delta",
                            "sequential-bfs")
        )
        series["algorithm1"].append((n, ours))
        series["distance-vector"].append((n, naive_dv))
        series["sequential-bfs"].append((n, seq))
        result.rows.append((n, ours, naive_dv, delta_dv, seq))
    slopes = {
        name: fit_loglog_slope([p[0] for p in pts],
                               [p[1] for p in pts])
        for name, pts in series.items()
    }
    result.require("algorithm1-linear", slopes["algorithm1"] <= 1.3)
    result.require("sequential-quadratic",
                   slopes["sequential-bfs"] >= 1.6)
    result.require("periodic-dv-superlinear",
                   slopes["distance-vector"] >= 1.3)
    result.notes.append(
        f"log-log slopes: Algorithm 1 {slopes['algorithm1']:.2f} "
        f"(linear), periodic DV {slopes['distance-vector']:.2f} "
        f"(superlinear), sequential BFS "
        f"{slopes['sequential-bfs']:.2f} (~quadratic)"
    )
    return result


@experiment("e11b")
def e11b_dense(scale: str) -> ExperimentResult:
    """E11b: link-state goes quadratic on dense graphs."""
    result = ExperimentResult(
        exp_id="e11b",
        title="APSP rounds on dense graphs, m = Θ(n²) (§3.1)",
        headers=["n", "m", "Algorithm 1", "link-state", "ratio"],
    )
    ls_points = []
    ours_points = []
    for n in DENSE_SWEEPS[scale]:
        graph = parse_graph(f"er:{n}:p=0.5:seed=3")
        ours = _rounds(graph, "apsp")
        link_state = _rounds(graph, "baseline", variant="link-state")
        ls_points.append((n, link_state))
        ours_points.append((n, ours))
        result.rows.append((
            n, graph.m, ours, link_state, f"{link_state / ours:.1f}x",
        ))
    ls_slope = fit_loglog_slope([p[0] for p in ls_points],
                                [p[1] for p in ls_points])
    ours_slope = fit_loglog_slope([p[0] for p in ours_points],
                                  [p[1] for p in ours_points])
    result.require("link-state-superlinear",
                   ls_slope > ours_slope + 0.4)
    result.notes.append(
        f"log-log slopes: Algorithm 1 {ours_slope:.2f}, link-state "
        f"{ls_slope:.2f} — flooding Theta(n^2) edges through B-bit "
        "links is quadratic"
    )
    return result

