#!/usr/bin/env python3
"""Every diameter algorithm in the paper, side by side.

Sweeps a topology zoo and runs: exact O(n) (Lemma 3), (×,1+ε) in
O(n/D + D) (Corollary 4), (×,2) in O(D) (Remark 1), the (×,3/2)
ACIM/PRT estimator (Section 3.6), and the Corollary 1 combiner.

Run:  python examples/diameter_sweep.py
"""

from __future__ import annotations

from repro import core, graphs


def zoo():
    yield "torus 5x8", graphs.torus_graph(5, 8)
    yield "path 50", graphs.path_graph(50)
    yield "dumbbell", graphs.dumbbell_with_path(20, 14)
    yield "random sparse", graphs.erdos_renyi_graph(
        60, 0.08, seed=4, ensure_connected=True
    )
    yield "random dense", graphs.erdos_renyi_graph(
        60, 0.35, seed=4, ensure_connected=True
    )


def main() -> None:
    header = (f"{'instance':<15}{'D':>4}  {'exact':>11}  "
              f"{'(x,1.5)':>11}  {'(x,2)':>10}  {'(x,3/2)':>10}  "
              f"{'Cor1 branch'}")
    print(header)
    print("-" * len(header))
    for name, graph in zoo():
        true_d = graphs.diameter(graph)
        exact = core.run_graph_properties(graph, include_girth=False)
        exact_d, exact_m = exact.diameter, exact.metrics
        assert exact_d == true_d
        approx = core.run_approx_properties(graph, 0.5)
        approx_d, approx_m = approx.diameter_estimate, approx.metrics
        quick, quick_m = core.run_remark1(graph)
        quick_d = next(iter(quick.values())).diameter_estimate
        prt = core.run_prt_diameter(graph)
        prt_d, prt_m = prt.estimate, prt.metrics
        combined = core.combined_diameter_estimate(graph)
        print(f"{name:<15}{true_d:>4}  "
              f"{f'{exact_d} @{exact_m.rounds}r':>11}  "
              f"{f'{approx_d} @{approx_m.rounds}r':>11}  "
              f"{f'{quick_d} @{quick_m.rounds}r':>10}  "
              f"{f'{prt_d} @{prt_m.rounds}r':>10}  "
              f"{combined['branch']}")
    print("\ncells are estimate @rounds; each algorithm trades accuracy "
          "for rounds exactly\nalong the Table 1 diagonal, and the "
          "combiner picks the cheap side per instance.")


if __name__ == "__main__":
    main()
