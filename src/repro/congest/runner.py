"""Convenience entry points for running one algorithm on one graph."""

from __future__ import annotations

from typing import Any, Mapping, Optional

from ..graphs.graph import Graph
from .faults import FaultPlan, FaultSpec
from .network import AlgorithmFactory, Network, RunResult


def run_algorithm(
    graph: Graph,
    factory: AlgorithmFactory,
    *,
    bandwidth_bits: Optional[int] = None,
    policy: str = "strict",
    inputs: Optional[Mapping[int, Any]] = None,
    seed: int = 0,
    max_rounds: Optional[int] = None,
    track_edges: bool = False,
    faults: "FaultSpec | FaultPlan | Mapping[str, Any] | None" = None,
) -> RunResult:
    """Build a :class:`~repro.congest.network.Network` and run it to the end.

    This is the one-call form: every ``repro.core`` entry point runs
    through it (via :func:`repro.core.engine.execute`), as do examples,
    tests and benchmarks; see :class:`~repro.congest.network.Network`
    for the parameter semantics.
    """
    network = Network(
        graph,
        factory,
        bandwidth_bits=bandwidth_bits,
        policy=policy,
        inputs=inputs,
        seed=seed,
        max_rounds=max_rounds,
        track_edges=track_edges,
        faults=faults,
    )
    return network.run()
