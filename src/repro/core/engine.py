"""Shared run plumbing for every ``core.run_*`` entry point.

:func:`execute` validates the input, then hands the run to
:func:`~repro.congest.runner.run_algorithm`, the one place a
:class:`~repro.congest.network.Network` is built from the run keywords
(``seed``, ``policy``, ``bandwidth_bits``, ``faults``, ...), so a new
simulator-wide knob is threaded through exactly once.

The structural checks (:func:`validate_apsp_input`) also live here —
they are shared by every algorithm that builds the paper's ``T_1`` —
and are re-exported from :mod:`repro.core.apsp` for compatibility.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from ..congest.errors import GraphError
from ..congest.faults import FaultsLike
from ..congest.network import AlgorithmFactory, RunResult
from ..congest.runner import run_algorithm
from ..graphs.graph import Graph

#: The distinguished root (the paper assumes a node with ID 1 exists).
ROOT = 1


def validate_apsp_input(graph: Graph) -> None:
    """Check the structural assumptions shared by the paper's algorithms."""
    if not graph.has_node(ROOT):
        raise GraphError(
            "the paper assumes a node with ID 1 exists; relabel the graph "
            "(Graph.relabeled()) before running"
        )
    if not graph.is_connected():
        raise GraphError(
            "distances are undefined on a disconnected graph; APSP "
            "requires a connected input"
        )


def execute(
    graph: Graph,
    factory: AlgorithmFactory,
    *,
    inputs: Optional[Mapping[int, Any]] = None,
    seed: int = 0,
    bandwidth_bits: Optional[int] = None,
    policy: str = "strict",
    track_edges: bool = False,
    faults: FaultsLike = None,
    max_rounds: Optional[int] = None,
    validate: bool = True,
) -> RunResult:
    """Validate the input, run the algorithm, return the outcome.

    Every ``run_*`` entry point routes through here.  Set
    ``validate=False`` for algorithms that do not require the paper's
    node-1 assumption (leader election does its own connectivity
    check).  All other keywords are forwarded verbatim to
    :func:`~repro.congest.runner.run_algorithm`.
    """
    if validate:
        validate_apsp_input(graph)
    return run_algorithm(
        graph,
        factory,
        inputs=inputs,
        seed=seed,
        bandwidth_bits=bandwidth_bits,
        policy=policy,
        track_edges=track_edges,
        faults=faults,
        max_rounds=max_rounds,
    )
