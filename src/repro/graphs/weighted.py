"""Weighted graphs via the subdivision reduction (an extension).

The paper is about *unweighted* APSP; weighted CONGEST APSP is listed
among its open directions.  This module provides the classical
reduction that makes the unweighted machinery immediately usable for
small integer weights: an edge of weight ``w`` becomes a path of ``w``
unit edges through ``w - 1`` fresh relay nodes.  Distances between
original nodes are preserved exactly, so running Algorithm 1 on the
expansion computes weighted APSP — in ``O(n + m·(W-1))`` rounds, where
``W`` is the maximum weight (the expansion's node count).  That is far
from the modern weighted-APSP bounds, and is documented as such; it is
the honest baseline the paper's framework gives for free.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from ..congest.errors import GraphError
from .graph import Edge, Graph, normalize_edge


@dataclass(frozen=True)
class WeightedGraph:
    """An undirected graph with positive integer edge weights."""

    graph: Graph
    weights: Mapping[Edge, int]

    def __post_init__(self) -> None:
        edge_set = set(self.graph.edges)
        normalized = {}
        for edge, weight in self.weights.items():
            canon = normalize_edge(*edge)
            if canon not in edge_set:
                raise GraphError(f"weight given for unknown edge {edge}")
            if not isinstance(weight, int) or weight < 1:
                raise GraphError(
                    f"edge {edge}: weights must be positive ints, "
                    f"got {weight!r}"
                )
            normalized[canon] = weight
        missing = edge_set - set(normalized)
        if missing:
            raise GraphError(
                f"missing weights for edges {sorted(missing)[:5]}..."
                if len(missing) > 5 else
                f"missing weights for edges {sorted(missing)}"
            )
        object.__setattr__(self, "weights", normalized)

    @property
    def max_weight(self) -> int:
        """Largest edge weight (the W in the O(n + m(W-1)) cost)."""
        return max(self.weights.values(), default=1)

    def weight(self, u: int, v: int) -> int:
        """Weight of the undirected edge ``{u, v}``."""
        return self.weights[normalize_edge(u, v)]


def from_edge_weights(
    nodes: Iterable[int],
    weighted_edges: Iterable[Tuple[int, int, int]],
) -> WeightedGraph:
    """Build a :class:`WeightedGraph` from ``(u, v, w)`` triples."""
    edges = []
    weights = {}
    for u, v, w in weighted_edges:
        edges.append((u, v))
        weights[normalize_edge(u, v)] = w
    return WeightedGraph(Graph(nodes, edges), weights)


@dataclass(frozen=True)
class Expansion:
    """The unit-length expansion of a weighted graph.

    ``unit_graph`` preserves original node ids; relay node ids start
    above ``max(original ids)``.  ``relay_of`` maps each relay back to
    its host edge for debugging.
    """

    weighted: WeightedGraph
    unit_graph: Graph
    relay_of: Mapping[int, Edge]

    @property
    def original_nodes(self) -> Tuple[int, ...]:
        """Node ids of the weighted graph (relays excluded)."""
        return self.weighted.graph.nodes


def expand(weighted: WeightedGraph) -> Expansion:
    """Subdivide every weight-``w`` edge into ``w`` unit edges."""
    base = weighted.graph
    next_id = max(base.nodes) + 1 if base.nodes else 1
    edges = []
    relay_of: Dict[int, Edge] = {}
    for u, v in base.edges:
        w = weighted.weight(u, v)
        chain = [u]
        for _ in range(w - 1):
            relay_of[next_id] = (u, v)
            chain.append(next_id)
            next_id += 1
        chain.append(v)
        edges.extend(zip(chain, chain[1:]))
    nodes = set(base.nodes) | set(relay_of)
    return Expansion(
        weighted=weighted,
        unit_graph=Graph(nodes, edges),
        relay_of=relay_of,
    )


def deterministic_weights(
    graph: Graph,
    max_weight: int,
    *,
    seed: int = 0,
) -> WeightedGraph:
    """Assign each edge a keyed-hash weight in ``[1, max_weight]``.

    The weight of edge ``{u, v}`` depends only on ``(seed, u, v)`` via
    BLAKE2b, so the assignment is reproducible across processes and
    Python versions (no RNG iteration-order or ``PYTHONHASHSEED``
    dependence) — the property campaign cache keys and benchmark
    pinning rely on.
    """
    if int(max_weight) < 1:
        raise GraphError(
            f"max_weight must be a positive integer, got {max_weight!r}"
        )
    max_weight = int(max_weight)
    weights = {}
    for u, v in graph.edges:
        a, b = normalize_edge(u, v)
        digest = hashlib.blake2b(
            f"{seed}|{a}|{b}".encode(), digest_size=8
        ).digest()
        weights[(a, b)] = 1 + int.from_bytes(digest, "big") % max_weight
    return WeightedGraph(graph, weights)


@dataclass(frozen=True)
class WeightedApspSummary:
    """Outcome of a weighted APSP run through the subdivision reduction.

    ``distances`` covers *original* node pairs only; the round and
    message costs are those of the expanded (unit-length) run — the
    documented ``O(n + m·(W-1))`` price of the reduction.
    """

    distances: Mapping[int, Mapping[int, int]]
    #: Cost counters of the run on the expansion.
    metrics: "object"
    #: Node count of the unit-length expansion actually simulated.
    expanded_n: int
    #: Largest edge weight (the reduction's blow-up factor W).
    max_weight: int

    @property
    def rounds(self) -> int:
        """Number of communication rounds used by the expanded run."""
        return self.metrics.rounds

    def weighted_diameter(self) -> int:
        """Largest weighted distance between original nodes."""
        return max(
            (max(row.values(), default=0)
             for row in self.distances.values()),
            default=0,
        )


def run_weighted_apsp(
    weighted: WeightedGraph,
    *,
    seed: int = 0,
    bandwidth_bits: Optional[int] = None,
    policy: str = "strict",
    faults=None,
) -> WeightedApspSummary:
    """Weighted APSP: expand, run Algorithm 1, project distances back.

    Returns a :class:`WeightedApspSummary` carrying the run's
    :class:`~repro.congest.metrics.RunMetrics`; the simulator-wide
    ``policy``/``faults`` knobs make it registrable as a protocol
    (campaigns, benchmarks, CLI).
    """
    from ..core.apsp import run_apsp

    expansion = expand(weighted)
    summary = run_apsp(
        expansion.unit_graph, seed=seed, bandwidth_bits=bandwidth_bits,
        policy=policy, faults=faults,
    )
    if summary.metrics.nodes_crashed or summary.metrics.nodes_stalled:
        # Partial run under fault injection: project what we have.
        distances: Dict[int, Dict[int, int]] = {}
    else:
        originals = set(expansion.original_nodes)
        distances = {
            u: {
                v: summary.results[u].distances[v]
                for v in originals
            }
            for u in originals
        }
    return WeightedApspSummary(
        distances=distances,
        metrics=summary.metrics,
        expanded_n=expansion.unit_graph.n,
        max_weight=weighted.max_weight,
    )


def oracle_weighted_distances(
    weighted: WeightedGraph,
) -> Dict[int, Dict[int, int]]:
    """Sequential Dijkstra oracle for tests."""
    import heapq

    base = weighted.graph
    out: Dict[int, Dict[int, int]] = {}
    for source in base.nodes:
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, float("inf")):
                continue
            for neighbor in base.neighbors(node):
                candidate = d + weighted.weight(node, neighbor)
                if candidate < dist.get(neighbor, float("inf")):
                    dist[neighbor] = candidate
                    heapq.heappush(heap, (candidate, neighbor))
        out[source] = dist
    return out
