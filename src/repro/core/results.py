"""Typed per-node and network-level result records.

Distributed results are *distributed*: after APSP every node holds its
own distance row (the paper stresses that collecting everything at one
node could take Ω(n²) time).  The ``*Summary`` classes assemble the
per-node records of a finished simulation for convenient inspection —
an operation a real deployment would not perform, used here only by
tests, examples and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from ..congest.metrics import RunMetrics


@dataclass(frozen=True)
class ApspResult:
    """One node's local output of Algorithm 1.

    ``distances[w]`` is this node's hop distance to ``w`` (complete for
    connected graphs).  ``parents[w]`` is this node's parent in the BFS
    tree ``T_w`` (Remark 4: shortest paths are implicitly stored via the
    BFS trees), ``None`` at ``w`` itself.

    The object engine stores both as dicts.  The vector engine stores
    read-only mappings over this node's row of its distance matrix and
    of its parent matrix, which the first read of any ``parents`` row
    builds for the whole summary; they compare equal to the dicts.  For
    a dict of one row, copy ``dict(result.distances.items())``.
    """

    uid: int
    distances: Mapping[int, int]
    parents: Mapping[int, Optional[int]]
    #: Smallest cycle-length candidate this node observed (``None`` when
    #: girth bookkeeping was off or no non-tree contact happened).
    girth_candidate: Optional[int] = None

    @property
    def eccentricity(self) -> int:
        """Max distance recorded — ``ecc`` of this node (Lemma 2)."""
        return max(self.distances.values())

    def next_hop(self, target: int) -> Optional[int]:
        """First hop of a shortest path toward ``target``.

        This is exactly the routing-table entry the paper's introduction
        motivates: the parent in ``T_target``.
        """
        return self.parents.get(target)


@dataclass(frozen=True)
class ApspSummary:
    """All nodes' APSP results plus run metrics (test/benchmark view)."""

    results: Mapping[int, ApspResult]
    metrics: RunMetrics

    @property
    def rounds(self) -> int:
        """Number of communication rounds used."""
        return self.metrics.rounds

    def distance(self, u: int, v: int) -> int:
        """Distance between two nodes, read from the local tables."""
        return self.results[u].distances[v]

    def eccentricities(self) -> Dict[int, int]:
        """Per-node eccentricities (Lemma 2: local maxima)."""
        return {uid: res.eccentricity for uid, res in self.results.items()}

    def diameter(self) -> int:
        """The diameter (max eccentricity, Lemma 3)."""
        return max(self.eccentricities().values())

    def radius(self) -> int:
        """The radius (min eccentricity, Lemma 4)."""
        return min(self.eccentricities().values())


@dataclass(frozen=True)
class SspResult:
    """One node's local output of Algorithm 2 (S-SP).

    ``distances[s]`` for every ``s ∈ S`` — "each node in V knows its
    distances to every node in S" — and ``parents[s]`` the neighbor
    through which ``s``'s BFS tree reached this node (Line 23).
    """

    uid: int
    distances: Mapping[int, int]
    parents: Mapping[int, Optional[int]]

    def nearest_source(self) -> Tuple[Optional[int], Optional[int]]:
        """``(source, distance)`` of the closest member of ``S``."""
        if not self.distances:
            return None, None
        source = min(self.distances, key=lambda s: (self.distances[s], s))
        return source, self.distances[source]


@dataclass(frozen=True)
class SspSummary:
    """All nodes' S-SP results plus run metrics."""

    sources: FrozenSet[int]
    results: Mapping[int, SspResult]
    metrics: RunMetrics

    @property
    def rounds(self) -> int:
        """Number of communication rounds used."""
        return self.metrics.rounds

    def distance(self, source: int, node: int) -> int:
        """Distance between two nodes, read from the local tables."""
        return self.results[node].distances[source]


@dataclass(frozen=True)
class PropertyResult:
    """One node's output for the graph-property problems (Lemmas 2–7).

    Per Definition 6: every node ends up knowing its own eccentricity
    plus the same global values (diameter / radius / girth) and whether
    it belongs to the center / peripheral sets.
    """

    uid: int
    eccentricity: int
    diameter: int
    radius: int
    is_center: bool
    is_peripheral: bool
    girth: Optional[float] = None


@dataclass(frozen=True)
class PropertySummary:
    """All nodes' property results plus run metrics."""

    results: Mapping[int, PropertyResult]
    metrics: RunMetrics

    @property
    def rounds(self) -> int:
        """Number of communication rounds used."""
        return self.metrics.rounds

    @property
    def diameter(self) -> int:
        """The diameter (max eccentricity, Lemma 3)."""
        return self._unanimous("diameter")

    @property
    def radius(self) -> int:
        """The radius (min eccentricity, Lemma 4)."""
        return self._unanimous("radius")

    @property
    def girth(self) -> float:
        """The girth all nodes agreed on (Lemma 7)."""
        return self._unanimous("girth")

    def center(self) -> FrozenSet[int]:
        """Nodes that declared themselves center vertices (Lemma 5)."""
        return frozenset(
            uid for uid, res in self.results.items() if res.is_center
        )

    def peripheral(self) -> FrozenSet[int]:
        """Nodes that declared themselves peripheral (Lemma 6)."""
        return frozenset(
            uid for uid, res in self.results.items() if res.is_peripheral
        )

    def eccentricities(self) -> Dict[int, int]:
        """Per-node eccentricities (Lemma 2: local maxima)."""
        return {uid: res.eccentricity for uid, res in self.results.items()}

    def _unanimous(self, attribute: str):
        values = {getattr(res, attribute) for res in self.results.values()}
        if len(values) != 1:
            raise AssertionError(
                f"nodes disagree on {attribute}: {sorted(map(str, values))}"
            )
        return values.pop()
