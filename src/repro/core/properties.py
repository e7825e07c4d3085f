"""Lemmas 2–7: exact eccentricities, diameter, radius, center,
peripheral vertices and girth in ``O(n)`` rounds.

All six are corollaries of Algorithm 1 plus ``O(D)`` aggregation over
the already-built tree ``T_1``:

* **Lemma 2** — each node's eccentricity is the local maximum of its
  APSP distance row (zero extra communication).
* **Lemma 3 / 4** — diameter / radius are the max / min of all
  eccentricities, aggregated up ``T_1`` and broadcast back so *every*
  node knows them (Definition 6).
* **Lemma 5 / 6** — center / peripheral membership is then a local
  comparison.
* **Lemma 7** — girth: the BFS waves of Algorithm 1 already detected
  every non-tree contact (``collect_girth``); the smallest candidate is
  min-aggregated.  A forest yields no candidate at any node, so the
  aggregate stays infinite — exactly Definition 3's convention (this
  subsumes Claim 1's tree test).
"""

from __future__ import annotations

from typing import Optional

from ..congest.message import INFINITY
from ..congest.faults import FaultsLike
from ..graphs.graph import Graph
from .apsp import ApspNode
from .engine import execute
from .results import PropertyResult, PropertySummary
from .subroutines import aggregate_and_share, combine_max, combine_min

#: Marker mirroring Definition 3: the girth of a forest is infinite.
GIRTH_INFINITE = float("inf")


class PropertyNode(ApspNode):
    """Algorithm 1 plus the Lemma 2–7 aggregation epilogue."""

    collect_girth = True

    def epilogue(self):
        ecc = max(self.distances.values())
        self.ecc = ecc
        self.global_diameter = yield from aggregate_and_share(
            self, self.tree, ecc, combine_max
        )
        self.global_radius = yield from aggregate_and_share(
            self, self.tree, ecc, combine_min
        )
        if self.collect_girth:
            local = INFINITY if self.girth_best is None else self.girth_best
            self.global_girth = yield from aggregate_and_share(
                self, self.tree, local, combine_min
            )
        else:
            self.global_girth = None

    def make_result(self) -> PropertyResult:
        girth: Optional[float]
        if self.global_girth is None:
            girth = None
        elif self.global_girth == INFINITY:
            girth = GIRTH_INFINITE
        else:
            girth = self.global_girth
        return PropertyResult(
            uid=self.uid,
            eccentricity=self.ecc,
            diameter=self.global_diameter,
            radius=self.global_radius,
            is_center=(self.ecc == self.global_radius),
            is_peripheral=(self.ecc == self.global_diameter),
            girth=girth,
        )


class PropertyNodeNoGirth(PropertyNode):
    """Property computation without the girth bookkeeping."""

    collect_girth = False


def run_graph_properties(
    graph: Graph,
    *,
    include_girth: bool = True,
    seed: int = 0,
    bandwidth_bits: Optional[int] = None,
    policy: str = "strict",
    track_edges: bool = False,
    faults: FaultsLike = None,
) -> PropertySummary:
    """Compute all Lemma 2–7 properties in one ``O(n)``-round run."""
    factory = PropertyNode if include_girth else PropertyNodeNoGirth
    outcome = execute(
        graph,
        factory,
        seed=seed,
        bandwidth_bits=bandwidth_bits,
        policy=policy,
        track_edges=track_edges,
        faults=faults,
    )
    return PropertySummary(results=outcome.results, metrics=outcome.metrics)
