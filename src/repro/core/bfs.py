"""Standalone BFS primitives: single BFS, partial k-BFS, Claim 1's
tree test, and the all-2-BFS-trees computation of Section 8.

These are thin per-node programs over the shared sub-protocols, exposed
because several experiments exercise them directly:

* :func:`run_bfs` — one BFS with echo (``O(D)``): every node learns its
  depth/parent, and everyone learns ``ecc(root)``.
* :func:`run_tree_check` — Claim 1: ``G`` is a tree iff no node
  receives the BFS wave more than once; ``O(D)`` rounds.
* :func:`run_k_bfs` — partial BFS trees of depth ``k`` from a source
  set (Definition 7), built on Algorithm 2 with a depth cut-off.
* :func:`run_all_two_bfs` — every node learns its 2-neighborhood (its
  2-BFS tree, Definition 7) by exchanging serialized adjacency lists.
  On the Theorem 8 gadget family this takes Θ(n/B) rounds — the
  demonstration that computing all 2-BFS trees can be as hard as
  deciding diameter 2 vs 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set, Tuple

from ..congest.faults import FaultsLike
from ..congest.message import INFINITY, IdMessage, ValueMessage
from ..congest.metrics import RunMetrics
from ..congest.node import NodeAlgorithm
from ..graphs.graph import Graph
from .apsp import ROOT
from .engine import execute
from .messages import BfsToken
from .ssp import ssp_main_loop
from .subroutines import (
    TreeInfo,
    aggregate_and_share,
    build_bfs_tree,
    combine_max,
    combine_sum,
    wait_until_round,
)


@dataclass(frozen=True)
class BfsResult:
    """One node's view of a completed BFS with echo."""

    uid: int
    depth: int
    parent: Optional[int]
    children: Tuple[int, ...]
    ecc_root: int


class BfsNode(NodeAlgorithm):
    """Single BFS from node 1 with echo."""

    def program(self):
        tree: TreeInfo = yield from build_bfs_tree(self, ROOT)
        return BfsResult(
            uid=self.uid,
            depth=tree.depth,
            parent=tree.parent,
            children=tree.children,
            ecc_root=tree.ecc_root,
        )


def run_bfs(graph: Graph, *, seed: int = 0,
            bandwidth_bits: Optional[int] = None,
            policy: str = "strict", faults: FaultsLike = None):
    """One BFS + echo from node 1; returns ``(results, metrics)``."""
    outcome = execute(
        graph, BfsNode, seed=seed, bandwidth_bits=bandwidth_bits,
        policy=policy, faults=faults,
    )
    return outcome.results, outcome.metrics


class TreeCheckNode(NodeAlgorithm):
    """Claim 1: G is a tree iff nobody hears the BFS wave twice.

    During ``build_bfs_tree`` a node receiving the wave from several
    neighbors (at adoption or later) witnesses a cycle; an OR-aggregate
    of those witnesses decides tree-ness in ``O(D)`` rounds.
    """

    def program(self):
        # Run the standard construction but watch for duplicate tokens.
        duplicate_seen = 0
        original_program = build_bfs_tree(self, ROOT)
        # Wrap: we cannot easily hook into the subroutine, so replicate
        # the detection locally — every BfsToken beyond the first round
        # of receipt (or extra same-round senders) marks a cycle.
        heard = False
        tree = None
        gen = original_program
        try:
            gen.send(None)
        except StopIteration as stop:  # pragma: no cover — n = 1
            tree = stop.value
        while tree is None:
            inbox = yield
            tokens = [
                (sender, msg) for sender, msg in inbox.items()
                if isinstance(msg, BfsToken) and msg.root == ROOT
            ]
            if tokens:
                if len(tokens) > 1 or heard:
                    duplicate_seen = 1
                heard = True
            try:
                gen.send(inbox)
            except StopIteration as stop:
                tree = stop.value
        verdict = yield from aggregate_and_share(
            self, tree, duplicate_seen, combine_max
        )
        return verdict == 0


def run_tree_check(graph: Graph, *, seed: int = 0,
                   bandwidth_bits: Optional[int] = None,
                   policy: str = "strict", faults: FaultsLike = None):
    """Claim 1's tree test; returns ``(is_tree: bool, metrics)``."""
    outcome = execute(
        graph, TreeCheckNode, seed=seed, bandwidth_bits=bandwidth_bits,
        policy=policy, faults=faults,
    )
    verdicts = set(outcome.results.values())
    if len(verdicts) != 1:
        raise AssertionError("nodes disagree on tree-ness")
    return verdicts.pop(), outcome.metrics


@dataclass(frozen=True)
class KBfsResult:
    """One node's truncated distance table (depth ≤ k sources only)."""

    uid: int
    k: int
    distances: Mapping[int, int]


class KBfsNode(NodeAlgorithm):
    """Partial k-BFS trees (Definition 7) from a source set.

    ``ctx.input_value`` is ``(k, in_s)``.  Implemented as Algorithm 2
    truncated: entries farther than ``k`` are dropped after the phase
    (wave *propagation* beyond depth k costs nothing extra here because
    the loop duration is bounded the same way; a production variant
    would also suppress forwarding at depth k — done here too).
    """

    def program(self):
        k, in_s = self.ctx.input_value
        tree = yield from build_bfs_tree(self, ROOT,
                                         mark=1 if in_s else 0)
        size_s = tree.marked_count
        duration = size_s + min(k, tree.diameter_bound) + 2
        outcome = yield from ssp_main_loop(
            self, in_s, size_s, duration, depth_limit=k
        )
        distances = {
            source: dist for source, dist in outcome.distances.items()
            if dist <= k
        }
        return KBfsResult(uid=self.uid, k=k, distances=distances)


def run_k_bfs(graph: Graph, sources: Iterable[int], k: int, *,
              seed: int = 0, bandwidth_bits: Optional[int] = None,
              policy: str = "strict", faults: FaultsLike = None):
    """Partial k-BFS from ``sources``; returns ``(results, metrics)``."""
    source_set = frozenset(sources)
    inputs = {uid: (k, uid in source_set) for uid in graph.nodes}
    outcome = execute(
        graph, KBfsNode, inputs=inputs, seed=seed,
        bandwidth_bits=bandwidth_bits, policy=policy, faults=faults,
    )
    return outcome.results, outcome.metrics


@dataclass(frozen=True)
class TwoBfsResult:
    """One node's 2-BFS tree (as its 2-neighborhood) plus the global
    verdict of the Section 8 question."""

    uid: int
    two_neighborhood: FrozenSet[int]
    #: True iff every node's 2-BFS tree spans the whole graph — i.e.
    #: the graph has diameter ≤ 2 (the Theorem 8 reduction).
    all_trees_complete: bool


class AllTwoBfsNode(NodeAlgorithm):
    """Every node learns its 2-neighborhood by neighbor-list exchange.

    Each node streams its adjacency list to every neighbor, a
    ``⌊B / id_bits⌋``-id chunk per round, preceded by a length header.
    A node of degree ``Δ`` therefore needs ``⌈Δ / C⌉`` rounds — on the
    Theorem 8 gadgets, Θ(n/B), matching the lower bound.
    """

    def program(self):
        tree = yield from build_bfs_tree(self, ROOT)
        # Everyone must stream for the same number of rounds, so agree
        # on the maximum degree first (one O(D) aggregate).
        max_degree = yield from aggregate_and_share(
            self, tree, self.ctx.degree, combine_max
        )
        model = self.ctx.size_model
        header_bits = ValueMessage(0).size_bits(model)
        id_msg_bits = IdMessage(uid=1).size_bits(model)
        chunk = max(1, (self.ctx.bandwidth_bits - header_bits)
                    // id_msg_bits)
        stream_rounds = (max_degree + chunk - 1) // chunk
        start = self.round
        my_list = list(self.neighbors)
        received: Dict[int, Set[int]] = {nb: set() for nb in self.neighbors}
        cursor = 0
        while self.round < start + stream_rounds + 1:
            if cursor < len(my_list):
                batch = my_list[cursor:cursor + chunk]
                for nb in self.neighbors:
                    if cursor == 0:
                        self.send(nb, ValueMessage(len(my_list)))
                    for uid in batch:
                        self.send(nb, IdMessage(uid))
                cursor += len(batch)
            inbox = yield
            for sender, msg in inbox.items():
                if isinstance(msg, IdMessage):
                    received[sender].add(msg.uid)
        two_hop = {self.uid}
        two_hop.update(self.neighbors)
        for ids in received.values():
            two_hop.update(ids)
        # Decide the Section 8 question: does anyone miss a node?
        incomplete = 0 if len(two_hop) == self.n else 1
        verdict = yield from aggregate_and_share(
            self, tree, incomplete, combine_max
        )
        return TwoBfsResult(
            uid=self.uid,
            two_neighborhood=frozenset(two_hop),
            all_trees_complete=(verdict == 0),
        )


def run_all_two_bfs(graph: Graph, *, seed: int = 0,
                    bandwidth_bits: Optional[int] = None,
                    policy: str = "strict", faults: FaultsLike = None):
    """Compute all 2-BFS trees; returns ``(results, metrics)``."""
    outcome = execute(
        graph, AllTwoBfsNode, seed=seed, bandwidth_bits=bandwidth_bits,
        policy=policy, faults=faults, max_rounds=40 * graph.n + 2000,
    )
    return outcome.results, outcome.metrics
