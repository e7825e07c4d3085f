"""Algorithm 2: S-Shortest-Paths in ``O(|S| + D)`` rounds.

All ``|S|`` BFS waves start *simultaneously*; contention on an edge is
resolved by a priority rule and the loser retries.  The paper proves
(Theorem 3) that a wave is delayed at most once per higher-priority
source, so ``|S| + D0`` synchronous iterations suffice (``D0 =
2·ecc(1)``, computed and broadcast during the initialization phase,
Lines 7–12).

.. admonition:: Reproduction note — the priority rule

   The extended abstract resolves contention by **source id only**
   (smaller id wins, Lines 18–19).  As written, that rule admits
   counterexamples: on a 9-cycle with ``S = {2,3,4,5,7,8,9}``, wave 5 is
   delayed by 2, 3 and 4 along its shortest path to node 1 but sails
   around the other side (where all ids are larger) undelayed, so node
   1's *first* successful receipt of id 5 carries distance 5 instead of
   4 — the "same set of delaying ids on both paths" step of the
   Theorem 3 proof does not hold for waves that cross in opposite
   directions.  ``tests/core/test_ssp.py`` reproduces this.

   We therefore default to the **(distance, id) lexicographic**
   priority — the rule established as correct by Lenzen & Peleg's
   source-detection work (PODC'13), which this paper's S-SP directly
   inspired.  It preserves the ``O(|S| + D)`` bound (a wave is still
   delayed at most ``|S|`` times) and makes the first receipt carry the
   true distance.  The paper's literal rule remains available as
   ``priority="id"`` for the demonstration.

Implementation notes:

* The per-neighbor pending lists ``L_i`` and the accept/forward rules
  follow the pseudocode line by line (Lines 13–29); each edge carries at
  most one :class:`~repro.core.messages.OfferMsg` per direction per
  round — comfortably within ``B``.
* Each ``L_i`` is a set of queued ids plus a heap of ``(rank, id)``
  entries with lazy deletion.  The rank is ``δ[id] + 1`` under the
  default rule, so entries order exactly like the offers ``(dist, id)``,
  and a constant ``0`` under ``priority="id"``, so they order by id
  alone.  The top entry whose id is still queued is the list's
  highest-priority id.  A strict improvement pushes a fresh entry on
  every other edge where the id is queued (the stale entry ranks lower
  and is dropped when it surfaces) and takes the id off the new
  parent's list: Line 22 never offers a source to its parent.  Keys
  stay tuples because graph ids are arbitrary positive ints.
* Work follows the offers.  The loop keeps the set of neighbors whose
  list is non-empty and offers only on those, a round with no such
  neighbor and an empty inbox only yields, and receipts are walked by
  sender rather than by neighbor.  With one or two sources on
  ``er:64:p=0.1`` (the rows behind a cold ``repro serve`` query), 69% of
  node-rounds neither send nor receive anything.
* One offer per (source, distance): the frozen ``OfferMsg`` is built
  when a distance is set or improves, and that same object goes out on
  every edge, as :func:`~repro.core.subroutines.build_bfs_tree` shares
  one token per flood.
* The initialization phase reuses
  :func:`~repro.core.subroutines.build_bfs_tree` with a membership mark,
  which simultaneously gives every node ``ecc(1)`` (hence ``D0``) **and**
  ``|S|`` — both needed for the loop bound — in ``O(D)`` rounds.
* ``detect_cycles=True`` adds the Lemma 7-style bookkeeping used by the
  girth approximation (Theorem 5): every received offer for an
  already-known source closes a walk of length ``δ[s] + offer.dist``
  through ``s``, a genuine cycle-length upper bound because a source is
  never offered back across its own tree edge: an adoption queues the
  source on every list but the new parent's, and drops it from that
  list if an earlier adoption had queued it there (Line 22).

The whole main loop is exposed as the reusable sub-protocol
:func:`ssp_main_loop` so the approximation algorithms (Theorems 4 and 5)
can run S-SP phases over computed dominating sets.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..congest.errors import GraphError
from ..congest.faults import FaultsLike
from ..congest.node import NodeAlgorithm
from ..graphs.graph import Graph
from ..obs.tracer import active as obs_active
from .apsp import ROOT, validate_apsp_input
from .engine import execute
from .messages import OfferMsg
from .results import SspResult, SspSummary
from .subroutines import TreeInfo, build_bfs_tree

#: Priority rules for edge contention.
PRIORITY_DIST_ID = "dist_id"   # corrected rule (default)
PRIORITY_ID = "id"             # the paper's literal rule (demonstrably unsafe)


class SspPhaseOutcome:
    """Local outcome of one S-SP phase (plain mutable record)."""

    __slots__ = ("distances", "parents", "cycle_candidate")

    def __init__(self) -> None:
        self.distances: Dict[int, int] = {}
        self.parents: Dict[int, Optional[int]] = {}
        self.cycle_candidate: Optional[int] = None


def ssp_main_loop(
    node: NodeAlgorithm,
    in_s: bool,
    size_s: int,
    duration: int,
    *,
    detect_cycles: bool = False,
    priority: str = PRIORITY_DIST_ID,
    depth_limit: Optional[int] = None,
):
    """Lines 13–29 of Algorithm 2, as an aligned sub-protocol.

    All nodes must enter in the same round knowing the same ``size_s``
    and ``duration`` (≥ ``size_s + D`` for correctness; callers pass
    ``size_s + D0 + slack``).  Returns an :class:`SspPhaseOutcome`.
    """
    if priority not in (PRIORITY_DIST_ID, PRIORITY_ID):
        raise ValueError(f"unknown priority rule {priority!r}")
    tracer = obs_active()
    loop_span: Optional[int] = None
    if tracer is not None:
        # The aligned entry round is the r0 that Theorem 3's delay
        # accounting is measured from (see repro.obs.invariants).
        tracer.event("ssp_loop_start", node=node.uid, round_no=node.round,
                     size_s=size_s, duration=duration, in_s=in_s)
        loop_span = tracer.span_begin(
            "ssp_main_loop", node=node.uid, round_no=node.round,
            size_s=size_s, duration=duration,
        )
    outcome = SspPhaseOutcome()
    distances = outcome.distances
    parents = outcome.parents
    literal = priority == PRIORITY_ID
    neighbors = node.neighbors
    # The lists L_i: per neighbor, the queued source ids and a heap of
    # (rank, source) entries over them (see the module notes).
    pending: Dict[int, Set[int]] = {nb: set() for nb in neighbors}
    heaps: Dict[int, List[Tuple[int, int]]] = {nb: [] for nb in neighbors}
    busy: Set[int] = set()             # neighbors whose L_i is non-empty
    offers: Dict[int, OfferMsg] = {}   # source -> the offer sent for it
    #: source -> sender -> smallest offered dist (cycle detection only).
    seen_offers: Dict[int, Dict[int, int]] = {}

    if in_s:
        uid = node.uid
        distances[uid] = 0
        parents[uid] = None
        offers[uid] = OfferMsg(source=uid, dist=1)
        entry = (0 if literal else 1, uid)
        for nb in neighbors:
            pending[nb].add(uid)
            heaps[nb].append(entry)
        busy.update(neighbors)

    for _ in range(duration):
        # Lines 14–17: offer each busy edge its highest-priority pending
        # id, and take it off the list at once.
        sent: Dict[int, int] = {}
        if busy:
            for nb in sorted(busy):
                queue = pending[nb]
                heap = heaps[nb]
                while heap[0][1] not in queue:
                    heappop(heap)   # an older entry of a re-keyed id
                source = heappop(heap)[1]
                node.send(nb, offers[source])
                sent[nb] = source
                queue.discard(source)
                if not queue:
                    busy.discard(nb)
                    heap.clear()
        inbox = yield
        if not inbox:
            continue
        received: Dict[int, OfferMsg] = {}
        for sender, msg in inbox.items():
            if isinstance(msg, OfferMsg):
                received[sender] = msg
        # Lines 18–29, senders in ascending id order (the paper's
        # v_1 .. v_d(v) indexing).
        for sender, incoming in received.items():
            source = incoming.source
            dist = incoming.dist
            if detect_cycles:
                # Remember the best offer per (source, sender); cycle
                # candidates are assembled at the end of the phase from
                # *final* distances, excluding each source's final parent
                # edge (whose offer would describe a degenerate walk).
                per_sender = seen_offers.setdefault(source, {})
                old = per_sender.get(sender)
                if old is None or dist < old:
                    per_sender[sender] = dist
            if literal:
                # The paper's blocking semantics: the smaller id wins the
                # edge; the loser's content is DROPPED and the loser
                # retries (Lines 19 / 26), so a beaten offer of ours goes
                # back on its list.  Only the first receipt of an id
                # ever counts.
                mine = sent.get(sender)
                if mine is not None:
                    if source >= mine:
                        continue
                    pending[sender].add(mine)
                    heappush(heaps[sender], (0, mine))
                    busy.add(sender)
                if source in distances:
                    continue
            else:
                # Corrected (Lenzen–Peleg) semantics: edges are full
                # duplex in CONGEST, so nothing blocks — every staged
                # offer left its list when it was sent, and every
                # received entry is min-merged.  A strict improvement is
                # re-queued for the other neighbors and overtakes stale
                # copies by its higher priority.
                best = distances.get(source)
                if best is not None and dist >= best:
                    continue
            distances[source] = dist
            parents[source] = sender
            if tracer is not None:
                tracer.event("wave_adopt", node=node.uid,
                             round_no=node.round, source=source, dist=dist)
            offers[source] = OfferMsg(source=source, dist=dist + 1)
            # k-BFS truncation (Definition 7): nodes at the cut-off depth
            # do not extend the wave further.  Wherever else the source
            # is still queued its entry is re-keyed to the improved
            # distance.  Line 22 never offers a source to its parent, so
            # an entry still queued for the new parent is dropped.
            extend = depth_limit is None or dist < depth_limit
            entry = (0 if literal else dist + 1, source)
            for other in neighbors:
                if other != sender and (extend or source in pending[other]):
                    pending[other].add(source)
                    heappush(heaps[other], entry)
                    busy.add(other)
            queue = pending[sender]
            if source in queue:
                queue.discard(source)
                if not queue:
                    busy.discard(sender)
                    heaps[sender].clear()

    if loop_span is not None:
        tracer.span_end(loop_span, round_no=node.round,
                        known=len(distances))
    if detect_cycles:
        # Walk: me → s (final δ[s]) + edge to sender + sender → s at the
        # time of the offer (dist - 1); genuine because the final parent
        # edge is excluded on both sides (the sender never offers across
        # its own parent edge, and we skip ours here).
        for source, per_sender in seen_offers.items():
            if source not in outcome.distances:
                continue
            base = outcome.distances[source]
            my_parent = outcome.parents.get(source)
            for sender, dist in per_sender.items():
                if sender == my_parent:
                    continue
                candidate = base + dist
                if outcome.cycle_candidate is None or \
                        candidate < outcome.cycle_candidate:
                    outcome.cycle_candidate = candidate
    return outcome


class SspNode(NodeAlgorithm):
    """Per-node program of Algorithm 2.

    ``ctx.input_value`` is truthy iff this node belongs to ``S``.
    """

    detect_cycles = False
    priority = PRIORITY_DIST_ID

    def program(self):
        in_s = bool(self.ctx.input_value)
        self.tree: TreeInfo = yield from build_bfs_tree(
            self, ROOT, mark=1 if in_s else 0
        )
        size_s = self.tree.marked_count
        duration = size_s + self.tree.diameter_bound + 2
        outcome = yield from ssp_main_loop(
            self, in_s, size_s, duration,
            detect_cycles=self.detect_cycles,
            priority=self.priority,
        )
        return SspResult(
            uid=self.uid,
            distances=dict(outcome.distances),
            parents=dict(outcome.parents),
        )


class SspPaperRuleNode(SspNode):
    """Algorithm 2 with the paper's literal id-only priority.

    Exists to *demonstrate* (in tests and EXPERIMENTS.md) that the
    extended abstract's rule can record non-shortest distances; do not
    use it for real computations.
    """

    priority = PRIORITY_ID


def run_ssp(
    graph: Graph,
    sources: Iterable[int],
    *,
    seed: int = 0,
    bandwidth_bits: Optional[int] = None,
    policy: str = "strict",
    track_edges: bool = False,
    priority: str = PRIORITY_DIST_ID,
    faults: FaultsLike = None,
) -> SspSummary:
    """Run Algorithm 2 for source set ``sources`` and assemble results."""
    validate_apsp_input(graph)
    source_set = frozenset(sources)
    unknown = source_set - set(graph.nodes)
    if unknown:
        raise GraphError(f"sources {sorted(unknown)} are not graph nodes")
    inputs = {uid: (uid in source_set) for uid in graph.nodes}
    factory = SspPaperRuleNode if priority == PRIORITY_ID else SspNode
    result = execute(
        graph,
        factory,
        validate=False,  # checked above, before the source-set check
        inputs=inputs,
        seed=seed,
        bandwidth_bits=bandwidth_bits,
        policy=policy,
        track_edges=track_edges,
        faults=faults,
    )
    return SspSummary(
        sources=source_set,
        results=result.results,
        metrics=result.metrics,
    )
