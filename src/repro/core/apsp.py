"""Algorithm 1: All Pairs Shortest Paths in ``O(n)`` rounds.

The paper's algorithm, verbatim (Section 4.1):

1. build the BFS tree ``T_1`` rooted at node 1;
2. send a pebble on a DFS traversal of ``T_1``, one edge per round;
3. every time the pebble *first* enters a node ``v``, it waits one time
   slot and then starts a breadth-first search ``BFS_v`` over the edges
   of ``G``.

Lemma 1 guarantees that the one-slot wait plus the pebble's travel time
keeps all ``n`` BFS waves congestion-free — no node ever forwards two
waves in the same round, so every message fits the ``B``-bit budget.
The simulator's strict bandwidth policy re-verifies this on every edge
of every round, and the node program additionally counts would-be
violations (``lemma1_violations`` must come out zero in the property
tests).

Distances are recorded as in Remark 4: when ``BFS_v`` reaches node
``u``, the wave's depth is ``d(u, v)``, and the first sender is ``u``'s
parent in ``T_v`` — the implicit shortest-path routing table.

Termination bookkeeping (the paper leaves it implicit): ``T_1`` is built
with an echo, so node 1 knows ``ecc(1)`` and hence the bound
``D0 = 2 · ecc(1) ≥ D`` (Fact 1).  When the pebble returns home
exhausted, node 1 broadcasts a finish round ``D0 + 2`` rounds out — far
enough for the broadcast to arrive everywhere *and* for the last BFS to
complete — and all nodes stop together, aligned, so follow-up
aggregation phases (Lemmas 2–7) can run over ``T_1`` directly.  Total:
``O(D) + 2(n-1) + n + O(D) = O(n)`` rounds (Theorem 1).

With ``collect_girth=True`` the BFS waves also perform the cycle
detection of Lemma 7, at zero extra message cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..congest.faults import FaultsLike
from ..congest.node import NodeAlgorithm, NodeContext
from ..graphs.graph import Graph
from ..obs.tracer import active as obs_active
from .engine import ROOT, execute, validate_apsp_input
from .messages import BfsToken, DownMsg, PebbleMsg
from .results import ApspResult, ApspSummary
from .subroutines import build_bfs_tree


class ApspPhaseOutcome:
    """Local outcome of the pebble/BFS phase (plain mutable record)."""

    __slots__ = ("distances", "parents", "girth_best", "lemma1_violations")

    def __init__(self) -> None:
        self.distances: Dict[int, int] = {}
        self.parents: Dict[int, Optional[int]] = {}
        self.girth_best: Optional[int] = None
        self.lemma1_violations: int = 0

    def note_cycle(self, candidate: int) -> None:
        """Record a cycle-length candidate (Lemma 7 bookkeeping)."""
        if self.girth_best is None or candidate < self.girth_best:
            self.girth_best = candidate


def apsp_phase(node: NodeAlgorithm, tree, *, collect_girth: bool = False):
    """The pebble traversal + n BFS waves of Algorithm 1 (Lines 2–8).

    An aligned sub-protocol over an already-built ``T_1``
    (:class:`~repro.core.subroutines.TreeInfo`): all nodes must enter in
    the same round and all leave together in the root-announced finish
    round.  Returns an :class:`ApspPhaseOutcome`.  Exposed separately so
    the girth approximation's exact fallback (Theorem 5) can run a full
    APSP mid-program.
    """
    outcome = ApspPhaseOutcome()
    children: Tuple[int, ...] = tree.children
    next_child = 0
    visited = False
    pebble_here = tree.is_root
    start_bfs_pending = tree.is_root
    finish_round: Optional[int] = None
    tracer = obs_active()
    wave_span: Optional[int] = None

    while finish_round is None or node.round < finish_round:
        inbox = yield
        pebble_received = False
        if inbox:
            # One pass splits the inbox by message type.  The handlers
            # still run waves, finish broadcast, pebble: that order
            # fixes the per-edge order of what this node sends.
            tokens: List[Tuple[int, BfsToken]] = []
            finishes: List[DownMsg] = []
            for sender, msg in inbox.items():
                if isinstance(msg, BfsToken):
                    tokens.append((sender, msg))
                elif isinstance(msg, PebbleMsg):
                    pebble_received = True
                elif isinstance(msg, DownMsg) and msg.root == tree.root:
                    finishes.append(msg)
            if tokens:
                _process_waves(node, tokens, outcome, collect_girth, tracer)

            # ---- finish broadcast ----
            for msg in finishes:
                finish_round = msg.value
                for child in children:
                    node.send(child, msg)

        # ---- pebble ----
        move_now = False
        if pebble_received:
            pebble_here = True
            if visited:
                move_now = True           # revisit: pass along at once
            else:
                start_bfs_pending = True  # first visit: wait (Line 5)
        elif pebble_here and start_bfs_pending:
            # The round after first arrival: start BFS_v (Line 6) and
            # move the pebble onward in the same slot.
            start_bfs_pending = False
            visited = True
            outcome.distances[node.uid] = 0
            outcome.parents[node.uid] = None
            node.send_all(BfsToken(root=node.uid, dist=0))
            if tracer is not None:
                wave_span = tracer.span_begin(
                    "bfs_wave", node=node.uid, round_no=node.round,
                    src=node.uid,
                )
            move_now = True

        if move_now:
            visited = True
            if next_child < len(children):
                node.send(children[next_child], PebbleMsg())
                if tracer is not None:
                    tracer.event("pebble_move", node=node.uid,
                                 round_no=node.round,
                                 to=children[next_child])
                next_child += 1
                pebble_here = False
            elif tree.parent is not None:
                node.send(tree.parent, PebbleMsg())
                if tracer is not None:
                    tracer.event("pebble_move", node=node.uid,
                                 round_no=node.round, to=tree.parent)
                pebble_here = False
            else:
                # Root, traversal exhausted: announce the finish round.
                finish_round = node.round + tree.diameter_bound + 2
                for child in children:
                    node.send(child, DownMsg(root=tree.root,
                                             value=finish_round))

    # All nodes leave the loop in round ``finish_round`` — aligned.
    if wave_span is not None:
        tracer.span_end(wave_span, round_no=node.round)
    return outcome


def _process_waves(node: NodeAlgorithm,
                   tokens: List[Tuple[int, BfsToken]],
                   outcome: ApspPhaseOutcome,
                   collect_girth: bool, tracer=None) -> None:
    """Adopt/forward BFS waves; collect girth candidates (Lemma 7).

    ``tokens`` are this round's ``(sender, BfsToken)`` arrivals in inbox
    order.
    """
    arrivals: Dict[int, List[Tuple[int, int]]] = {}
    for sender, msg in tokens:
        arrivals.setdefault(msg.root, []).append((sender, msg.dist))
    forwarded = 0
    for wave_root in sorted(arrivals):
        entries = arrivals[wave_root]
        if wave_root in outcome.distances:
            # Late contact over a non-tree edge: cycle of length
            # d(me, root) + d(sender, root) + 1 (Lemma 7).
            if collect_girth:
                my_depth = outcome.distances[wave_root]
                for _, sender_depth in entries:
                    outcome.note_cycle(my_depth + sender_depth + 1)
            continue
        # Adoption: depth = sender depth + 1; parent = least id among
        # this round's senders (Section 6.1's tie rule).
        depth = entries[0][1] + 1
        senders = [sender for sender, _ in entries]
        outcome.distances[wave_root] = depth
        outcome.parents[wave_root] = min(senders)
        if tracer is not None:
            tracer.event("bfs_adopt", node=node.uid, round_no=node.round,
                         root=wave_root, dist=depth)
        if collect_girth and len(senders) > 1:
            # Two same-round senders close a cycle through the root.
            outcome.note_cycle(2 * depth)
        # One frozen token serves the whole flood.
        token = BfsToken(root=wave_root, dist=depth)
        suppressed = set(senders)
        for neighbor in node.neighbors:
            if neighbor not in suppressed:
                node.send(neighbor, token)
        forwarded += 1
    if forwarded > 1:
        # Lemma 1 says this never happens; count it so tests can assert
        # the invariant directly.
        outcome.lemma1_violations += forwarded - 1


class ApspNode(NodeAlgorithm):
    """Per-node program of Algorithm 1.

    Subclass hooks: :attr:`collect_girth` turns on the Lemma 7 cycle
    bookkeeping; :meth:`epilogue` lets the property algorithms
    (Lemmas 2–7) append aligned aggregation phases over ``T_1``; and
    :meth:`make_result` shapes the node's local output.
    """

    collect_girth = False

    def __init__(self, ctx: NodeContext) -> None:
        super().__init__(ctx)
        self.distances: Dict[int, int] = {}
        self.parents: Dict[int, Optional[int]] = {}
        self.girth_best: Optional[int] = None
        self.lemma1_violations: int = 0
        self.tree = None

    def program(self):
        self.tree = yield from build_bfs_tree(self, ROOT)
        outcome = yield from apsp_phase(
            self, self.tree, collect_girth=self.collect_girth
        )
        self.distances = outcome.distances
        self.parents = outcome.parents
        self.girth_best = outcome.girth_best
        self.lemma1_violations = outcome.lemma1_violations
        yield from self.epilogue()
        return self.make_result()

    # -- hooks ------------------------------------------------------------

    def epilogue(self):
        """Aligned post-APSP phase; the base algorithm has none."""
        return
        yield  # noqa: unreachable — marks this method as a generator

    def make_result(self) -> ApspResult:
        """Assemble this node's local result (override to post-process)."""
        return ApspResult(
            uid=self.uid,
            distances=dict(self.distances),
            parents=dict(self.parents),
            girth_candidate=self.girth_best if self.collect_girth else None,
        )


class ApspGirthNode(ApspNode):
    """Algorithm 1 with the Lemma 7 girth bookkeeping switched on."""

    collect_girth = True


def run_apsp(
    graph: Graph,
    *,
    collect_girth: bool = False,
    seed: int = 0,
    bandwidth_bits: Optional[int] = None,
    policy: str = "strict",
    track_edges: bool = False,
    faults: FaultsLike = None,
) -> ApspSummary:
    """Run Algorithm 1 on ``graph`` and assemble all local results.

    Requires a connected graph containing node 1 (the paper's
    assumptions; every generator in :mod:`repro.graphs` satisfies them).
    With ``faults`` set the run may degrade gracefully to partial
    results (see :mod:`repro.congest.faults`).
    """
    factory = ApspGirthNode if collect_girth else ApspNode
    outcome = execute(
        graph,
        factory,
        seed=seed,
        bandwidth_bits=bandwidth_bits,
        policy=policy,
        track_edges=track_edges,
        faults=faults,
    )
    return ApspSummary(results=outcome.results, metrics=outcome.metrics)
