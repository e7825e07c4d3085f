"""The Section 3.1 baselines: what APSP costs *without* the paper's
scheduling ideas.

The introduction argues that the two classic routing approaches, once
their messages are cut down to ``B = O(log n)`` bits, "need strictly
superlinear (and sometimes quadratic) time".  We implement all three
strawmen so the benchmarks can show exactly that against Algorithm 1:

* :class:`SequentialBfsApsp` — the unmodified textbook approach: one
  BFS at a time, each in its own ``D0 + 2``-round slot, ``O(n · D)``
  rounds total (the paper's remark before Section 4.1).
* :class:`DistanceVectorApsp` — RIP/BGP style: every node *cyclically
  retransmits its whole distance vector*, serialized to ``⌊B / entry⌋``
  entries per edge per round.  An improvement therefore waits up to a
  full table cycle (``Θ(n/B)`` rounds) before crossing each hop, giving
  the ``Θ(n·D / B)`` — up to quadratic — behaviour the paper describes.
* :class:`DeltaDistanceVectorApsp` — the event-driven variant that
  transmits only changed entries.  Interesting ablation: with a clean
  synchronous start it pipelines perfectly and is *linear*-round (it is
  essentially n concurrent BFS waves squeezed through B-bit links);
  the paper's superlinearity claim is about the periodic protocol
  above, not this one.
* :class:`LinkStateApsp` — OSPF/IS-IS style: flood every edge of the
  topology (serialized the same way), then compute shortest paths
  locally; ``Θ(m/B + D)`` rounds, quadratic on dense graphs.

The latter two run until *global quiescence*, detected with an
epoch-based convergecast over ``T_1`` (work ``E`` rounds, OR-aggregate
"anything changed or still queued?", stop on a silent epoch).  The
detection overhead is a constant factor of the work, so measured round
counts keep the algorithms' asymptotic shape.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Optional, Set, Tuple

from ..congest.errors import GraphError
from ..congest.faults import FaultsLike
from ..congest.node import NodeAlgorithm
from ..graphs.graph import Graph
from .apsp import ROOT, ApspPhaseOutcome, _process_waves, validate_apsp_input
from .engine import execute
from .messages import BfsToken, DvMsg, EdgeMsg
from .results import ApspResult, ApspSummary
from .subroutines import (
    TreeInfo,
    aggregate_and_share,
    build_bfs_tree,
    combine_max,
    wait_until_round,
)


def quiescent_epochs(node: NodeAlgorithm, tree: TreeInfo, worker):
    """Run ``worker`` until the whole network is silent.

    ``worker`` implements ``stage(node)`` (queue this round's sends),
    ``absorb(node, inbox) -> bool`` (process deliveries; True if local
    state changed) and ``backlog() -> bool`` (sends still queued).  All
    nodes enter aligned; epochs are ``E`` work rounds plus one aligned
    OR-aggregate; the loop ends after the first globally silent epoch.
    """
    epoch_len = max(4, tree.ecc_root + 2)
    while True:
        epoch_start = node.round
        changed = False
        while node.round < epoch_start + epoch_len:
            worker.stage(node)
            inbox = yield
            if worker.absorb(node, inbox):
                changed = True
        if worker.backlog():
            changed = True
        flag = yield from aggregate_and_share(
            node, tree, 1 if changed else 0, combine_max
        )
        if flag == 0:
            return


class _DistanceVectorWorker:
    """Bellman–Ford with per-edge serialization to ``B`` bits."""

    def __init__(self, node: NodeAlgorithm) -> None:
        entry_bits = DvMsg(target=1, dist=0).size_bits(node.ctx.size_model)
        self.per_round = max(1, node.ctx.bandwidth_bits // entry_bits)
        self.distances: Dict[int, int] = {node.uid: 0}
        self.queues: Dict[int, Deque[int]] = {
            nb: deque([node.uid]) for nb in node.neighbors
        }
        self.queued: Dict[int, Set[int]] = {
            nb: {node.uid} for nb in node.neighbors
        }

    def stage(self, node: NodeAlgorithm) -> None:
        for nb in node.neighbors:
            queue = self.queues[nb]
            for _ in range(min(self.per_round, len(queue))):
                target = queue.popleft()
                self.queued[nb].discard(target)
                node.send(nb, DvMsg(target=target,
                                    dist=self.distances[target]))

    def absorb(self, node: NodeAlgorithm, inbox) -> bool:
        changed = False
        for sender, msg in inbox.items():
            if not isinstance(msg, DvMsg):
                continue
            candidate = msg.dist + 1
            best = self.distances.get(msg.target)
            if best is None or candidate < best:
                self.distances[msg.target] = candidate
                changed = True
                for nb in node.neighbors:
                    if nb != sender and msg.target not in self.queued[nb]:
                        self.queues[nb].append(msg.target)
                        self.queued[nb].add(msg.target)
        return changed

    def backlog(self) -> bool:
        return any(self.queues.values())


class DeltaDistanceVectorApsp(NodeAlgorithm):
    """Event-driven (changed-entries-only) distance vector."""

    def program(self):
        tree = yield from build_bfs_tree(self, ROOT)
        worker = _DistanceVectorWorker(self)
        yield from quiescent_epochs(self, tree, worker)
        return ApspResult(
            uid=self.uid,
            distances=dict(worker.distances),
            parents={},
        )


class _PeriodicVectorWorker:
    """The classic periodic protocol: cycle through the whole table.

    Each neighbor link has a round-robin cursor over the node's current
    table; ``⌊B/entry⌋`` entries go out per round regardless of whether
    they changed.  Freshly learned/improved entries are *dirty* until
    the cursor passes them, which models the update latency of RIP-style
    periodic advertisement (bounded here by one table cycle rather than
    a wall-clock timer).
    """

    def __init__(self, node: NodeAlgorithm) -> None:
        entry_bits = DvMsg(target=1, dist=0).size_bits(node.ctx.size_model)
        self.per_round = max(1, node.ctx.bandwidth_bits // entry_bits)
        self.distances: Dict[int, int] = {node.uid: 0}
        self.order: list = [node.uid]          # stable table order
        self.cursors: Dict[int, int] = {nb: 0 for nb in node.neighbors}
        self.dirty: Dict[int, Set[int]] = {
            nb: {node.uid} for nb in node.neighbors
        }

    def stage(self, node: NodeAlgorithm) -> None:
        for nb in node.neighbors:
            cursor = self.cursors[nb]
            for _ in range(min(self.per_round, len(self.order))):
                target = self.order[cursor % len(self.order)]
                cursor += 1
                node.send(nb, DvMsg(target=target,
                                    dist=self.distances[target]))
                self.dirty[nb].discard(target)
            self.cursors[nb] = cursor % len(self.order)

    def absorb(self, node: NodeAlgorithm, inbox) -> bool:
        changed = False
        for _, msg in inbox.items():
            if not isinstance(msg, DvMsg):
                continue
            candidate = msg.dist + 1
            best = self.distances.get(msg.target)
            if best is None or candidate < best:
                if best is None:
                    self.order.append(msg.target)
                self.distances[msg.target] = candidate
                changed = True
                for nb in node.neighbors:
                    self.dirty[nb].add(msg.target)
        return changed

    def backlog(self) -> bool:
        return any(self.dirty.values())


class DistanceVectorApsp(NodeAlgorithm):
    """Serialized periodic distance-vector APSP (superlinear, by design)."""

    def program(self):
        tree = yield from build_bfs_tree(self, ROOT)
        worker = _PeriodicVectorWorker(self)
        yield from quiescent_epochs(self, tree, worker)
        return ApspResult(
            uid=self.uid,
            distances=dict(worker.distances),
            parents={},
        )


class _LinkStateWorker:
    """Topology flooding with per-edge serialization to ``B`` bits."""

    def __init__(self, node: NodeAlgorithm) -> None:
        entry_bits = EdgeMsg(u=1, v=1).size_bits(node.ctx.size_model)
        self.per_round = max(1, node.ctx.bandwidth_bits // entry_bits)
        own = {tuple(sorted((node.uid, nb))) for nb in node.neighbors}
        self.edges: Set[Tuple[int, int]] = set(own)
        self.queues: Dict[int, Deque[Tuple[int, int]]] = {
            nb: deque(sorted(own)) for nb in node.neighbors
        }

    def stage(self, node: NodeAlgorithm) -> None:
        for nb in node.neighbors:
            queue = self.queues[nb]
            for _ in range(min(self.per_round, len(queue))):
                u, v = queue.popleft()
                node.send(nb, EdgeMsg(u=u, v=v))

    def absorb(self, node: NodeAlgorithm, inbox) -> bool:
        changed = False
        for sender, msg in inbox.items():
            if not isinstance(msg, EdgeMsg):
                continue
            edge = tuple(sorted((msg.u, msg.v)))
            if edge not in self.edges:
                self.edges.add(edge)
                changed = True
                for nb in node.neighbors:
                    if nb != sender:
                        self.queues[nb].append(edge)
        return changed

    def backlog(self) -> bool:
        return any(self.queues.values())

    def local_distances(self, source: int) -> Dict[int, int]:
        adjacency: Dict[int, list] = {}
        for u, v in self.edges:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
        distances = {source: 0}
        frontier = deque([source])
        while frontier:
            current = frontier.popleft()
            for neighbor in sorted(adjacency.get(current, ())):
                if neighbor not in distances:
                    distances[neighbor] = distances[current] + 1
                    frontier.append(neighbor)
        return distances


class LinkStateApsp(NodeAlgorithm):
    """Serialized link-state APSP: flood edges, then compute locally."""

    def program(self):
        tree = yield from build_bfs_tree(self, ROOT)
        worker = _LinkStateWorker(self)
        yield from quiescent_epochs(self, tree, worker)
        return ApspResult(
            uid=self.uid,
            distances=worker.local_distances(self.uid),
            parents={},
        )


class SequentialBfsApsp(NodeAlgorithm):
    """One BFS per node, in disjoint time slots: Θ(n · D) rounds.

    Node ``u``'s wave starts in round ``start + (u - 1)·(D0 + 2)``;
    forwarding reuses Algorithm 1's wave handler, so the only difference
    from the paper's APSP is the *schedule* — exactly the comparison the
    introduction draws.  Requires node ids to be ``1..n``.
    """

    def program(self):
        tree = yield from build_bfs_tree(self, ROOT)
        slot = tree.diameter_bound + 2
        start = self.round
        finish = start + self.n * slot + 1
        outcome = ApspPhaseOutcome()
        while self.round < finish:
            offset = self.round - start
            if offset % slot == 0 and offset // slot == self.uid - 1:
                outcome.distances[self.uid] = 0
                outcome.parents[self.uid] = None
                self.send_all(BfsToken(root=self.uid, dist=0))
            inbox = yield
            if inbox:
                tokens = [(sender, msg) for sender, msg in inbox.items()
                          if isinstance(msg, BfsToken)]
                _process_waves(self, tokens, outcome, False)
        return ApspResult(
            uid=self.uid,
            distances=outcome.distances,
            parents=outcome.parents,
        )


_BASELINES = {
    "sequential-bfs": SequentialBfsApsp,
    "distance-vector": DistanceVectorApsp,
    "distance-vector-delta": DeltaDistanceVectorApsp,
    "link-state": LinkStateApsp,
}


def run_baseline_apsp(
    graph: Graph,
    variant: str,
    *,
    seed: int = 0,
    bandwidth_bits: Optional[int] = None,
    policy: str = "strict",
    faults: FaultsLike = None,
) -> ApspSummary:
    """Run one of the Section 3.1 baselines end to end.

    ``variant`` is ``"sequential-bfs"``, ``"distance-vector"``,
    ``"distance-vector-delta"`` or ``"link-state"``.
    """
    validate_apsp_input(graph)
    if variant == "sequential-bfs" and \
            graph.nodes != tuple(range(1, graph.n + 1)):
        raise GraphError(
            "sequential-bfs scheduling needs node ids 1..n; relabel first"
        )
    try:
        factory = _BASELINES[variant]
    except KeyError:
        raise GraphError(
            f"unknown baseline {variant!r}; expected one of "
            f"{sorted(_BASELINES)}"
        )
    outcome = execute(
        graph, factory, validate=False, seed=seed,
        bandwidth_bits=bandwidth_bits, policy=policy,
        max_rounds=200 * graph.n + 20000, faults=faults,
    )
    return ApspSummary(results=outcome.results, metrics=outcome.metrics)
