"""The synchronous round scheduler.

:class:`Network` drives one :class:`~repro.congest.node.NodeAlgorithm`
per graph node in lockstep:

1. **Round 0 (wake-up).**  Every node program runs until its first
   ``yield``, staging messages for round 1.  No inbox is delivered.
2. **Round r ≥ 1.**  All messages staged in round ``r - 1`` are policed
   by the bandwidth policy and delivered simultaneously; every still-
   running node program is resumed with its inbox and runs until its next
   ``yield`` (staging messages for round ``r + 1``) or until it returns.
3. The run ends when every node program has returned and no backlog
   remains on any link.  A program's return value is the node's local
   output.

The scheduler is deterministic: nodes are processed in ascending id
order, per-node randomness is seeded from ``(seed, uid)`` and public
randomness from ``seed`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..graphs.graph import Graph
from .bandwidth import BandwidthPolicy, make_policy
from .errors import GraphError, ProtocolError, RoundLimitExceededError
from .faults import FaultPlan, FaultReport, FaultSpec, ensure_plan
from .mailbox import Inbox, Outbox
from .message import Message, SizeModel
from .metrics import RunMetrics
from .node import NodeAlgorithm, NodeContext, NodeState, PublicRandomness

#: Builds the per-node algorithm object from its context.
AlgorithmFactory = Callable[[NodeContext], NodeAlgorithm]

#: Optional callable invoked with every newly constructed network — the
#: seam the observability layer (:mod:`repro.obs`) uses to wrap the
#: delivery step of networks created deep inside ``repro.core`` entry
#: points.  ``None`` (the default) costs one global read per *network
#: construction*, never per round, so the disabled path stays free.
_network_observer: Optional[Callable[["Network"], None]] = None


def set_network_observer(
    observer: Optional[Callable[["Network"], None]],
) -> Optional[Callable[["Network"], None]]:
    """Install (or clear, with ``None``) the network-construction hook.

    Returns the previously installed observer so callers can restore
    it — the contract :func:`repro.obs.capture` relies on for nesting.
    """
    global _network_observer
    previous = _network_observer
    _network_observer = observer
    return previous


def default_bandwidth(n: int) -> int:
    """The default per-edge budget ``B`` for an ``n``-node network.

    The paper takes ``B = O(log n)`` — enough for "a constant number of
    node or edge IDs per message".  We allocate six id-widths (at least
    48 bits), which fits the largest bundle any of the paper's algorithms
    ever places on one edge in one round (a BFS token plus a broadcast
    payload), and nothing more.
    """
    model = SizeModel(n)
    return max(48, 6 * model.id_bits)


@dataclass
class RunResult:
    """Outcome of a completed simulation.

    Under fault injection ``results`` may be *partial*: crash-stopped
    nodes and nodes still stalled when the round-limit guard stopped
    the run have no entry, and ``fault_report`` describes what
    happened.  Without faults every node has a result and
    ``fault_report`` is ``None``.
    """

    #: Per-node return values of the node programs that halted normally.
    results: Dict[int, Any]
    #: Round/message/bit statistics.
    metrics: RunMetrics
    #: Structured fault outcome; set iff fault injection was configured.
    fault_report: Optional[FaultReport] = None

    @property
    def rounds(self) -> int:
        """Number of communication rounds used (the paper's cost measure)."""
        return self.metrics.rounds


class Network:
    """A synchronous CONGEST network executing one algorithm.

    Parameters
    ----------
    graph:
        The communication topology.
    factory:
        Called once per node with its :class:`NodeContext`; returns the
        node's algorithm instance.
    bandwidth_bits:
        Per-edge per-round budget ``B``; default :func:`default_bandwidth`.
    policy:
        ``"strict"`` (default), ``"serialize"`` or ``"unlimited"``; see
        :mod:`repro.congest.bandwidth`.
    inputs:
        Optional per-node problem input, exposed as ``ctx.input_value``.
    seed:
        Seed for private and public randomness.
    max_rounds:
        Safety limit; default ``20 * n + 1000`` which every algorithm in
        this package stays well under.  With faults configured, hitting
        the limit stops the run gracefully (partial results) instead of
        raising.
    track_edges:
        Record cumulative per-edge bits (needed for cut audits).
    faults:
        Optional deterministic fault injection: a
        :class:`~repro.congest.faults.FaultSpec`, a compiled
        :class:`~repro.congest.faults.FaultPlan`, or a plain mapping in
        ``FaultSpec.to_dict`` form.  ``None`` (default) simulates the
        paper's perfectly reliable network.
    """

    def __init__(
        self,
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
    ) -> None:
        if graph.n == 0:
            raise GraphError("cannot simulate an empty graph")
        self.graph = graph
        self.size_model = SizeModel(graph.n)
        self.bandwidth_bits = (
            default_bandwidth(graph.n) if bandwidth_bits is None else bandwidth_bits
        )
        self.policy: BandwidthPolicy = make_policy(
            policy, self.bandwidth_bits, self.size_model
        )
        self.max_rounds = (
            20 * graph.n + 1000 if max_rounds is None else max_rounds
        )
        self.metrics = RunMetrics(edge_bits={} if track_edges else None)
        self.round_no = 0
        self.fault_plan: Optional[FaultPlan] = ensure_plan(faults)
        self.fault_report: Optional[FaultReport] = (
            FaultReport() if self.fault_plan is not None else None
        )
        self._stopped = False
        inputs = inputs or {}

        #: Node ids in scheduling order (ascending), fixed once — the
        #: round loop must never re-derive or re-sort this.
        self._node_order: Tuple[int, ...] = graph.nodes
        #: Public randomness is seeded once and cloned per node on first
        #: read — see :class:`~repro.congest.node.PublicRandomness`.
        public = PublicRandomness(f"{seed}|public")
        self._states: Dict[int, NodeState] = {}
        for uid in self._node_order:
            ctx = NodeContext(
                uid=uid,
                neighbors=graph.neighbors(uid),
                n=graph.n,
                bandwidth_bits=self.bandwidth_bits,
                size_model=self.size_model,
                _seed=seed,
                _public=public,
                input_value=inputs.get(uid),
            )
            self._states[uid] = NodeState(algorithm=factory(ctx))
        self._started = False
        #: messages staged for the next round, keyed by directed edge.
        #: Insertion order is deterministic (nodes resume in ascending id
        #: order; each outbox lists receivers ascending).
        self._staged: Dict[Tuple[int, int], List[Message]] = {}
        #: Node ids still running (not halted, not crashed), ascending;
        #: maintained incrementally so idle rounds never scan dead nodes.
        self._active: List[int] = list(self._node_order)
        #: Memoized per-class size lookup bound once for the hot loop.
        self._sizeof = self.size_model.size_bits
        if _network_observer is not None:
            _network_observer(self)

    # -- lifecycle ------------------------------------------------------------

    def _start(self) -> None:
        """Round 0: run every program to its first yield."""
        fault_plan = self.fault_plan
        active: List[int] = []
        for uid in self._node_order:
            state = self._states[uid]
            if fault_plan is not None and self._crash_if_due(uid, state, 0):
                continue
            generator = state.algorithm.program()
            state.generator = generator
            try:
                next(generator)
            except StopIteration as stop:
                self._halt(state, stop.value)
            except TypeError:
                raise ProtocolError(
                    f"node {uid}: program() must return a generator "
                    f"(write it with at least one 'yield')"
                )
            self._collect_outbox(uid, state)
            if not state.halted:
                active.append(uid)
        self._active = active
        self._started = True

    def _halt(self, state: NodeState, result: Any) -> None:
        state.halted = True
        state.result = result
        state.generator = None
        state.algorithm._mark_halted()

    def _collect_outbox(self, uid: int, state: NodeState) -> None:
        """Move a node's staged messages into the per-edge staging map.

        Adopts the outbox's internal lists directly (each node is
        collected exactly once per round, so a ``(uid, receiver)`` key
        cannot pre-exist; the defensive merge below keeps that
        assumption honest).  Receiver order is the node's send order —
        per-edge grouping makes cross-edge order irrelevant everywhere
        it could be observed (policing sorts).  Senders are collected in
        ascending id order, so every receiver's senders appear in the
        staging map in ascending order too, which is the order inboxes
        present them in.
        """
        algorithm = state.algorithm
        by_receiver = algorithm._outbox._by_receiver
        if not by_receiver:
            return
        algorithm._outbox = Outbox()
        staged = self._staged
        for receiver, messages in by_receiver.items():
            key = (uid, receiver)
            existing = staged.get(key)
            if existing is None:
                staged[key] = messages
            else:
                existing.extend(messages)

    def _crash_if_due(self, uid: int, state: NodeState, round_no: int) -> bool:
        """Apply a scheduled crash-stop; returns whether ``uid`` is down."""
        if self.fault_plan is None or state.halted:
            return False
        if state.crashed:
            return True
        if not self.fault_plan.is_crashed(uid, round_no):
            return False
        state.crashed = True
        state.generator = None
        crash_round = self.fault_plan.crash_round(uid)
        self.fault_report.crashed[uid] = crash_round
        self.metrics.nodes_crashed += 1
        return True

    def _apply_faults(
        self, edge: Tuple[int, int], messages: List[Message]
    ) -> List[Message]:
        """Apply the fault plan to one policed edge; returns what arrives.

        Suppression (link down / crashed receiver) and random drops
        happen *at delivery time*, after bandwidth policing, so lost
        traffic still consumed link budget but never counts as
        delivered.
        """
        plan, report = self.fault_plan, self.fault_report
        round_no, sizeof = self.round_no, self._sizeof
        sender, receiver = edge
        if (
            plan.link_down(sender, receiver, round_no)
            or plan.is_crashed(receiver, round_no)
        ):
            bits = sum(sizeof(message) for message in messages)
            self.metrics.record_suppressed(len(messages), bits)
            report.messages_suppressed += len(messages)
            return []
        if not plan.has_drops:
            return messages
        kept: List[Message] = []
        for index, message in enumerate(messages):
            if plan.drops(sender, receiver, round_no, index):
                self.metrics.record_dropped(1, sizeof(message))
                report.messages_dropped += 1
            else:
                kept.append(message)
        return kept

    @property
    def running(self) -> bool:
        """Whether any node program is still live or backlog remains."""
        if self._stopped:
            return False
        if not self._started:
            return True
        # ``_active`` is maintained incrementally (nodes leave on halt or
        # crash), so this is O(1) instead of a scan over every node.
        return (
            bool(self._active)
            or bool(self._staged)
            or self.policy.has_backlog
        )

    def _deliver(
        self, staged: Dict[Tuple[int, int], List[Message]]
    ) -> Dict[int, Dict[int, Tuple[Message, ...]]]:
        """Police, account and route one round: ``receiver -> sender -> msgs``.

        The first pass walks the edges in staging order and fuses the
        work per edge: sum the cached wire sizes, and if the edge fits
        within ``limit``, accumulate the round aggregates and route it
        into its receiver's inbox inline.  Staging order already lists
        each receiver's senders ascending (see :meth:`_collect_outbox`),
        so those inboxes need no sort.

        Edges above ``limit`` go to a second pass that admits them
        through the policy in sorted edge order (so a strict overflow
        names the smallest overflowing edge), drains any backlog,
        applies the fault plan edge by edge once every edge is policed,
        accounts the result, and re-sorts the inboxes it touched.
        ``limit`` is the policy's budget, or -1 while a fault plan is
        set or a backlog is queued, which defers every edge.  Every
        policy delivers an edge whole when it fits the budget and
        nothing is queued, so the two passes agree.
        """
        policy = self.policy
        limit = (
            -1 if self.fault_plan is not None or policy.has_backlog
            else policy.budget_bits
        )
        sizeof = self._sizeof
        track = self.metrics.edge_bits is not None
        edge_entries = [] if track else None
        round_messages = 0
        round_bits = 0
        max_bits = 0
        max_messages = 0
        deferred: List[Tuple[int, int]] = []
        inbox_map: Dict[int, Dict[int, Tuple[Message, ...]]] = {}
        for edge, messages in staged.items():
            bits = 0
            for message in messages:
                bits += sizeof(message)
            if bits > limit:
                deferred.append(edge)
                continue
            count = len(messages)
            round_messages += count
            round_bits += bits
            if bits > max_bits:
                max_bits = bits
            if count > max_messages:
                max_messages = count
            if track:
                edge_entries.append((edge, bits))
            sender, receiver = edge
            box = inbox_map.get(receiver)
            if box is None:
                inbox_map[receiver] = {sender: tuple(messages)}
            else:
                box[sender] = tuple(messages)

        if deferred or policy.has_backlog:
            round_no = self.round_no
            deliveries = {
                edge: policy.admit(edge, staged[edge], round_no)
                for edge in sorted(deferred)
            }
            if policy.has_backlog:
                # Drain skips every staged edge, so no key is overwritten.
                deliveries.update(
                    policy.drain(round_no, exclude=frozenset(staged))
                )
            touched = set()
            for edge, messages in deliveries.items():
                if self.fault_plan is not None:
                    messages = self._apply_faults(edge, messages)
                if not messages:
                    continue
                count = len(messages)
                bits = sum(sizeof(message) for message in messages)
                round_messages += count
                round_bits += bits
                max_bits = max(max_bits, bits)
                max_messages = max(max_messages, count)
                if track:
                    edge_entries.append((edge, bits))
                sender, receiver = edge
                inbox_map.setdefault(receiver, {})[sender] = tuple(messages)
                touched.add(receiver)
            for receiver in touched:
                inbox_map[receiver] = dict(sorted(inbox_map[receiver].items()))

        self.metrics.record_round_totals(
            round_messages, round_bits, max_bits, max_messages, edge_entries
        )
        return inbox_map

    def step(self) -> bool:
        """Execute one communication round; returns :attr:`running`."""
        if not self._started:
            self._start()
            return self.running
        if not self.running:
            return False
        if self.round_no >= self.max_rounds:
            unfinished = list(self._active)
            if self.fault_plan is not None:
                # Graceful degradation: a fault-injected run never
                # hangs and never hard-fails — it stops here with
                # partial results and a report naming the stalled nodes.
                self.fault_report.stalled = tuple(unfinished)
                self.fault_report.round_limit = self.max_rounds
                self.metrics.nodes_stalled = len(unfinished)
                self._stopped = True
                return False
            raise RoundLimitExceededError(self.max_rounds, len(unfinished))
        self.round_no += 1

        # Police staged traffic, account the round, and build inboxes.
        staged, self._staged = self._staged, {}
        inbox_map = self._deliver(staged)

        # Resume every live node program with its inbox.  ``_active``
        # holds exactly the non-halted, non-crashed nodes in ascending
        # id order; idle receivers share the empty-inbox singleton, and
        # nodes that staged nothing are not collected.
        fault_plan = self.fault_plan
        round_no = self.round_no
        states = self._states
        adopt = Inbox._adopt
        empty = Inbox.EMPTY
        next_active: List[int] = []
        for uid in self._active:
            state = states[uid]
            if fault_plan is not None and self._crash_if_due(
                uid, state, round_no
            ):
                continue
            by_sender = inbox_map.get(uid)
            inbox = empty if by_sender is None else adopt(by_sender)
            algorithm = state.algorithm
            algorithm.round = round_no
            try:
                state.generator.send(inbox)
            except StopIteration as stop:
                self._halt(state, stop.value)
                if algorithm._outbox._by_receiver:
                    self._collect_outbox(uid, state)
                continue
            if algorithm._outbox._by_receiver:
                self._collect_outbox(uid, state)
            next_active.append(uid)
        self._active = next_active
        return self.running

    def run(self) -> RunResult:
        """Run to completion and return per-node results plus metrics.

        Fault-free runs finish with every node halted; fault-injected
        runs may return partial results (crashed or stalled nodes have
        no entry) plus a :class:`~repro.congest.faults.FaultReport`.
        """
        while self.step():
            pass
        results = {
            uid: state.result
            for uid, state in self._states.items()
            if state.halted
        }
        return RunResult(
            results=results,
            metrics=self.metrics,
            fault_report=self.fault_report,
        )
