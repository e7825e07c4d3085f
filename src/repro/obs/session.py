"""Capture sessions: turn one simulation run into a structured trace.

:func:`capture` is the front door of the observability layer::

    from repro import core, graphs, obs

    with obs.capture() as session:
        core.run_apsp(graphs.torus_graph(4, 4))
    trace = session.trace
    print(trace.rounds, len(trace.messages))

It installs two hooks for the duration of the ``with`` body:

1. a :class:`~repro.obs.tracer.Tracer` in the module-level slot, so the
   span/event instrumentation inside :mod:`repro.core` starts emitting;
2. a network-construction observer
   (:func:`repro.congest.network.set_network_observer`), so every
   :class:`~repro.congest.network.Network` built inside the body —
   by a ``repro.core`` entry point or by hand — has its delivery step
   wrapped: message-level capture with zero changes to the entry points.

Both hooks are restored on exit (previous values, so captures nest).
The wrapper shadows ``Network._deliver`` on that one instance and only
reads its result, so a traced run executes the same delivery code as an
untraced one; untraced networks are untouched.

The output is a :class:`Trace`: message records (round, edge, kind,
bits, payload), the span/event stream, per-round aggregates, queue
depths (for serializing policies), and network metadata.  Exporters
(:mod:`repro.obs.export`) and invariant checkers
(:mod:`repro.obs.invariants`) consume this object; nothing downstream
touches live networks.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..congest import network as network_mod
from ..congest.message import Message
from ..congest.network import Network
from . import tracer as tracer_mod
from .tracer import ObsRecord, SpanRecord, Tracer

DirectedEdge = Tuple[int, int]

#: One delivered message as the hook records it:
#: ``(round, sender, receiver, message)``.
Delivery = Tuple[int, int, int, Message]

#: round → directed edge → messages still queued after that round.
QueueDepths = Dict[int, Dict[DirectedEdge, int]]

#: Trace stream schema identifier; bump when record shapes change.
SCHEMA = "repro-trace/1"


@dataclass(frozen=True)
class MessageRecord:
    """One delivered message, sized and decoded."""

    round_no: int
    sender: int
    receiver: int
    kind: str                       # message type name, e.g. "BfsToken"
    bits: int                       # wire size charged against the budget
    fields: Dict[str, Any] = field(default_factory=dict)

    @property
    def edge(self) -> DirectedEdge:
        """The directed edge the message crossed."""
        return (self.sender, self.receiver)


@dataclass(frozen=True)
class RoundStats:
    """Aggregates for one delivery round."""

    round_no: int
    messages: int
    bits: int
    max_edge_bits: int
    busiest_edge: Optional[DirectedEdge]


@dataclass
class Trace:
    """Everything observed about one simulation run (see module doc)."""

    n: int
    m: int
    bandwidth_bits: int
    rounds: int
    messages: List[MessageRecord]
    events: List[ObsRecord]
    spans: List[SpanRecord]
    #: round → directed edge → queued (undelivered) messages; only
    #: populated under backlogging (serializing) policies.
    queue_depths: QueueDepths
    label: Optional[str] = None

    # -- derived views -----------------------------------------------------

    def per_round(self) -> Dict[int, List[MessageRecord]]:
        """Messages grouped by round (ascending round order)."""
        grouped: Dict[int, List[MessageRecord]] = {}
        for record in self.messages:
            grouped.setdefault(record.round_no, []).append(record)
        return dict(sorted(grouped.items()))

    def round_stats(self) -> List[RoundStats]:
        """Per-round aggregates, ascending by round."""
        stats = []
        for round_no, records in self.per_round().items():
            edge_bits: Dict[DirectedEdge, int] = {}
            for record in records:
                edge_bits[record.edge] = (
                    edge_bits.get(record.edge, 0) + record.bits
                )
            busiest = max(edge_bits, key=lambda e: (edge_bits[e], e))
            stats.append(
                RoundStats(
                    round_no=round_no,
                    messages=len(records),
                    bits=sum(r.bits for r in records),
                    max_edge_bits=edge_bits[busiest],
                    busiest_edge=busiest,
                )
            )
        return stats

    def edge_totals(self) -> Dict[DirectedEdge, Tuple[int, int]]:
        """Cumulative ``(messages, bits)`` per directed edge."""
        totals: Dict[DirectedEdge, Tuple[int, int]] = {}
        for record in self.messages:
            count, bits = totals.get(record.edge, (0, 0))
            totals[record.edge] = (count + 1, bits + record.bits)
        return totals

    def counts_by_kind(self) -> Dict[str, int]:
        """Delivered-message census per message type."""
        counts: Dict[str, int] = {}
        for record in self.messages:
            counts[record.kind] = counts.get(record.kind, 0) + 1
        return counts

    def max_edge_utilization(self) -> float:
        """Peak single-round edge load as a fraction of the budget ``B``."""
        peak = 0
        for stats in self.round_stats():
            if stats.max_edge_bits > peak:
                peak = stats.max_edge_bits
        return peak / self.bandwidth_bits if self.bandwidth_bits else 0.0

    def summary_dict(self) -> Dict[str, Any]:
        """Deterministic JSON-pure digest (campaign records store this).

        Everything here is a pure function of the simulation, so records
        carrying it stay byte-comparable across cache replays.
        """
        from .invariants import lemma1_collisions, max_wave_delay, \
            pebble_hops_per_round

        totals = self.edge_totals()
        busiest = (
            max(totals, key=lambda e: (totals[e][1], e)) if totals else None
        )
        pebble_hops = pebble_hops_per_round(self)
        wave_delay = max_wave_delay(self)
        summary: Dict[str, Any] = {
            "schema": SCHEMA,
            "rounds": self.rounds,
            "messages": len(self.messages),
            "events": len(self.events),
            "spans": len(self.spans),
            "kinds": dict(sorted(self.counts_by_kind().items())),
            "max_edge_utilization": round(self.max_edge_utilization(), 6),
            "lemma1_collisions": len(lemma1_collisions(self)),
        }
        if busiest is not None:
            count, bits = totals[busiest]
            summary["busiest_edge"] = [busiest[0], busiest[1], bits]
        if pebble_hops:
            summary["max_pebble_hops_per_round"] = max(pebble_hops.values())
        if wave_delay is not None:
            summary["max_wave_delay"] = wave_delay
        return summary


class CaptureSession:
    """Accumulates observations while :func:`capture` hooks are live."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: Per captured network: its deliveries and its queue depths.
        self._captures: List[Tuple[Network, List[Delivery], QueueDepths]] = []

    # -- the network-construction hook -------------------------------------

    def _observe(self, network: Network) -> None:
        """Wrap ``network``'s delivery so every delivered message is logged.

        The wrapper reads what ``Network._deliver`` returns: the messages
        that actually reach an inbox, after bandwidth policing, backlog
        draining and fault injection, in ascending ``(sender, receiver)``
        order per round.  Under a backlogging policy it also records the
        queue depths left after each round's delivery.
        """
        deliveries: List[Delivery] = []
        queue_depths: QueueDepths = {}
        deliver = network._deliver

        def traced(staged):
            inbox_map = deliver(staged)
            round_no = network.round_no
            delivered = sorted(
                (sender, receiver, messages)
                for receiver, by_sender in inbox_map.items()
                for sender, messages in by_sender.items()
            )
            for sender, receiver, messages in delivered:
                for message in messages:
                    deliveries.append((round_no, sender, receiver, message))
            queues = getattr(network.policy, "_queues", None)
            if queues:
                depths = {
                    edge: len(queue) for edge, queue in queues.items() if queue
                }
                if depths:
                    queue_depths[round_no] = depths
            return inbox_map

        network._deliver = traced  # type: ignore[method-assign]
        self._captures.append((network, deliveries, queue_depths))

    # -- results -----------------------------------------------------------

    @property
    def network_count(self) -> int:
        """How many networks were constructed under this capture."""
        return len(self._captures)

    def build_trace(self, index: int = 0, *,
                    label: Optional[str] = None) -> Trace:
        """Assemble the :class:`Trace` of the ``index``-th network."""
        if not self._captures:
            raise ValueError(
                "no network was constructed inside this capture; "
                "run a repro.core entry point (or build a Network) "
                "within the `with obs.capture()` body"
            )
        network, deliveries, queue_depths = self._captures[index]
        sizeof = network.size_model.size_bits
        messages = [
            MessageRecord(
                round_no=round_no,
                sender=sender,
                receiver=receiver,
                kind=type(message).__name__,
                bits=sizeof(message),
                fields=dataclasses.asdict(message),
            )
            for round_no, sender, receiver, message in deliveries
        ]
        final_round = network.round_no
        return Trace(
            n=network.graph.n,
            m=network.graph.m,
            bandwidth_bits=network.bandwidth_bits,
            rounds=final_round,
            messages=messages,
            events=self.tracer.events(),
            spans=self.tracer.finished_spans(final_round=final_round),
            queue_depths=queue_depths,
            label=label,
        )

    @property
    def trace(self) -> Trace:
        """The trace of the first (usually only) captured network."""
        return self.build_trace(0)

    def summary(self) -> Dict[str, Any]:
        """JSON-pure digest of the first captured network's trace."""
        return self.trace.summary_dict()


@contextmanager
def capture(
    *,
    tracer: Optional[Tracer] = None,
    messages: bool = True,
) -> Iterator[CaptureSession]:
    """Record every simulation run in the ``with`` body (module doc).

    ``messages=False`` skips the network hook — only span/event
    instrumentation is collected, and networks run unwrapped (useful
    for cheap phase-level timelines on large runs).
    """
    session = CaptureSession(tracer if tracer is not None else Tracer())
    previous_tracer = tracer_mod.install(session.tracer)
    previous_observer = (
        network_mod.set_network_observer(session._observe)
        if messages else None
    )
    try:
        yield session
    finally:
        if messages:
            network_mod.set_network_observer(previous_observer)
        tracer_mod.install(previous_tracer)
