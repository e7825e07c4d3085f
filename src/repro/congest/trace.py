"""Round-by-round execution traces.

A :class:`TraceRecorder` observes every delivery the scheduler makes
and keeps a structured log — `(round, sender, receiver, message)` —
plus helpers to filter, summarize, and render an ASCII timeline.
Traces are the debugging instrument for distributed algorithms (ordering
bugs are invisible in end-state assertions) and power a handful of
white-box tests, e.g. "the pebble really moves one edge per round".

Attach with::

    network = Network(graph, factory)
    trace = TraceRecorder.attach(network)
    network.run()
    print(trace.timeline(kinds={"PebbleMsg"}))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from .message import Message
from .network import Network


@dataclass(frozen=True)
class TraceEvent:
    """One delivered message."""

    round_no: int
    sender: int
    receiver: int
    message: Message

    @property
    def kind(self) -> str:
        """Message type name (e.g. ``"BfsToken"``)."""
        return type(self.message).__name__


class TraceRecorder:
    """Collects every delivery of a :class:`Network` run."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        #: round -> directed edge -> messages still queued after that
        #: round's delivery; only backlogging policies populate it.
        self.queue_depths: Dict[int, Dict[Tuple[int, int], int]] = {}

    # -- attachment ----------------------------------------------------------

    @classmethod
    def attach(cls, network: Network) -> "TraceRecorder":
        """Wrap ``network``'s delivery so every delivered message is logged.

        The wrapper shadows ``Network._deliver`` on this one instance and
        reads its result: the messages that actually reach an inbox,
        after bandwidth policing, backlog draining and fault injection,
        in ascending ``(sender, receiver)`` order per round.  The network
        runs the same delivery code traced or not, so metrics and results
        are identical either way.
        """
        recorder = cls()
        deliver = network._deliver
        events = recorder.events

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
                    events.append(
                        TraceEvent(round_no, sender, receiver, message)
                    )
            queues = getattr(network.policy, "_queues", None)
            if queues:
                depths = {
                    edge: len(queue) for edge, queue in queues.items() if queue
                }
                if depths:
                    recorder.queue_depths[round_no] = depths
            return inbox_map

        network._deliver = traced  # type: ignore[method-assign]
        return recorder

    # -- queries ---------------------------------------------------------------

    def filter(
        self,
        *,
        kinds: Optional[Set[str]] = None,
        sender: Optional[int] = None,
        receiver: Optional[int] = None,
        predicate: Optional[Callable[[TraceEvent], bool]] = None,
    ) -> List[TraceEvent]:
        """Events matching all given criteria, in delivery order."""
        out = []
        for event in self.events:
            if kinds is not None and event.kind not in kinds:
                continue
            if sender is not None and event.sender != sender:
                continue
            if receiver is not None and event.receiver != receiver:
                continue
            if predicate is not None and not predicate(event):
                continue
            out.append(event)
        return out

    def rounds(self) -> int:
        """Highest round with any delivery."""
        return max((e.round_no for e in self.events), default=0)

    def counts_by_kind(self) -> Dict[str, int]:
        """Message counts per message type."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def per_round(self) -> Dict[int, List[TraceEvent]]:
        """Events grouped by round."""
        grouped: Dict[int, List[TraceEvent]] = {}
        for event in self.events:
            grouped.setdefault(event.round_no, []).append(event)
        return grouped

    # -- rendering ---------------------------------------------------------------

    def timeline(
        self,
        *,
        kinds: Optional[Set[str]] = None,
        max_rounds: Optional[int] = None,
    ) -> str:
        """A compact ASCII timeline: one line per round."""
        lines = []
        for round_no, events in sorted(self.per_round().items()):
            if max_rounds is not None and round_no > max_rounds:
                lines.append(f"... ({self.rounds() - max_rounds} more rounds)")
                break
            shown = [
                f"{e.sender}->{e.receiver}:{e.kind}"
                for e in events
                if kinds is None or e.kind in kinds
            ]
            if shown:
                lines.append(f"r{round_no:>4}  " + "  ".join(shown))
        return "\n".join(lines)
