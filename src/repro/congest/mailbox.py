"""Per-round message containers.

An :class:`Outbox` collects what a node stages for delivery in the next
round; an :class:`Inbox` is what a node receives at the start of a round.
Both keep messages grouped by the *neighbor* on the other end of the edge,
because the CONGEST bandwidth budget is per edge, not per node.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Tuple

from .message import Message


class Outbox:
    """Messages staged by one node for the next communication round."""

    __slots__ = ("_by_receiver",)

    def __init__(self) -> None:
        self._by_receiver: Dict[int, List[Message]] = {}

    def add(self, receiver: int, message: Message) -> None:
        """Stage ``message`` for delivery to ``receiver`` next round."""
        self._by_receiver.setdefault(receiver, []).append(message)

    def items(self) -> Iterator[Tuple[int, List[Message]]]:
        """Iterate ``(receiver, messages)`` pairs in receiver order."""
        for receiver in sorted(self._by_receiver):
            yield receiver, self._by_receiver[receiver]

    def clear(self) -> None:
        """Drop all staged messages."""
        self._by_receiver.clear()

    def __len__(self) -> int:
        return sum(len(msgs) for msgs in self._by_receiver.values())

    def __bool__(self) -> bool:
        return bool(self._by_receiver)


class Inbox:
    """Messages delivered to one node at the start of a round.

    Iteration order is deterministic: senders ascending, then staging
    order within a sender.  The sender order is fixed once, when the
    inbox is built, so reading an inbox never sorts.
    """

    __slots__ = ("_by_sender",)

    EMPTY: "Inbox"

    def __init__(self, by_sender: Mapping[int, Tuple[Message, ...]] = ()) -> None:
        self._by_sender: Dict[int, Tuple[Message, ...]] = dict(
            sorted((by_sender or {}).items())
        )

    @classmethod
    def _adopt(cls, by_sender: Dict[int, Tuple[Message, ...]]) -> "Inbox":
        """Wrap ``by_sender`` without copying or sorting (scheduler path).

        The caller must hand over ownership of the dict, with its keys
        already in ascending sender order: inboxes are immutable from
        the node's side, so the scheduler builds one ordered dict per
        receiver per round and adopts it directly instead of paying a
        defensive copy.  Idle nodes share :data:`Inbox.EMPTY` instead
        of allocating a fresh empty inbox every round.
        """
        box = cls.__new__(cls)
        box._by_sender = by_sender
        return box

    def from_neighbor(self, sender: int) -> Tuple[Message, ...]:
        """All messages received from ``sender`` this round."""
        return self._by_sender.get(sender, ())

    def senders(self) -> Tuple[int, ...]:
        """Neighbors that sent at least one message, ascending."""
        return tuple(self._by_sender)

    def items(self) -> Iterator[Tuple[int, Message]]:
        """Iterate ``(sender, message)`` pairs deterministically."""
        for sender, messages in self._by_sender.items():
            for message in messages:
                yield sender, message

    def messages(self) -> List[Message]:
        """All received messages, deterministic order."""
        return [message for _, message in self.items()]

    def __len__(self) -> int:
        return sum(len(msgs) for msgs in self._by_sender.values())

    def __bool__(self) -> bool:
        return bool(self._by_sender)


Inbox.EMPTY = Inbox()
