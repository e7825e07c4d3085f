"""Bandwidth policies: what happens to the bits a node pushes onto an edge.

The CONGEST model allows ``B`` bits per directed edge per round.  The
paper's algorithms are *proven* to respect that budget, so the default
policy (:class:`StrictPolicy`) treats any overflow as a bug and raises.
Two further policies exist for experiments:

:class:`SerializingPolicy`
    Models a real link with a FIFO queue: per round, the oldest staged
    messages that fit in ``B`` bits are delivered, the rest wait.  This is
    the "serialize the long messages" semantics of Section 3.1, used to
    show why unmodified link-state / distance-vector algorithms go
    superlinear.

:class:`UnlimitedPolicy`
    The LOCAL model — no budget.  Useful as a reference when separating
    "rounds needed for information to travel" from "rounds needed because
    of congestion".
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from .errors import BandwidthExceededError
from .message import Message, SizeModel

#: A directed edge as an ordered pair of node ids.
DirectedEdge = Tuple[int, int]


class BandwidthPolicy:
    """Strategy deciding, per directed edge and round, what is delivered."""

    def __init__(self, budget_bits: int, model: SizeModel) -> None:
        self.budget_bits = budget_bits
        self.model = model

    def admit(
        self,
        edge: DirectedEdge,
        staged: List[Message],
        round_no: int,
    ) -> List[Message]:
        """Return the messages actually delivered over ``edge`` this round."""
        raise NotImplementedError

    @property
    def has_backlog(self) -> bool:
        """Whether undelivered messages are still queued on some edge."""
        return False

    def drain(
        self,
        round_no: int,
        exclude: frozenset = frozenset(),
    ) -> Dict[DirectedEdge, List[Message]]:
        """Deliveries for edges with queued backlog but no new sends.

        ``exclude`` lists edges already serviced via :meth:`admit` this
        round, which must not deliver twice.
        """
        return {}


class StrictPolicy(BandwidthPolicy):
    """Raise if an algorithm exceeds the per-edge budget (default).

    The scheduler delivers an edge that fits the budget inline, without
    calling :meth:`admit` (see ``Network._deliver``); every edge above
    it, and every edge while faults are configured, is admitted here in
    sorted edge order, so an overflow names the smallest such edge.
    """

    def admit(
        self,
        edge: DirectedEdge,
        staged: List[Message],
        round_no: int,
    ) -> List[Message]:
        size_bits = self.model.size_bits
        used = sum(size_bits(message) for message in staged)
        if used > self.budget_bits:
            sender, receiver = edge
            raise BandwidthExceededError(
                sender, receiver, round_no, used, self.budget_bits
            )
        return staged


class UnlimitedPolicy(BandwidthPolicy):
    """Deliver everything (the LOCAL model)."""

    def admit(
        self,
        edge: DirectedEdge,
        staged: List[Message],
        round_no: int,
    ) -> List[Message]:
        return staged


class SerializingPolicy(BandwidthPolicy):
    """FIFO-queue each directed edge; deliver at most ``B`` bits per round.

    A message larger than ``B`` on its own is delivered alone after
    ``ceil(size / B)`` rounds of link time — the closest round-based
    analogue of cutting one long message into ``B``-bit fragments.
    """

    def __init__(self, budget_bits: int, model: SizeModel) -> None:
        super().__init__(budget_bits, model)
        self._queues: Dict[DirectedEdge, Deque[Message]] = {}
        self._debt: Dict[DirectedEdge, int] = {}

    def admit(
        self,
        edge: DirectedEdge,
        staged: List[Message],
        round_no: int,
    ) -> List[Message]:
        queue = self._queues.setdefault(edge, deque())
        queue.extend(staged)
        return self._deliver(edge, queue)

    def _deliver(self, edge: DirectedEdge, queue: Deque[Message]) -> List[Message]:
        delivered: List[Message] = []
        capacity = self.budget_bits
        # Continue paying off an oversized message from earlier rounds.
        debt = self._debt.get(edge, 0)
        if debt > 0:
            if debt > capacity:
                self._debt[edge] = debt - capacity
                return delivered
            capacity -= debt
            self._debt[edge] = 0
            delivered.append(queue.popleft())
        while queue:
            size = self.model.size_bits(queue[0])
            if size <= capacity:
                capacity -= size
                delivered.append(queue.popleft())
            elif size > self.budget_bits and capacity == self.budget_bits:
                # Oversized message at the head of an otherwise idle link:
                # start streaming it; it pops once fully paid for.
                self._debt[edge] = size - capacity
                break
            else:
                break
        if not queue and edge in self._queues and not self._debt.get(edge):
            del self._queues[edge]
            self._debt.pop(edge, None)
        return delivered

    @property
    def has_backlog(self) -> bool:
        return any(self._queues.values())

    def drain(
        self,
        round_no: int,
        exclude: frozenset = frozenset(),
    ) -> Dict[DirectedEdge, List[Message]]:
        deliveries: Dict[DirectedEdge, List[Message]] = {}
        for edge in sorted(self._queues):
            if edge in exclude:
                continue
            queue = self._queues.get(edge)
            if not queue:
                continue
            delivered = self._deliver(edge, queue)
            if delivered:
                deliveries[edge] = delivered
        return deliveries


#: The bandwidth policies by name: every value ``policy=`` accepts.
POLICIES = {
    "strict": StrictPolicy,
    "serialize": SerializingPolicy,
    "unlimited": UnlimitedPolicy,
}


def make_policy(name: str, budget_bits: int, model: SizeModel) -> BandwidthPolicy:
    """Construct a policy by name: ``strict``, ``serialize`` or ``unlimited``."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown bandwidth policy {name!r}; "
            f"expected one of {sorted(POLICIES)}"
        )
    return cls(budget_bits, model)
