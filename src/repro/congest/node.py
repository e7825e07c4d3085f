"""The per-node programming model.

Algorithms are written as *node programs*: Python generators that run one
segment of local computation per round, stage outgoing messages with
:meth:`NodeAlgorithm.send`, and then ``yield`` to receive the next round's
:class:`~repro.congest.mailbox.Inbox`.  The canonical shape is::

    class MyAlgorithm(NodeAlgorithm):
        def program(self):
            self.send(neighbor, Token())       # staged for round 1
            inbox = yield                      # round 1 delivery
            ...
            return local_result                # halts this node

Multi-phase algorithms compose sub-protocols with ``yield from`` — see
:mod:`repro.core.subroutines`.  The generator's return value becomes the
node's result in the :class:`~repro.congest.network.RunResult`.

Synchrony is exactly the paper's: all nodes wake simultaneously in round
0 (no inbox), and a message staged during round ``r`` is delivered at the
start of round ``r + 1``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Generator, Optional, Tuple

from .errors import ProtocolError
from .mailbox import Inbox, Outbox
from .message import Message, SizeModel

#: Type alias for node programs.
NodeProgram = Generator[None, Inbox, Any]


class PublicRandomness:
    """One shared public-coin stream, handed out as per-node views.

    Sharing semantics
    -----------------
    The paper's "(public) randomness" (Definition 1) is a *common random
    string*: every node reads the same coin flips.  We model that by
    giving every node a ``random.Random`` whose stream is identical —
    node ``u``'s ``k``-th draw equals node ``v``'s ``k``-th draw — while
    private randomness (``ctx.rng``) stays per-node.

    The network used to realize this by string-seeding a fresh
    ``random.Random(f"{seed}|public")`` *per node*, paying the SHA-512
    seeding cost ``n`` times for ``n`` copies of the same stream.  This
    class seeds the underlying Mersenne Twister exactly once and
    :meth:`view` clones the resulting state into each node's instance,
    which is observationally identical (same stream per node, streams
    advance independently) but shares the expensive seeding.
    """

    __slots__ = ("_state",)

    def __init__(self, seed_key: str) -> None:
        self._state = random.Random(seed_key).getstate()

    def view(self) -> random.Random:
        """A fresh ``random.Random`` positioned at the shared stream's start."""
        rng = random.Random()
        rng.setstate(self._state)
        return rng


@dataclass(frozen=True)
class NodeContext:
    """Everything a node is allowed to know at wake-up.

    Mirrors the paper's assumptions: a node knows its own identifier, the
    identifiers of its immediate neighbors, the network size ``n``, and
    the bandwidth ``B``.  It does *not* know anything else about the
    topology.

    ``rng`` is the node's private randomness; ``public_rng`` is shared
    randomness — every node's ``public_rng`` yields the identical stream,
    matching the paper's "(public) randomness" in Definition 1.  The
    streams are views of one :class:`PublicRandomness` object (seeded
    once per network, cloned per node — see its docstring for the
    sharing semantics); each view advances independently, so one node's
    draws never perturb another's.  Both generators are built on first
    read, so programs that never draw (Algorithms 1 and 2) never pay
    for them; the streams are the same whenever they are first read.
    ``input_value`` carries per-node problem input (e.g. membership in
    the set ``S`` for S-SP).
    """

    uid: int
    neighbors: Tuple[int, ...]
    n: int
    bandwidth_bits: int
    size_model: SizeModel
    #: The run seed and the shared public stream the two generators are
    #: derived from (framework plumbing, not part of a node's knowledge).
    _seed: int = field(compare=False, repr=False)
    _public: PublicRandomness = field(compare=False, repr=False)
    input_value: Any = None

    @property
    def degree(self) -> int:
        """Number of incident edges."""
        return len(self.neighbors)

    @cached_property
    def rng(self) -> random.Random:
        """This node's private randomness, seeded from ``(seed, uid)``."""
        return random.Random(f"{self._seed}|node|{self.uid}")

    @cached_property
    def public_rng(self) -> random.Random:
        """This node's view of the shared public stream."""
        return self._public.view()


class NodeAlgorithm:
    """Base class for per-node programs.

    Subclasses implement :meth:`program`.  The framework instantiates one
    object per node, drives its generator in lockstep with all others, and
    collects the generator's return value as the node's local output.
    """

    def __init__(self, ctx: NodeContext) -> None:
        self.ctx = ctx
        self.round: int = 0
        self._outbox = Outbox()
        self._neighbor_set = frozenset(ctx.neighbors)
        self._halted = False

    # -- the API available to node programs --------------------------------

    @property
    def uid(self) -> int:
        """This node's identifier."""
        return self.ctx.uid

    @property
    def neighbors(self) -> Tuple[int, ...]:
        """Identifiers of adjacent nodes, ascending."""
        return self.ctx.neighbors

    @property
    def n(self) -> int:
        """Number of nodes in the network (globally known)."""
        return self.ctx.n

    def send(self, receiver: int, message: Message) -> None:
        """Stage ``message`` for delivery to neighbor ``receiver``.

        Delivery happens at the start of the next round.  Sending to a
        non-neighbor is a :class:`~repro.congest.errors.ProtocolError`
        (the model has no routing — only direct links).
        """
        if receiver not in self._neighbor_set:
            raise ProtocolError(
                f"node {self.uid} tried to send to non-neighbor {receiver}"
            )
        if self._halted:
            raise ProtocolError(f"node {self.uid} sent after halting")
        if not isinstance(message, Message):
            raise ProtocolError(
                f"node {self.uid} tried to send non-Message {message!r}"
            )
        by_receiver = self._outbox._by_receiver
        staged = by_receiver.get(receiver)
        if staged is None:
            by_receiver[receiver] = [message]
        else:
            staged.append(message)

    def send_all(self, message: Message) -> None:
        """Stage the same ``message`` to every neighbor (a local broadcast)."""
        for neighbor in self.ctx.neighbors:
            self.send(neighbor, message)

    # -- to be provided by subclasses ---------------------------------------

    def program(self) -> NodeProgram:
        """The node's behaviour; must be a generator (see module docs)."""
        raise NotImplementedError

    # -- framework plumbing --------------------------------------------------

    def _take_outbox(self) -> Outbox:
        outbox, self._outbox = self._outbox, Outbox()
        return outbox

    def _mark_halted(self) -> None:
        self._halted = True


@dataclass
class NodeState:
    """Framework-side bookkeeping for one running node (not public API)."""

    algorithm: NodeAlgorithm
    generator: Optional[NodeProgram] = None
    halted: bool = False
    result: Any = None
    #: Set when fault injection crash-stopped this node (see
    #: :mod:`repro.congest.faults`); a crashed node never resumes.
    crashed: bool = False
