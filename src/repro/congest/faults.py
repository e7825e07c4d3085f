"""Deterministic fault injection for the CONGEST simulator.

The paper's algorithms are proven correct in a perfectly reliable
synchronous network.  This module lets experiments ask what happens when
that assumption breaks, without giving up reproducibility:

* :class:`FaultSpec` — a JSON-pure description of the faults to inject:
  a per-message drop probability, scheduled link down/up intervals, and
  node crash-stops at fixed rounds.
* :class:`FaultPlan` — the compiled, *fully deterministic* decision
  procedure the :class:`~repro.congest.network.Network` consults during
  delivery.  Every decision is a pure function of
  ``(spec.seed, round, sender, receiver, message index)`` — independent
  of iteration order, process, or platform — so the same
  ``(FaultSpec, seed)`` always produces byte-identical runs.
* :class:`FaultReport` — the structured outcome attached to
  :class:`~repro.congest.network.RunResult`: which nodes crash-stopped,
  which stalled when the round-limit guard tripped, and how much
  traffic was lost.
* :func:`resilient` — a generic ack-free retransmit wrapper turning any
  :class:`~repro.congest.node.NodeAlgorithm` into one that survives
  bounded message loss at a constant-factor round overhead.

Fault semantics (all applied at delivery time, before metrics are
recorded, so dropped traffic never counts as delivered):

``drop_rate``
    Each message crossing an edge in a round is lost independently with
    this probability (a lossy link).  Decisions are derived from a keyed
    hash, not a shared RNG stream, so they do not depend on the order in
    which edges are processed.
``links``
    ``(u, v, down, up)`` intervals: the *undirected* link ``{u, v}``
    delivers nothing in any round ``r`` with ``down <= r < up``.
``crashes``
    ``uid -> round``: the node crash-stops at the *start* of that round.
    It does not execute that round or any later one, stages no further
    messages, and everything delivered to it from then on is suppressed.
    Messages it staged while still alive are delivered normally (they
    were already in flight).

A crash can leave the remaining nodes waiting forever; the network's
``max_rounds`` guard then stops the run *gracefully* (partial results
plus a :class:`FaultReport` naming the stalled nodes) instead of raising
:class:`~repro.congest.errors.RoundLimitExceededError` — faulty runs
never hang and never hard-fail.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from typing import Union

from .mailbox import Inbox
from .message import Message
from .node import NodeAlgorithm, NodeContext


@dataclass(frozen=True)
class LinkOutage:
    """One scheduled outage of the undirected link ``{u, v}``.

    The link is down for every round ``r`` with ``down <= r < up``
    (half-open, like a Python range).
    """

    u: int
    v: int
    down: int
    up: int

    def covers(self, round_no: int) -> bool:
        """Whether the link is down in ``round_no``."""
        return self.down <= round_no < self.up

    def to_list(self) -> List[int]:
        """JSON-pure rendering as ``[u, v, down, up]``."""
        return [self.u, self.v, self.down, self.up]


@dataclass(frozen=True)
class FaultSpec:
    """Declarative, JSON-pure description of the faults to inject.

    All randomness derives from ``seed`` (independent of the algorithm
    seed), so a spec plus a topology pins down every fault decision.
    The spec is hashable and round-trips through :meth:`to_dict` /
    :meth:`from_dict`, which is what lets campaign tasks carry it.
    """

    #: Independent per-message loss probability in ``[0, 1]``.
    drop_rate: float = 0.0
    #: Seed for the drop decisions (keyed-hash, order-independent).
    seed: int = 0
    #: Scheduled link outages.
    links: Tuple[LinkOutage, ...] = ()
    #: ``(uid, round)`` crash-stops, one per node at most.
    crashes: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError(
                f"drop_rate must be in [0, 1], got {self.drop_rate}"
            )
        uids = [uid for uid, _ in self.crashes]
        if len(uids) != len(set(uids)):
            raise ValueError("a node may crash at most once")

    @property
    def is_noop(self) -> bool:
        """Whether this spec injects no faults at all."""
        return not (self.drop_rate or self.links or self.crashes)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-pure rendering (inverse of :meth:`from_dict`)."""
        data: Dict[str, Any] = {
            "drop_rate": self.drop_rate,
            "seed": self.seed,
        }
        if self.links:
            data["links"] = [outage.to_list() for outage in self.links]
        if self.crashes:
            data["crashes"] = {
                str(uid): round_no for uid, round_no in self.crashes
            }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        """Build a spec from its :meth:`to_dict` shape.

        ``links`` is a list of ``[u, v, down, up]`` quadruples;
        ``crashes`` maps node id (int or str — JSON keys are strings)
        to the crash round.
        """
        known = {"drop_rate", "seed", "links", "crashes"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fault spec fields {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        links = tuple(
            LinkOutage(int(u), int(v), int(down), int(up))
            for u, v, down, up in data.get("links", ())
        )
        crashes_raw = data.get("crashes", {})
        if isinstance(crashes_raw, Mapping):
            crash_items = crashes_raw.items()
        else:
            crash_items = list(crashes_raw)
        crashes = tuple(sorted(
            (int(uid), int(round_no)) for uid, round_no in crash_items
        ))
        return cls(
            drop_rate=float(data.get("drop_rate", 0.0)),
            seed=int(data.get("seed", 0)),
            links=links,
            crashes=crashes,
        )


#: Anything the network accepts as its ``faults`` argument: a spec, a
#: compiled plan, a plain mapping in ``FaultSpec.to_dict`` form, or
#: ``None`` for the paper's perfectly reliable network.
FaultsLike = Optional[Union[FaultSpec, "FaultPlan", Mapping[str, Any]]]


class FaultPlan:
    """Compiled fault decisions for one run (see module docstring).

    Stateless with respect to the simulation: every query is a pure
    function of its arguments, so consulting the plan in any order —
    or twice — yields the same answers.
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._crash_rounds: Dict[int, int] = dict(spec.crashes)
        self._outages: Dict[Tuple[int, int], List[LinkOutage]] = {}
        for outage in spec.links:
            pair = (min(outage.u, outage.v), max(outage.u, outage.v))
            self._outages.setdefault(pair, []).append(outage)
        self._drop_key = f"{spec.seed}|drop".encode("ascii")
        #: Capability flags: which fault kinds this plan can ever fire.
        #: The scheduler consults them to skip whole filtering phases
        #: (e.g. the per-message drop loop when ``drop_rate == 0``)
        #: without changing any decision the plan would make.
        self.has_drops: bool = spec.drop_rate > 0.0
        self.has_outages: bool = bool(self._outages)

    def crash_round(self, uid: int) -> Optional[int]:
        """The round at which ``uid`` crash-stops, or ``None``."""
        return self._crash_rounds.get(uid)

    def is_crashed(self, uid: int, round_no: int) -> bool:
        """Whether ``uid`` has crash-stopped by ``round_no``."""
        crash = self._crash_rounds.get(uid)
        return crash is not None and round_no >= crash

    def link_down(self, sender: int, receiver: int, round_no: int) -> bool:
        """Whether the (undirected) link is down in ``round_no``."""
        if not self.has_outages:
            return False
        pair = (min(sender, receiver), max(sender, receiver))
        outages = self._outages.get(pair)
        if not outages:
            return False
        return any(outage.covers(round_no) for outage in outages)

    def drops(
        self, sender: int, receiver: int, round_no: int, index: int
    ) -> bool:
        """Whether message ``index`` on this directed edge is lost.

        Deterministic: a keyed blake2b hash of
        ``(seed, round, sender, receiver, index)`` is compared against
        ``drop_rate``, so the decision never depends on how many other
        messages exist or in which order edges are examined.
        """
        rate = self.spec.drop_rate
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        digest = hashlib.blake2b(
            f"{round_no}|{sender}|{receiver}|{index}".encode("ascii"),
            key=self._drop_key,
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "big") / 2 ** 64 < rate


@dataclass
class FaultReport:
    """Structured outcome of a fault-injected run.

    Attached to :class:`~repro.congest.network.RunResult` whenever a
    :class:`FaultSpec` was configured (even if nothing fired), ``None``
    otherwise.  ``crashed`` maps node id to the round its crash-stop
    took effect; ``stalled`` lists the nodes that were still live when
    the ``max_rounds`` guard stopped the run.
    """

    crashed: Dict[int, int] = field(default_factory=dict)
    stalled: Tuple[int, ...] = ()
    #: The round limit that tripped, when the run was cut short.
    round_limit: Optional[int] = None
    messages_dropped: int = 0
    messages_suppressed: int = 0

    @property
    def completed(self) -> bool:
        """Whether every surviving node halted normally."""
        return not self.stalled

    def to_dict(self) -> Dict[str, Any]:
        """JSON-pure rendering (for harness records and logs)."""
        return {
            "crashed": {str(uid): r for uid, r in sorted(self.crashed.items())},
            "stalled": sorted(self.stalled),
            "round_limit": self.round_limit,
            "messages_dropped": self.messages_dropped,
            "messages_suppressed": self.messages_suppressed,
            "completed": self.completed,
        }


def ensure_plan(
    faults: "FaultSpec | FaultPlan | Mapping[str, Any] | None",
) -> Optional[FaultPlan]:
    """Normalize the ``faults`` argument accepted by the network.

    Accepts ``None`` (no injection), a :class:`FaultSpec`, an already
    compiled :class:`FaultPlan`, or a plain mapping in
    :meth:`FaultSpec.to_dict` form (what harness task params carry).
    """
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        return faults
    if isinstance(faults, FaultSpec):
        return FaultPlan(faults)
    if isinstance(faults, Mapping):
        return FaultPlan(FaultSpec.from_dict(faults))
    raise TypeError(
        f"faults must be a FaultSpec, FaultPlan, mapping or None, "
        f"got {type(faults).__name__}"
    )


# ---------------------------------------------------------------------------
# Resilience: surviving bounded message loss by retransmission.
# ---------------------------------------------------------------------------


class ResilientNode(NodeAlgorithm):
    """Retransmit wrapper executing one *logical* round per frame.

    Physical time is divided into frames of ``replicas`` rounds.  In
    each frame the wrapper retransmits the wrapped algorithm's staged
    messages once per physical round and accumulates (deduplicating)
    everything received; at the frame boundary the union is delivered
    to the wrapped algorithm as one logical inbox.  A logical message
    survives unless *all* ``replicas`` copies are lost, so under an
    independent per-copy loss probability ``p`` the effective loss rate
    drops to ``p ** replicas`` at exactly a factor-``replicas`` round
    overhead.

    The wrapped algorithm's ``round`` attribute counts logical rounds,
    so round-arithmetic sub-protocols (``wait_until_round`` and
    friends) keep working unchanged.

    Limitation: duplicates are detected by message *value*, so two
    identical messages staged for the same neighbor in the same logical
    round collapse into one.  None of the paper's protocols do that.
    """

    def __init__(
        self,
        ctx: NodeContext,
        factory: Callable[[NodeContext], NodeAlgorithm],
        replicas: int,
    ) -> None:
        super().__init__(ctx)
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.inner = factory(ctx)
        self.replicas = replicas

    def program(self):
        """Drive the wrapped program one logical round per frame."""
        inner, generator = self.inner, self.inner.program()
        done, result = False, None
        try:
            next(generator)
        except StopIteration as stop:
            done, result = True, stop.value
        frame = 0
        while True:
            staged = [
                (receiver, list(messages))
                for receiver, messages in inner._take_outbox().items()
            ]
            received: Dict[int, List[Message]] = {}
            seen: set = set()
            for _ in range(self.replicas):
                for receiver, messages in staged:
                    for message in messages:
                        self.send(receiver, message)
                inbox = yield
                for sender, message in inbox.items():
                    token = (sender, message)
                    if token not in seen:
                        seen.add(token)
                        received.setdefault(sender, []).append(message)
            if done:
                return result
            frame += 1
            inner.round = frame
            logical_inbox = Inbox({
                sender: tuple(messages)
                for sender, messages in received.items()
            })
            try:
                generator.send(logical_inbox)
            except StopIteration as stop:
                done, result = True, stop.value


def resilient(
    factory: Callable[[NodeContext], NodeAlgorithm],
    *,
    replicas: int = 3,
) -> Callable[[NodeContext], ResilientNode]:
    """Wrap an algorithm factory in the retransmit scheme.

    Usage::

        Network(graph, resilient(BfsNode, replicas=4),
                faults=FaultSpec(drop_rate=0.2, seed=1)).run()

    Per-round per-edge traffic never exceeds what the wrapped algorithm
    sends in one logical round, so the CONGEST budget still holds; the
    round count grows by exactly a factor of ``replicas`` (plus one
    final flush frame).  See :class:`ResilientNode` for semantics.
    """

    def make(ctx: NodeContext) -> ResilientNode:
        return ResilientNode(ctx, factory, replicas)

    return make
