"""Composable per-node sub-protocols.

These are generator functions designed for ``yield from`` inside a
:meth:`~repro.congest.node.NodeAlgorithm.program`.  Each one assumes all
nodes of the network enter it **in the same round** (phase alignment) and
each one leaves all nodes aligned again on exit — the invariant that lets
multi-phase algorithms like Algorithm 1 compose without per-phase
termination detection.  Alignment is achieved the way the paper implies:
the tree root learns its exact eccentricity during construction and
announces globally valid round numbers.

Provided building blocks:

* :func:`build_bfs_tree` — distributed BFS tree with echo (the paper's
  ``T_1``/``T_v`` construction, Definition 8 + Claim 1), returning a
  :class:`TreeInfo` at every node.  The root's eccentricity and a
  marked-node census ride along on the echo.
* :func:`aligned_broadcast` — root value to everyone over the tree.
* :func:`aligned_convergecast` — combine values up the tree.
* :func:`aggregate_and_share` — convergecast + broadcast: everyone ends
  up with the combined value (used for the max/min aggregations of
  Lemmas 3–6).
* :func:`wait_until_round` — idle until a globally known round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional, Set, Tuple

from ..congest.errors import ProtocolError
from ..congest.mailbox import Inbox
from ..congest.message import INFINITY
from ..congest.node import NodeAlgorithm
from ..obs.tracer import active as obs_active
from .messages import BfsToken, DownMsg, EchoMsg, JoinMsg, SyncMsg, UpMsg

Subroutine = Generator[None, Inbox, object]
Combine = Callable[[int, int], int]


@dataclass(frozen=True)
class TreeInfo:
    """What every node knows about a constructed BFS tree.

    ``ecc_root`` is exact (learned via echo + sync broadcast), so every
    node can locally compute the paper's diameter bound
    ``D0 = 2 · ecc_root ≥ D`` (Fact 1).  ``start_round`` is the first
    round of the phase following construction; all nodes leave
    :func:`build_bfs_tree` exactly then.
    """

    root: int
    depth: int
    parent: Optional[int]
    children: Tuple[int, ...]
    ecc_root: int
    marked_count: int
    start_round: int

    @property
    def is_root(self) -> bool:
        """Whether this node is the tree root."""
        return self.parent is None

    @property
    def diameter_bound(self) -> int:
        """``D0 = 2 · ecc(root)``, an upper bound on the diameter."""
        return max(1, 2 * self.ecc_root)


# ---------------------------------------------------------------------------
# Combine helpers (INFINITY-aware).
# ---------------------------------------------------------------------------


def combine_min(a: int, b: int) -> int:
    """Minimum where :data:`INFINITY` acts as +∞."""
    if a == INFINITY:
        return b
    if b == INFINITY:
        return a
    return min(a, b)


def combine_max(a: int, b: int) -> int:
    """Maximum where :data:`INFINITY` acts as +∞ (and therefore wins)."""
    if a == INFINITY or b == INFINITY:
        return INFINITY
    return max(a, b)


def combine_sum(a: int, b: int) -> int:
    """Sum of finite values (callers must not feed INFINITY)."""
    if a == INFINITY or b == INFINITY:
        raise ProtocolError("combine_sum received INFINITY")
    return a + b


def wait_until_round(node: NodeAlgorithm, target: int) -> Subroutine:
    """Idle (yielding once per round) until ``node.round == target``.

    Entering at a round past ``target`` is a protocol bug and raises.
    """
    if node.round > target:
        raise ProtocolError(
            f"node {node.uid} missed alignment round {target} "
            f"(now at {node.round})"
        )
    while node.round < target:
        yield
    return None


def build_bfs_tree(
    node: NodeAlgorithm,
    root: int,
    *,
    mark: int = 1,
    slack: int = 1,
) -> Subroutine:
    """Construct the BFS tree ``T_root`` with echo; returns :class:`TreeInfo`.

    All nodes must enter in the same round.  The protocol is the paper's
    Claim 1 BFS plus standard bookkeeping:

    1. the root floods :class:`~repro.core.messages.BfsToken`; a node
       adopting depth ``t`` re-floods to all neighbors it did *not* hear
       from in its adoption round, and tells its chosen parent (smallest
       id among the first senders) via :class:`JoinMsg`;
    2. once a node knows its children it waits for their
       :class:`EchoMsg` aggregates (max depth / mark census) and passes
       the combination up;
    3. the root, upon full echo, knows ``ecc(root)`` and the census, and
       broadcasts a :class:`SyncMsg` carrying them plus a ``start_round``
       far enough out (``ecc(root) + slack`` rounds) for everyone to
       receive it; all nodes exit together at ``start_round``.

    Total cost ≤ ``3 · ecc(root) + O(1)`` rounds, i.e. ``O(D)``.
    """
    is_root = node.uid == root
    depth: Optional[int] = 0 if is_root else None
    parent: Optional[int] = None
    first_senders: Tuple[int, ...] = ()
    mark_value = mark

    tracer = obs_active()
    tree_span = (
        tracer.span_begin("bfs_tree", node=node.uid,
                          round_no=node.round, root=root)
        if tracer is not None else None
    )

    if is_root:
        node.send_all(BfsToken(root=root, dist=0))
    # --- Phase 1: wave, adoption, child discovery -------------------------
    while depth is None:
        inbox = yield
        if not inbox:
            continue
        tokens = [
            (sender, msg)
            for sender, msg in inbox.items()
            if isinstance(msg, BfsToken) and msg.root == root
        ]
        if not tokens:
            continue
        depth = tokens[0][1].dist + 1
        first_senders = tuple(sender for sender, _ in tokens)
        parent = min(first_senders)
        node.send(parent, JoinMsg(root=root))
        suppressed = set(first_senders)
        token = BfsToken(root=root, dist=depth)
        for neighbor in node.neighbors:
            if neighbor not in suppressed:
                node.send(neighbor, token)

    # A child adopts one round after our flood and its JoinMsg needs one
    # more round to travel back, so joins land exactly two rounds after we
    # staged our tokens; scan both intervening inboxes.
    joined = []
    for _ in range(2):
        inbox = yield
        if not inbox:
            continue
        joined.extend(
            sender
            for sender, msg in inbox.items()
            if isinstance(msg, JoinMsg) and msg.root == root
        )
    children = tuple(sorted(joined))

    # --- Phase 2: echo ------------------------------------------------------
    pending: Set[int] = set(children)
    agg_depth = depth
    agg_marked = mark_value
    while pending:
        inbox = yield
        if not inbox:
            continue
        for sender, msg in inbox.items():
            if isinstance(msg, EchoMsg) and msg.root == root and sender in pending:
                pending.discard(sender)
                agg_depth = max(agg_depth, msg.primary)
                agg_marked += msg.secondary

    if not is_root:
        node.send(parent, EchoMsg(root=root, primary=agg_depth,
                                  secondary=agg_marked))
        # --- Phase 3 (non-root): await sync, forward, align ----------------
        sync: Optional[SyncMsg] = None
        while sync is None:
            inbox = yield
            if not inbox:
                continue
            for _, msg in inbox.items():
                if isinstance(msg, SyncMsg) and msg.root == root:
                    sync = msg
                    break
        for child in children:
            node.send(child, sync)
        yield from wait_until_round(node, sync.start_round)
        if tree_span is not None:
            tracer.span_end(tree_span, round_no=node.round, depth=depth,
                            children=len(children))
        return TreeInfo(
            root=root,
            depth=depth,
            parent=parent,
            children=children,
            ecc_root=sync.ecc_root,
            marked_count=sync.marked,
            start_round=sync.start_round,
        )

    # --- Phase 3 (root): announce -------------------------------------------
    ecc_root = agg_depth
    start_round = node.round + ecc_root + 1 + slack
    sync = SyncMsg(root=root, ecc_root=ecc_root, marked=agg_marked,
                   start_round=start_round)
    for child in children:
        node.send(child, sync)
    yield from wait_until_round(node, start_round)
    if tree_span is not None:
        tracer.span_end(tree_span, round_no=node.round, depth=0,
                        children=len(children), ecc_root=ecc_root)
    return TreeInfo(
        root=root,
        depth=0,
        parent=None,
        children=children,
        ecc_root=ecc_root,
        marked_count=agg_marked,
        start_round=start_round,
    )


def aligned_broadcast(
    node: NodeAlgorithm,
    tree: TreeInfo,
    value: Optional[int],
) -> Subroutine:
    """Push the root's ``value`` down ``tree``; everyone returns it.

    Nodes must enter aligned; they exit aligned ``ecc_root + 2`` rounds
    later.  Non-root callers pass ``value=None``.
    """
    start = node.round
    if tree.is_root:
        if value is None:
            raise ProtocolError("broadcast root must supply a value")
        received = value
        for child in tree.children:
            node.send(child, DownMsg(root=tree.root, value=value))
    else:
        received = None
        while received is None:
            inbox = yield
            if not inbox:
                continue
            for _, msg in inbox.items():
                if isinstance(msg, DownMsg) and msg.root == tree.root:
                    received = msg.value
                    break
        for child in tree.children:
            node.send(child, DownMsg(root=tree.root, value=received))
    yield from wait_until_round(node, start + tree.ecc_root + 2)
    return received


def aligned_convergecast(
    node: NodeAlgorithm,
    tree: TreeInfo,
    value: int,
    combine: Combine,
) -> Subroutine:
    """Combine everyone's ``value`` up ``tree``; the root returns the
    total, others return ``None``.

    Nodes must enter aligned; they exit aligned ``ecc_root + 2`` rounds
    later.
    """
    start = node.round
    pending = set(tree.children)
    accumulated = value
    while pending:
        inbox = yield
        if not inbox:
            continue
        for sender, msg in inbox.items():
            if isinstance(msg, UpMsg) and msg.root == tree.root and sender in pending:
                pending.discard(sender)
                accumulated = combine(accumulated, msg.value)
    if not tree.is_root:
        node.send(tree.parent, UpMsg(root=tree.root, value=accumulated))
        yield from wait_until_round(node, start + tree.ecc_root + 2)
        return None
    yield from wait_until_round(node, start + tree.ecc_root + 2)
    return accumulated


def aggregate_and_share(
    node: NodeAlgorithm,
    tree: TreeInfo,
    value: int,
    combine: Combine,
) -> Subroutine:
    """Convergecast then broadcast: everyone learns the combined value.

    Cost ``2 · (ecc_root + 2)`` rounds — the "aggregate using T1 in
    additional time O(D)" step of Lemmas 3–7.
    """
    total = yield from aligned_convergecast(node, tree, value, combine)
    shared = yield from aligned_broadcast(
        node, tree, total if tree.is_root else None
    )
    return shared
