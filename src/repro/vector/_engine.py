"""Closed-form numpy execution of the fault-free core protocols.

The object engine steps one Python generator per node per round.  On
the fault-free strict path, however, every message the paper's
algorithms send is a *closed-form function* of the BFS distance matrix
``D`` and the ``T_1`` pebble traversal:

* **Tree construction** (``build_bfs_tree``): a node at depth ``d``
  adopts in round ``d``, floods :class:`BfsToken` to every neighbor not
  at depth ``d - 1`` (delivered ``d + 1``), joins its parent (delivered
  ``d + 1``), echoes at ``d + 3 + 2·h(v)`` (``h`` = subtree height) and
  receives the root's :class:`SyncMsg` at ``r_e + d`` where
  ``r_e = 2 + 2·ecc(root)``.  All nodes exit at
  ``start_round = 3·ecc(root) + 4``.
* **Algorithm 1** (``apsp_phase``): the pebble's Euler tour of ``T_1``
  fixes each wave's start round ``w(v)``; wave ``v``'s token crosses
  directed edge ``(x, y)`` in round ``w(v) + D[x,v] + 1`` iff ``y`` is
  not one level closer to ``v``.  ``D`` is symmetric, so row ``x`` of
  ``D`` holds every wave's depth at ``x``.  The finish broadcast leaves
  the root the round the pebble exhausts and reaches depth ``d`` nodes
  ``d`` rounds later.
* **Lemmas 2–7 epilogue**: ``k`` aligned convergecast+broadcast phases
  of exactly ``2·(ecc(root) + 2)`` rounds each, one :class:`UpMsg` /
  :class:`DownMsg` per tree edge per phase.
* **Algorithm 2** (``ssp_main_loop``): no closed form — the offer /
  accept loop is simulated round-exactly, but with the per-edge pending
  sets held as one boolean matrix and each round's offers selected by a
  single vectorized argmin.

The distance matrix comes from one bit-parallel multi-source BFS
(:func:`_bfs_depths`).  Algorithm 1 then costs one pass over rows of
``D`` per block of nodes (:func:`_node_blocks`): comparing each node's
row with its neighbors' rows says, per (edge, wave), whether the
neighbor is one level closer.  That gives every round's wave-token
count (one ``bincount`` over ``n²`` (node, wave) pairs), the per-edge
counts and the Lemma 7 girth candidates; BFS parents, the lowest-index
neighbor one level closer, follow the same comparison
(:func:`_bfs_parents`).  Counter fidelity notes:

* Per directed edge and round these schedules deliver at most one
  message, **except** in the APSP phase where a wave token may share an
  edge-round with the pebble or with the finish broadcast; those
  coincidences are detected explicitly, so ``max_edge_*_in_round`` is
  exact.  Distinct wave tokens never collide (the paper's Lemma 1):
  every run checks its node form, no node staging two waves in one
  round, at every ``n`` (:func:`_check_lemma1`).
* A bandwidth overflow names the object engine's witness: the first
  round with an edge over budget, its smallest such edge, and that
  edge-round's bits.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
from functools import partial
from typing import Dict, Iterable, List, Optional, Tuple, Type

import numpy as np

from ..congest.errors import BandwidthExceededError, GraphError
from ..congest.message import Message, SizeModel
from ..congest.metrics import RunMetrics
from ..congest.network import default_bandwidth
from ..core.bfs import BfsResult
from ..core.engine import ROOT, validate_apsp_input
from ..core.girth import GirthEstimate, GirthSummary
from ..core.messages import (
    BfsToken,
    DownMsg,
    EchoMsg,
    JoinMsg,
    OfferMsg,
    PebbleMsg,
    SyncMsg,
    UpMsg,
)
from ..core.properties import GIRTH_INFINITE
from ..core.results import (
    ApspResult,
    ApspSummary,
    PropertyResult,
    PropertySummary,
    SspResult,
    SspSummary,
)
from ..core.ssp import PRIORITY_DIST_ID
from ..graphs.graph import Graph
from . import VectorBackendError, unsupported

#: Upper bound on the entries one block of a sweep covers: out-edges ×
#: columns of a node block, rows × n in the coincidence check, sources ×
#: nodes or edges in the BFS — keeps peak memory near 100 MB at n = 2048.
_CHUNK_ENTRIES = 1 << 23

_NO_CANDIDATE = np.iinfo(np.int64).max


def _check_supported(*, policy: str, faults,
                     priority: Optional[str] = None) -> None:
    """Reject the object-engine-only features up front, loudly."""
    reason = unsupported(faults=faults, policy=policy, priority=priority)
    if reason is not None:
        raise VectorBackendError(reason)


class _Csr:
    """Immutable CSR adjacency plus directed-edge arrays.

    Node *indices* are positions in the ascending id tuple, so index
    order and id order agree — every min-id tie-break below is a plain
    index minimum.
    """

    __slots__ = (
        "n", "ids", "index", "indptr", "indices", "src", "dst", "edge_key",
        "root_idx", "m2",
    )

    def __init__(self, graph: Graph) -> None:
        nodes = graph.nodes
        n = len(nodes)
        self.n = n
        self.ids = np.asarray(nodes, dtype=np.int64)
        #: Node id -> index.
        self.index = index = {uid: i for i, uid in enumerate(nodes)}
        neighbor_lists = [graph.neighbors(uid) for uid in nodes]
        counts = np.fromiter(
            (len(x) for x in neighbor_lists), dtype=np.int64, count=n
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        m2 = int(indptr[-1])
        #: Number of directed edges (2·|E|).
        self.m2 = m2
        self.indptr = indptr
        self.indices = np.fromiter(
            (index[w] for nbrs in neighbor_lists for w in nbrs),
            dtype=np.int64, count=m2,
        )
        self.src = np.repeat(np.arange(n, dtype=np.int64), counts)
        self.dst = self.indices
        # Neighbor lists are ascending, so (src, dst) pairs are already
        # lexicographically sorted — the key array is monotonic and
        # edge_of() is a binary search.
        self.edge_key = self.src * n + self.dst
        self.root_idx = index[ROOT]

    def edge_of(self, src_idx, dst_idx):
        """Directed-edge indices for (src, dst) index arrays."""
        return np.searchsorted(
            self.edge_key,
            np.asarray(src_idx, dtype=np.int64) * self.n + dst_idx,
        )


def _bfs_depths(csr: _Csr, sources) -> np.ndarray:
    """Hop distances ``D[i, u]`` from ``sources[i]``: int32 ``(|sources|, n)``.

    A bit-parallel BFS from every source at once: each ``uint64`` word
    of a node's state carries 64 sources, and one level costs a gather
    of the frontier words along ``indices`` plus one
    ``bitwise_or.reduceat`` over the neighbor ranges.  A node's depth is
    the number of levels it stays unseen; unreachable entries are -1.
    Sources go in blocks that keep both the gathered words and the
    depth counters within ``_CHUNK_ENTRIES``.
    """
    n = csr.n
    sources = np.asarray(sources, dtype=np.int64)
    depths = np.empty((sources.size, n), dtype=np.int32)
    linked = np.nonzero(csr.indptr[1:] > csr.indptr[:-1])[0]
    starts = csr.indptr[linked]
    block = 64 * max(1, min(_CHUNK_ENTRIES // (64 * n),
                            _CHUNK_ENTRIES // max(1, csr.m2)))
    for lo in range(0, sources.size, block):
        chunk = sources[lo:lo + block]
        k = chunk.size
        bit = np.arange(k)
        seen = np.zeros((n, (k + 63) // 64), dtype=np.uint64)
        np.bitwise_or.at(
            seen, (chunk, bit // 64),
            np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64)),
        )
        unseen = np.zeros((n, k), dtype=np.int32)
        frontier = seen
        while True:
            reach = np.zeros_like(seen)
            reach[linked] = np.bitwise_or.reduceat(
                frontier[csr.indices], starts, axis=0
            )
            frontier = reach & ~seen
            if not frontier.any():
                break
            unseen += _unpack(~seen, k)
            seen |= frontier
        unseen[_unpack(~seen, k).view(bool)] = -1
        depths[lo:lo + k] = unseen.T
    return depths


def _unpack(words: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` bits of each row of ``uint64`` words, as uint8."""
    return np.unpackbits(
        words.astype("<u8", copy=False).view(np.uint8), axis=1, count=k,
        bitorder="little",
    )


def _node_blocks(csr: _Csr, width: int):
    """Sweep nodes in blocks ``[lo, hi)`` whose out-edges × ``width``
    stay within ``_CHUNK_ENTRIES``; a node with more is a block alone.

    Yields ``(nodes, ranks)`` per block: its nodes, highest degree
    first, and for each ``k`` the ``k``-th out-edge of every node of
    degree above ``k`` — a prefix of ``nodes``.  A sum or maximum over
    each node's out-edges is then one array operation per ``k`` on a
    prefix of rows, which numpy does far faster than a segmented
    ``reduceat`` down the rows.
    """
    indptr = csr.indptr
    limit = max(1, _CHUNK_ENTRIES // max(1, width))
    lo = 0
    while lo < csr.n:
        hi = max(lo + 1, int(np.searchsorted(
            indptr, indptr[lo] + limit, side="right")) - 1)
        degree = indptr[lo + 1:hi + 1] - indptr[lo:hi]
        nodes = lo + np.argsort(-degree, kind="stable")
        first = indptr[nodes]
        # above[k]: how many of the block's nodes have degree > k.
        above = np.cumsum(np.bincount(degree)[::-1])[::-1][1:]
        yield nodes, [first[:c] + k for k, c in enumerate(above.tolist())]
        lo = hi


def _bfs_parents(csr: _Csr, cols: np.ndarray) -> np.ndarray:
    """``P[u, j]``: the lowest-index neighbor of ``u`` one level closer
    in column ``j`` of the hop distances ``cols`` (``n × k``) — ``u``'s
    parent in that BFS tree; ``n`` where there is none (the source).
    Neighbors' hop distances differ by at most one, so "one level
    closer" is "smaller".

    ``_Tree`` passes the root's depths as one column.  APSP passes ``D``,
    whose column ``v`` holds every node's distance to ``v`` (``D`` is
    symmetric), so row ``u`` is ``u``'s parent in every wave's tree.
    """
    n = csr.n
    parents = np.empty(cols.shape, dtype=np.int64)
    for nodes, ranks in _node_blocks(csr, cols.shape[1]):
        near = cols[nodes]
        # Over the closer neighbors, the largest n - index; 0 for none.
        key = np.zeros(near.shape, dtype=np.int32)
        for edges in ranks:
            c = edges.size
            far = csr.indices[edges]
            np.maximum(
                key[:c],
                (cols[far] < near[:c]) * (n - far).astype(np.int32)[:, None],
                out=key[:c],
            )
        parents[nodes] = n - key
    return parents


class _Tree:
    """The ``T_1`` arrays every schedule below is phrased over."""

    __slots__ = (
        "depth", "parent", "children", "height", "ecc", "r_echo",
        "start_round", "root_idx", "nonroot", "up_edges", "down_edges",
        "diameter_bound",
    )

    def __init__(self, csr: _Csr, depth: np.ndarray) -> None:
        n = csr.n
        self.root_idx = csr.root_idx
        depth = depth.astype(np.int64)
        self.depth = depth
        parent = _bfs_parents(csr, depth[:, None])[:, 0]
        parent[self.root_idx] = -1
        self.parent = parent
        children: List[List[int]] = [[] for _ in range(n)]
        parent_list = parent.tolist()
        for v, p in enumerate(parent_list):
            if p >= 0:
                children[p].append(v)
        self.children = children
        height = np.zeros(n, dtype=np.int64)
        for v in np.argsort(depth)[::-1].tolist():
            p = parent_list[v]
            if p >= 0 and height[p] < height[v] + 1:
                height[p] = height[v] + 1
        self.height = height
        self.ecc = int(depth.max())
        self.diameter_bound = max(1, 2 * self.ecc)
        self.r_echo = 2 + 2 * self.ecc
        self.start_round = 3 * self.ecc + 4
        self.nonroot = np.nonzero(parent >= 0)[0]
        self.up_edges = csr.edge_of(self.nonroot, parent[self.nonroot])
        self.down_edges = csr.edge_of(parent[self.nonroot], self.nonroot)


class _Schedule:
    """Accumulates message deliveries into RunMetrics-shaped counters."""

    def __init__(self, total_rounds: int, csr: _Csr,
                 size_model: SizeModel, track_edges: bool) -> None:
        self.total_rounds = total_rounds
        self.csr = csr
        self.size_model = size_model
        self.msgs = np.zeros(total_rounds + 2, dtype=np.int64)
        self.bits = np.zeros(total_rounds + 2, dtype=np.int64)
        self.edge_bits: Optional[np.ndarray] = (
            np.zeros(csr.m2, dtype=np.int64) if track_edges else None
        )
        #: class -> its earliest (round, edge_idx) delivery.
        self.classes: Dict[Type[Message], Tuple[int, int]] = {}
        #: coincidences: (round, edge_idx) -> combined bits.
        self.pairs: Dict[Tuple[int, int], int] = {}

    def size(self, cls: Type[Message]) -> int:
        return self.size_model.class_size_bits(cls)

    def _admit_counts(self, cls: Type[Message], counts: np.ndarray,
                      witness: Tuple[int, int]) -> None:
        size = self.size(cls)
        self.msgs += counts
        self.bits += counts * size
        self.classes[cls] = min(self.classes.get(cls, witness), witness)

    def deliver(self, cls: Type[Message], rounds, edges) -> None:
        """Record one delivery per (round, edge) entry pair."""
        rounds = np.asarray(rounds, dtype=np.int64)
        if rounds.size == 0:
            return
        peak = int(rounds.max())
        if peak > self.total_rounds:
            raise AssertionError(
                f"{cls.__name__} delivery in round {peak} past the "
                f"computed run length {self.total_rounds}"
            )
        counts = np.bincount(rounds, minlength=self.total_rounds + 2)
        first = int(rounds.min())
        self._admit_counts(
            cls, counts, (first, int(edges[rounds == first].min()))
        )
        if self.edge_bits is not None:
            np.add.at(self.edge_bits, edges, self.size(cls))

    def deliver_bincounts(self, cls: Type[Message], counts: np.ndarray,
                          edge_counts: Optional[np.ndarray],
                          witness: Tuple[int, int]) -> None:
        """Record pre-aggregated per-round (and per-edge) counts."""
        if counts.shape != self.msgs.shape:
            raise AssertionError("per-round count array shape mismatch")
        if not counts.any():
            return
        self._admit_counts(cls, counts, witness)
        if self.edge_bits is not None and edge_counts is not None:
            self.edge_bits += edge_counts * self.size(cls)

    def coincide(self, other_cls: Type[Message], edge_idx: int,
                 round_no: int) -> None:
        """Record a wave-token + ``other_cls`` shared edge-round."""
        self.pairs[(round_no, edge_idx)] = (
            self.size(BfsToken) + self.size(other_cls)
        )

    def finalize(self, bandwidth_bits: Optional[int]) -> RunMetrics:
        budget = (
            default_bandwidth(self.csr.n)
            if bandwidth_bits is None else bandwidth_bits
        )
        # Edge-round -> bits: each class at its earliest delivery, and
        # every coincidence (which carries both of its messages).
        witnesses = {
            first: self.size(cls) for cls, first in self.classes.items()
        }
        witnesses.update(self.pairs)
        max_bits = max(witnesses.values(), default=0)
        if max_bits > budget:
            # Like Network._deliver: the first round over budget, and
            # in it the smallest edge, with that edge-round's bits.
            round_no, edge_idx = min(
                w for w, bits in witnesses.items() if bits > budget
            )
            raise BandwidthExceededError(
                int(self.csr.ids[self.csr.src[edge_idx]]),
                int(self.csr.ids[self.csr.dst[edge_idx]]),
                round_no, witnesses[(round_no, edge_idx)], budget,
            )
        if not self.classes:
            max_messages = 0
        elif self.pairs:
            max_messages = 2
        else:
            max_messages = 1
        metrics = RunMetrics(
            edge_bits=None if self.edge_bits is None else {},
        )
        upto = self.total_rounds + 1
        metrics.rounds = self.total_rounds
        metrics.messages_total = int(self.msgs[1:upto].sum())
        metrics.bits_total = int(self.bits[1:upto].sum())
        metrics.max_edge_bits_in_round = max_bits
        metrics.max_edge_messages_in_round = max_messages
        metrics.messages_per_round = self.msgs[1:upto].tolist()
        metrics.bits_per_round = self.bits[1:upto].tolist()
        if self.edge_bits is not None:
            ids, src, dst = self.csr.ids, self.csr.src, self.csr.dst
            live = np.nonzero(self.edge_bits)[0]
            metrics.edge_bits = {
                (int(ids[src[e]]), int(ids[dst[e]])): int(self.edge_bits[e])
                for e in live.tolist()
            }
        return metrics


# ---------------------------------------------------------------------------
# Phase schedules.
# ---------------------------------------------------------------------------


def _emit_tree_phase(sched: _Schedule, csr: _Csr, tree: _Tree) -> None:
    """``build_bfs_tree``: wave + join + echo + sync deliveries."""
    if csr.n == 1:
        return
    depth = tree.depth
    flood = np.nonzero(depth[csr.dst] != depth[csr.src] - 1)[0]
    sched.deliver(BfsToken, depth[csr.src[flood]] + 1, flood)
    nonroot = tree.nonroot
    sched.deliver(JoinMsg, depth[nonroot] + 1, tree.up_edges)
    sched.deliver(
        EchoMsg, depth[nonroot] + 3 + 2 * tree.height[nonroot],
        tree.up_edges,
    )
    sched.deliver(SyncMsg, tree.r_echo + depth[nonroot], tree.down_edges)


def _pebble_schedule(tree: _Tree, t0: int):
    """Euler tour of ``T_1``: wave start rounds, pebble moves, last round.

    Mirrors ``apsp_phase`` exactly: the holder stages the first wave and
    the first move in round ``t0 + 1``; a first visit arriving in round
    ``a`` stages its wave and onward move in ``a + 1``; a revisit moves
    on in its arrival round; the root announces the finish the round its
    traversal exhausts.  Wave rounds are int32, like ``D``, so the
    ``w(v) + D[u, v]`` arrays stay four bytes an entry.
    """
    n = len(tree.depth)
    wave_round = np.zeros(n, dtype=np.int32)
    wave_round[tree.root_idx] = t0 + 1
    next_child = [0] * n
    parent = tree.parent.tolist()
    children = tree.children
    moves_src: List[int] = []
    moves_dst: List[int] = []
    moves_stage: List[int] = []
    current = tree.root_idx
    stage = t0 + 1
    while True:
        kids = children[current]
        cursor = next_child[current]
        if cursor < len(kids):
            target = kids[cursor]
            next_child[current] = cursor + 1
            moves_src.append(current)
            moves_dst.append(target)
            moves_stage.append(stage)
            arrival = stage + 1          # always a first visit
            wave_round[target] = arrival + 1
            stage = arrival + 1
            current = target
        elif parent[current] >= 0:
            target = parent[current]
            moves_src.append(current)
            moves_dst.append(target)
            moves_stage.append(stage)
            stage = stage + 1            # revisit: moves on at arrival
            current = target
        else:
            return (
                wave_round,
                np.asarray(moves_src, dtype=np.int64),
                np.asarray(moves_dst, dtype=np.int64),
                np.asarray(moves_stage, dtype=np.int64),
                stage,                    # the root's exhaustion round
            )


def _check_lemma1(staged: np.ndarray) -> None:
    """Lemma 1 in its node form: no node stages two waves in one round.

    Row ``u`` of ``staged`` holds ``w(v) + D[u, v]`` for every wave
    ``v``: the round ``u`` forwards wave ``v``.  No repeat in a row
    implies that no two waves share an edge-round, which the per-round
    token counts assume.
    """
    ordered = np.sort(staged, axis=1)
    if (ordered[:, 1:] == ordered[:, :-1]).any():
        raise AssertionError(
            "a node staged two BFS waves in one round (Lemma 1 "
            "violation); the vector schedule no longer matches the "
            "object engine"
        )


def _tokens_crossing(distances: np.ndarray, wave_round: np.ndarray,
                     senders: np.ndarray, receivers: np.ndarray,
                     rounds: np.ndarray) -> np.ndarray:
    """Whether a wave token crosses ``(senders[i], receivers[i])`` in
    ``rounds[i]``: the wave the sender staged the round before (at most
    one, by Lemma 1), unless the receiver is one level closer to it."""
    hit = np.empty(senders.size, dtype=bool)
    step = max(1, _CHUNK_ENTRIES // distances.shape[1])
    staged_in = (rounds - 1).astype(wave_round.dtype)
    for lo in range(0, senders.size, step):
        x = senders[lo:lo + step]
        y = receivers[lo:lo + step]
        match = distances[x] + wave_round == staged_in[lo:lo + step, None]
        wave = match.argmax(axis=1)
        hit[lo:lo + step] = (
            match[np.arange(x.size), wave]
            & (distances[y, wave] >= distances[x, wave])
        )
    return hit


def _emit_apsp_phase(
    sched: _Schedule, csr: _Csr, tree: _Tree, distances: np.ndarray,
    t0: int, collect_girth: bool,
):
    """Algorithm 1's pebble + n waves + finish broadcast.

    Returns ``(finish_round, girth_best)`` where ``girth_best`` is a
    per-node int64 array (``_NO_CANDIDATE`` = none) or ``None``.
    """
    n = csr.n
    (wave_round, moves_src, moves_dst, moves_stage,
     exhausted) = _pebble_schedule(tree, t0)
    finish_round = exhausted + tree.diameter_bound + 2
    girth_best = (
        np.full(n, _NO_CANDIDATE, dtype=np.int64) if collect_girth else None
    )
    if n == 1:
        return finish_round, girth_best

    # Pebble moves: 2(n-1) singletons, delivered the round after staging.
    move_edges = csr.edge_of(moves_src, moves_dst)
    sched.deliver(PebbleMsg, moves_stage + 1, move_edges)

    # Finish broadcast down the tree.
    down_rounds = exhausted + tree.depth[tree.nonroot]
    sched.deliver(DownMsg, down_rounds, tree.down_edges)

    # The n BFS waves.  Node u forwards wave v in round w(v) + D[u, v]
    # on each edge whose far end is not one level closer to v: in rows
    # of D, where the neighbor's entry is smaller.
    total = sched.total_rounds
    degree = np.diff(csr.indptr)
    tokens = np.zeros(total + 2)
    edge_counts = (
        np.zeros(csr.m2, dtype=np.int64)
        if sched.edge_bits is not None else None
    )
    for nodes, ranks in _node_blocks(csr, n):
        near = distances[nodes]
        closer_count = np.zeros(near.shape, dtype=np.int32)
        level = np.zeros(near.shape, dtype=bool) if collect_girth else None
        for edges in ranks:
            c = edges.size
            far = distances[csr.indices[edges]]
            closer = far < near[:c]
            closer_count[:c] += closer
            if edge_counts is not None:
                edge_counts[edges] = n - closer.sum(axis=1)
            if level is not None:
                level[:c] |= far == near[:c]
        staged = wave_round + near
        _check_lemma1(staged)
        peak = int(staged.max()) + 1
        if peak > total:
            raise AssertionError(
                f"wave delivery in round {peak} past run length {total}"
            )
        # Float weights are exact: every count is far below 2**53.
        tokens += np.bincount(
            (staged + 1).ravel(),
            weights=(degree[nodes, None] - closer_count).ravel(),
            minlength=total + 2,
        )
        if level is not None:
            # Lemma 7: two closer neighbors close an even cycle through
            # v, a neighbor at the same level an odd one.
            twice = 2 * near.astype(np.int64)
            candidate = np.where(
                closer_count >= 2, twice,
                np.where(level, twice + 1, _NO_CANDIDATE),
            )
            girth_best[nodes] = candidate.min(axis=1)
    witness_edge = int(csr.indptr[tree.root_idx])
    sched.deliver_bincounts(
        BfsToken, tokens.astype(np.int64), edge_counts,
        (t0 + 2, witness_edge),
    )

    # Wave-token coincidences with the pebble / the finish broadcast —
    # the only multi-message edge-rounds any schedule here produces.
    moves = moves_src.size
    senders = np.concatenate([moves_src, tree.parent[tree.nonroot]])
    receivers = np.concatenate([moves_dst, tree.nonroot])
    rounds = np.concatenate([moves_stage + 1, down_rounds])
    edges = np.concatenate([move_edges, tree.down_edges])
    hit = _tokens_crossing(distances, wave_round, senders, receivers, rounds)
    for i in np.nonzero(hit)[0].tolist():
        sched.coincide(
            PebbleMsg if i < moves else DownMsg, int(edges[i]),
            int(rounds[i]),
        )
    return finish_round, girth_best


def _emit_epilogue(sched: _Schedule, tree: _Tree, start: int,
                   phases: int) -> int:
    """``k`` aggregate_and_share phases over ``T_1``; returns exit round."""
    period = 2 * (tree.ecc + 2)
    nonroot = tree.nonroot
    for j in range(phases):
        converge_start = start + j * period
        broadcast_start = converge_start + tree.ecc + 2
        if nonroot.size:
            sched.deliver(
                UpMsg,
                converge_start + tree.height[nonroot] + 1,
                tree.up_edges,
            )
            sched.deliver(
                DownMsg,
                broadcast_start + tree.depth[nonroot],
                tree.down_edges,
            )
    return start + phases * period


def _emit_ssp_phase(
    sched: _Schedule, csr: _Csr, source_idx: List[int], t0: int,
    duration: int,
):
    """Round-exact simulation of ``ssp_main_loop`` (dist_id priority).

    Returns ``(delta, parent)`` arrays of shape ``(n, |S|)``; ``parent``
    uses ``-1`` for "never adopted" and ``-2`` for "self" (None).
    """
    n, m2 = csr.n, csr.m2
    n_sources = len(source_idx)
    infinite = np.iinfo(np.int64).max // 4
    delta = np.full((n, n_sources), infinite, dtype=np.int64)
    parent = np.full((n, n_sources), -1, dtype=np.int64)
    pending = np.zeros((m2, n_sources), dtype=bool)
    source_ids = csr.ids[np.asarray(source_idx, dtype=np.int64)] \
        if n_sources else np.zeros(0, dtype=np.int64)
    for column, s in enumerate(source_idx):
        delta[s, column] = 0
        parent[s, column] = -2
        pending[csr.indptr[s]:csr.indptr[s + 1], column] = True
    if n_sources == 0 or m2 == 0:
        return delta, parent
    key_stride = int(csr.ids.max()) + 1
    indptr = csr.indptr
    arange_cache: Dict[int, np.ndarray] = {}
    for iteration in range(duration):
        staged_round = t0 + iteration
        offering = np.nonzero(pending.any(axis=1))[0]
        if offering.size == 0:
            continue
        live = pending[offering]
        base = delta[csr.src[offering]]
        finite = np.where(live, base, 0)
        keys = np.where(
            live, (finite + 1) * key_stride + source_ids, np.iinfo(np.int64).max
        )
        rows = arange_cache.get(offering.size)
        if rows is None:
            rows = np.arange(offering.size)
            arange_cache[offering.size] = rows
        best = keys.argmin(axis=1)
        best_dist = base[rows, best] + 1
        # Lines 14–17 staged; the whole round's sends leave the queue
        # before any receipt is processed (the dist_id dequeue rule).
        pending[offering, best] = False
        sched.deliver(
            OfferMsg,
            np.full(offering.size, staged_round + 1, dtype=np.int64),
            offering,
        )
        # Receipts: per (receiver, source) group, senders in ascending
        # id order with strict-improvement running semantics.
        receiver = csr.dst[offering]
        sender = csr.src[offering]
        order = np.lexsort((sender, best, receiver))
        recv_l = receiver[order].tolist()
        send_l = sender[order].tolist()
        col_l = best[order].tolist()
        dist_l = best_dist[order].tolist()
        i = 0
        count = len(recv_l)
        while i < count:
            y = recv_l[i]
            column = col_l[i]
            running = int(delta[y, column])
            last_event = -1
            j = i
            while j < count and recv_l[j] == y and col_l[j] == column:
                if dist_l[j] < running:
                    running = dist_l[j]
                    last_event = send_l[j]
                j += 1
            if last_event >= 0:
                delta[y, column] = running
                parent[y, column] = last_event
                # Queue the improvement on every edge but the new
                # parent's, where Line 22 drops any entry still queued.
                pending[indptr[y]:indptr[y + 1], column] = True
                pending[csr.edge_of(y, last_event), column] = False
            i = j
    return delta, parent


# ---------------------------------------------------------------------------
# Entry points (signatures mirror repro.core).
# ---------------------------------------------------------------------------


def run_bfs(graph: Graph, *, seed: int = 0,
            bandwidth_bits: Optional[int] = None,
            policy: str = "strict", faults=None):
    """Vector twin of :func:`repro.core.run_bfs`."""
    del seed  # the protocol is deterministic; kept for signature parity
    _check_supported(policy=policy, faults=faults)
    validate_apsp_input(graph)
    csr = _Csr(graph)
    tree = _Tree(csr, _bfs_depths(csr, [csr.root_idx])[0])
    sched = _Schedule(
        tree.start_round, csr, SizeModel(csr.n), track_edges=False
    )
    _emit_tree_phase(sched, csr, tree)
    metrics = sched.finalize(bandwidth_bits)
    ids = csr.ids.tolist()
    depth_l = tree.depth.tolist()
    parent_l = tree.parent.tolist()
    results = {
        ids[v]: BfsResult(
            uid=ids[v],
            depth=depth_l[v],
            parent=None if parent_l[v] < 0 else ids[parent_l[v]],
            children=tuple(ids[c] for c in tree.children[v]),
            ecc_root=tree.ecc,
        )
        for v in range(csr.n)
    }
    return results, metrics


def _apsp_run(graph: Graph, *, collect_girth: bool, track_edges: bool,
              bandwidth_bits: Optional[int], epilogue_phases: int = 0):
    """Shared tree + Algorithm 1 (+ optional epilogue) schedule."""
    csr = _Csr(graph)
    distances = _bfs_depths(csr, np.arange(csr.n))
    tree = _Tree(csr, distances[csr.root_idx])
    t0 = tree.start_round
    # The run length must be known before any bincount: finish_round
    # depends only on the pebble tour, so compute it first.
    _, _, _, _, exhausted = _pebble_schedule(tree, t0)
    finish_round = exhausted + tree.diameter_bound + 2
    period = 2 * (tree.ecc + 2)
    total_rounds = finish_round + epilogue_phases * period
    sched = _Schedule(total_rounds, csr, SizeModel(csr.n), track_edges)
    _emit_tree_phase(sched, csr, tree)
    finish_again, girth_best = _emit_apsp_phase(
        sched, csr, tree, distances, t0, collect_girth
    )
    assert finish_again == finish_round
    if epilogue_phases:
        _emit_epilogue(sched, tree, finish_round, epilogue_phases)
    metrics = sched.finalize(bandwidth_bits)
    return csr, distances, tree, girth_best, metrics


class _Matrix:
    """What the ``n`` row views of one summary share: the id → index
    dict and an ``n × n`` array, which ``build`` makes on the first read
    when it is not given (two threads may both build it; either result
    is the same)."""

    __slots__ = ("index", "_array", "_build")

    def __init__(self, index: Dict[int, int], array=None,
                 build=None) -> None:
        self.index = index
        self._array = array
        self._build = build

    @property
    def array(self) -> np.ndarray:
        if self._array is None:
            self._array = self._build()
        return self._array


class _RowView(Mapping):
    """Row ``u`` of a :class:`_Matrix` as a read-only ``{id: value}``
    mapping.

    Lookups, ``in``, ``len``, ``==``, unhashability and pickling behave
    as for the dict it stands for; ``items()`` and ``values()`` convert
    the row with one ``tolist()``, not one ``__getitem__`` per key.
    """

    __slots__ = ("_matrix", "_u")

    def __init__(self, matrix: _Matrix, u: int) -> None:
        self._matrix = matrix
        self._u = u

    def __getitem__(self, key):
        return self._matrix.array.item(self._u, self._matrix.index[key])

    def __contains__(self, key) -> bool:
        return key in self._matrix.index

    def __iter__(self):
        return iter(self._matrix.index)

    def __len__(self) -> int:
        return len(self._matrix.index)

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def items(self):
        return _RowItems(self)

    def values(self):
        return _RowValues(self)

    def _row(self) -> list:
        return self._matrix.array[self._u].tolist()


class _RowItems(ItemsView):
    """A row view's ``(id, value)`` pairs, from one ``tolist()``."""

    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping._matrix.index, self._mapping._row())


class _RowValues(ValuesView):
    """A row view's values, from one ``tolist()``."""

    __slots__ = ()

    def __iter__(self):
        return iter(self._mapping._row())


def _parent_ids(csr: _Csr, distances: np.ndarray) -> np.ndarray:
    """Row ``u``: ``u``'s parent toward every wave, as the id objects
    themselves; the ``u = v`` slot (sentinel ``n``) is ``None``."""
    return np.array(csr.ids.tolist() + [None], dtype=object)[
        _bfs_parents(csr, distances)
    ]


def run_apsp(graph: Graph, *, collect_girth: bool = False, seed: int = 0,
             bandwidth_bits: Optional[int] = None, policy: str = "strict",
             track_edges: bool = False, faults=None) -> ApspSummary:
    """Vector twin of :func:`repro.core.run_apsp`.

    Each node's ``distances`` and ``parents`` are read-only views of
    its row of ``D`` and of the parent-id matrix, which the first read
    of any ``parents`` row builds once for the whole summary.
    """
    del seed
    _check_supported(policy=policy, faults=faults)
    validate_apsp_input(graph)
    csr, distances, _, girth_best, metrics = _apsp_run(
        graph, collect_girth=collect_girth, track_edges=track_edges,
        bandwidth_bits=bandwidth_bits,
    )
    rows = _Matrix(csr.index, array=distances)
    parents = _Matrix(csr.index, build=partial(_parent_ids, csr, distances))
    girth_l = girth_best.tolist() if girth_best is not None else None
    results = {}
    for uid, u in csr.index.items():
        candidate = None
        if girth_l is not None and girth_l[u] != _NO_CANDIDATE:
            candidate = girth_l[u]
        results[uid] = ApspResult(
            uid=uid,
            distances=_RowView(rows, u),
            parents=_RowView(parents, u),
            girth_candidate=candidate,
        )
    return ApspSummary(results=results, metrics=metrics)


def run_graph_properties(graph: Graph, *, include_girth: bool = True,
                         seed: int = 0,
                         bandwidth_bits: Optional[int] = None,
                         policy: str = "strict",
                         track_edges: bool = False,
                         faults=None) -> PropertySummary:
    """Vector twin of :func:`repro.core.run_graph_properties`."""
    del seed
    _check_supported(policy=policy, faults=faults)
    validate_apsp_input(graph)
    phases = 3 if include_girth else 2
    csr, distances, _, girth_best, metrics = _apsp_run(
        graph, collect_girth=include_girth, track_edges=track_edges,
        bandwidth_bits=bandwidth_bits, epilogue_phases=phases,
    )
    eccentricities = distances.max(axis=1).astype(np.int64)
    diameter = int(eccentricities.max())
    radius = int(eccentricities.min())
    girth: Optional[float]
    if not include_girth:
        girth = None
    else:
        best = int(girth_best.min())
        girth = GIRTH_INFINITE if best == _NO_CANDIDATE else best
    ids = csr.ids.tolist()
    ecc_l = eccentricities.tolist()
    results = {
        ids[v]: PropertyResult(
            uid=ids[v],
            eccentricity=ecc_l[v],
            diameter=diameter,
            radius=radius,
            is_center=(ecc_l[v] == radius),
            is_peripheral=(ecc_l[v] == diameter),
            girth=girth,
        )
        for v in range(csr.n)
    }
    return PropertySummary(results=results, metrics=metrics)


def run_exact_girth(graph: Graph, *, seed: int = 0,
                    bandwidth_bits: Optional[int] = None,
                    policy: str = "strict", faults=None) -> GirthSummary:
    """Vector twin of :func:`repro.core.run_exact_girth`."""
    summary = run_graph_properties(
        graph, include_girth=True, seed=seed,
        bandwidth_bits=bandwidth_bits, policy=policy, faults=faults,
    )
    results = {
        uid: GirthEstimate(uid=uid, girth=res.girth, exact=True, phases=0)
        for uid, res in summary.results.items()
    }
    return GirthSummary(results=results, metrics=summary.metrics)


def run_ssp(graph: Graph, sources: Iterable[int], *, seed: int = 0,
            bandwidth_bits: Optional[int] = None, policy: str = "strict",
            track_edges: bool = False, priority: str = PRIORITY_DIST_ID,
            faults=None) -> SspSummary:
    """Vector twin of :func:`repro.core.run_ssp`."""
    del seed
    _check_supported(policy=policy, faults=faults, priority=priority)
    validate_apsp_input(graph)
    source_set = frozenset(sources)
    unknown = source_set - set(graph.nodes)
    if unknown:
        raise GraphError(f"sources {sorted(unknown)} are not graph nodes")
    csr = _Csr(graph)
    tree = _Tree(csr, _bfs_depths(csr, [csr.root_idx])[0])
    t0 = tree.start_round
    duration = len(source_set) + tree.diameter_bound + 2
    total_rounds = t0 + duration
    sched = _Schedule(
        total_rounds, csr, SizeModel(csr.n), track_edges
    )
    _emit_tree_phase(sched, csr, tree)
    source_idx = sorted(csr.index[s] for s in source_set)
    delta, parent = _emit_ssp_phase(sched, csr, source_idx, t0, duration)
    metrics = sched.finalize(bandwidth_bits)
    ids = csr.ids.tolist()
    source_ids = [ids[s] for s in source_idx]
    infinite = np.iinfo(np.int64).max // 4
    results = {}
    for u in range(csr.n):
        dist_row = delta[u].tolist()
        parent_row = parent[u].tolist()
        distances_u: Dict[int, int] = {}
        parents_u: Dict[int, Optional[int]] = {}
        for column, sid in enumerate(source_ids):
            if dist_row[column] >= infinite:
                continue
            distances_u[sid] = dist_row[column]
            p = parent_row[column]
            parents_u[sid] = None if p == -2 else ids[p]
        results[ids[u]] = SspResult(
            uid=ids[u], distances=distances_u, parents=parents_u,
        )
    return SspSummary(
        sources=source_set, results=results, metrics=metrics,
    )
