"""Seeded workload inputs and the benchmark's correctness oracle.

Everything here is independent of ``repro.core``: distances are checked
against a plain breadth-first search over the graph's adjacency, and
distance matrices are compared through :func:`matrix_digest`, which the
run child applies to the program's output and the parent applies to the
oracle's rows.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, Iterator, Mapping, Sequence, Tuple

#: Algorithm 1 on the default-seed graphs: (rounds, messages, bits), as
#: recorded by the committed ``bench_apsp`` / ``bench_apsp_n1024`` runs.
PINNED_COUNTERS = {
    ("er:128:p=0.06:seed=1", "object"): (408, 109090, 2180784),
    ("er:1024:p=0.01:seed=1", "vector"): (3096, 9554230, 248395658),
}

#: Nodes per ``er:64`` family the serve workload queries.
SERVE_N = 64

#: Families in the cold stream: enough for 60 s at 200 misses per second.
COLD_FAMILIES = 200


Rows = Mapping[int, Mapping[int, int]]


def bfs_rows(adjacency: Mapping[int, Sequence[int]]) -> Dict[int, Dict[int, int]]:
    """All-pairs hop distances by one plain BFS per source."""
    return {source: bfs_row(adjacency, source) for source in adjacency}


def bfs_row(adjacency: Mapping[int, Sequence[int]], source: int) -> Dict[int, int]:
    """Hop distances from ``source`` to every reachable node."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        u = frontier.popleft()
        du = dist[u] + 1
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = du
                frontier.append(v)
    return dist


def adjacency_of(graph) -> Dict[int, Tuple[int, ...]]:
    """Plain adjacency lists of a ``repro`` graph."""
    return {u: tuple(graph.neighbors(u)) for u in graph.nodes}


def matrix_digest(rows: Rows) -> int:
    """Order-independent fingerprint of a distance matrix.

    Integer and tuple hashes are not randomized, so the value is the
    same in every process; any changed entry changes it.
    """
    return hash(tuple(
        (source, hash(frozenset(rows[source].items())))
        for source in sorted(rows)
    ))


def eccentricity(row: Mapping[int, int]) -> int:
    return max(row.values())


# -- serve inputs -------------------------------------------------------------


def serve_spec(graph_seed: int) -> str:
    return f"er:{SERVE_N}:p=0.1:seed={graph_seed}"


def cold_stream(seed: int, *, offset: int = 0) -> Iterator[Tuple[int, int]]:
    """Never-repeating ``(family seed, node)`` pairs for cold misses.

    Family ``j`` is ``serve_spec(seed * 100000 + offset + j)`` and its
    nodes come in a seeded random order, so consecutive pairs usually
    share a family and concurrent misses coalesce into one batch.
    """
    for j in range(COLD_FAMILIES):
        family = seed * 100000 + offset + j
        nodes = list(range(1, SERVE_N + 1))
        random.Random(f"perfbench|cold|{family}").shuffle(nodes)
        for node in nodes:
            yield family, node
