"""Sequential reference algorithms (oracles).

Everything the distributed algorithms compute — distances,
eccentricities, diameter, radius, center, peripheral vertices, girth —
is recomputed here with straightforward centralized code.  Tests compare
every distributed result against these oracles (and the oracles
themselves against ``networkx`` on random instances), so correctness does
not rest on a single implementation.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..congest.errors import GraphError
from .graph import Graph

#: Marker for "unreachable" in distance maps.
UNREACHABLE: Optional[int] = None

#: Girth of an acyclic graph (Definition 3: a forest has infinite girth).
GIRTH_INFINITE: float = float("inf")


def bfs_distances(graph: Graph, source: int) -> Dict[int, int]:
    """Hop distances from ``source`` to every reachable node."""
    if not graph.has_node(source):
        raise GraphError(f"unknown source node {source}")
    distances = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                queue.append(neighbor)
    return distances


def bfs_tree(graph: Graph, source: int) -> Dict[int, Optional[int]]:
    """Parent pointers of a BFS tree from ``source``.

    Ties (several neighbors at the previous level) resolve to the
    smallest parent id, matching the deterministic choice the distributed
    BFS makes ("lowest index", Section 6.1).
    """
    if not graph.has_node(source):
        raise GraphError(f"unknown source node {source}")
    parents: Dict[int, Optional[int]] = {source: None}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):  # neighbors are ascending
            if neighbor not in parents:
                parents[neighbor] = node
                queue.append(neighbor)
    return parents


def all_pairs_distances(graph: Graph) -> Dict[int, Dict[int, int]]:
    """Distances between all reachable pairs (BFS from every node)."""
    return {node: bfs_distances(graph, node) for node in graph.nodes}


def eccentricity(graph: Graph, node: int) -> int:
    """Max distance from ``node`` to any other node (requires connectivity)."""
    distances = bfs_distances(graph, node)
    if len(distances) != graph.n:
        raise GraphError(
            f"eccentricity undefined: node {node} cannot reach every node"
        )
    return max(distances.values())


def all_eccentricities(graph: Graph) -> Dict[int, int]:
    """Eccentricity of every node (requires a connected graph)."""
    return {node: eccentricity(graph, node) for node in graph.nodes}


def diameter(graph: Graph) -> int:
    """Maximum eccentricity (Definition 3)."""
    return max(all_eccentricities(graph).values())


def radius(graph: Graph) -> int:
    """Minimum eccentricity (Definition 3)."""
    return min(all_eccentricities(graph).values())


def center(graph: Graph) -> FrozenSet[int]:
    """Nodes whose eccentricity equals the radius (Definition 4)."""
    eccs = all_eccentricities(graph)
    rad = min(eccs.values())
    return frozenset(node for node, ecc in eccs.items() if ecc == rad)


def peripheral_vertices(graph: Graph) -> FrozenSet[int]:
    """Nodes whose eccentricity equals the diameter (Definition 4)."""
    eccs = all_eccentricities(graph)
    diam = max(eccs.values())
    return frozenset(node for node, ecc in eccs.items() if ecc == diam)


def girth(graph: Graph) -> float:
    """Length of the shortest cycle; ``inf`` for forests (Definition 3).

    Classic BFS-per-node method: a BFS from ``v`` finds, via its first
    non-tree edge contact, the shortest cycle through ``v`` exactly;
    taking the minimum over all start nodes yields the girth.
    """
    best = GIRTH_INFINITE
    for source in graph.nodes:
        distances = {source: 0}
        parents: Dict[int, int] = {}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            if distances[node] * 2 >= best:
                # No shorter cycle through `source` can be found deeper.
                break
            for neighbor in graph.neighbors(node):
                if neighbor not in distances:
                    distances[neighbor] = distances[node] + 1
                    parents[neighbor] = node
                    queue.append(neighbor)
                elif parents.get(node) != neighbor:
                    # Non-tree contact: cycle through `source` of this length
                    # (may double-count when the two paths share a prefix,
                    # but then a shorter cycle is found from another source).
                    cycle = distances[node] + distances[neighbor] + 1
                    if cycle < best:
                        best = cycle
        # A triangle is the global minimum; stop early when found.
        if best == 3:
            return 3
    return best


def is_tree(graph: Graph) -> bool:
    """Whether the graph is connected and acyclic."""
    return graph.is_connected() and graph.m == graph.n - 1


def is_forest(graph: Graph) -> bool:
    """Whether the graph is acyclic (Definition 3's girth-∞ case)."""
    return girth(graph) == GIRTH_INFINITE


def k_neighborhood(graph: Graph, node: int, k: int) -> FrozenSet[int]:
    """``N_k(node)``: all nodes within ``k`` hops, including the node."""
    distances = bfs_distances(graph, node)
    return frozenset(u for u, d in distances.items() if d <= k)


def is_k_dominating_set(graph: Graph, candidates: Iterable[int], k: int) -> bool:
    """Verify Definition 9: every node within ``k`` of some candidate."""
    dominated: Set[int] = set()
    for candidate in candidates:
        dominated.update(k_neighborhood(graph, candidate, k))
    return dominated == set(graph.nodes)


def distance_matrix(graph: Graph) -> List[List[Optional[int]]]:
    """Dense ``n × n`` distance matrix in ascending-node order."""
    order = graph.nodes
    index = {node: i for i, node in enumerate(order)}
    matrix: List[List[Optional[int]]] = [
        [UNREACHABLE] * graph.n for _ in range(graph.n)
    ]
    for node in order:
        row = matrix[index[node]]
        for target, dist in bfs_distances(graph, node).items():
            row[index[target]] = dist
    return matrix
