"""Plain-text graph serialization (edge-list format).

The format is line-oriented and diff-friendly::

    # optional comments
    n 7
    1 2
    2 3
    ...

``node`` lines list isolated nodes.  :func:`loads_edge_list` reads the
format back, along with SNAP-style lists; round-trip safety is
property-tested.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Union

from ..congest.errors import GraphError
from .graph import Graph

PathLike = Union[str, Path]


def dumps(graph: Graph) -> str:
    """Serialize ``graph`` to the edge-list text format."""
    lines = [f"n {max(graph.nodes) if graph.nodes else 0}"]
    isolated = [
        node for node in graph.nodes if graph.degree(node) == 0
    ]
    for node in isolated:
        lines.append(f"node {node}")
    for u, v in graph.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def loads_edge_list(text: str, *, weighted: bool = False,
                    default_weight: int = 1):
    """Parse a SNAP-style whitespace/comment edge list (tolerant).

    Accepted lines, in any order:

    * comments starting with ``#`` or ``%`` (SNAP and Matrix-Market
      style) and blank lines;
    * ``u v`` — one undirected edge;
    * ``u v w`` — an edge with a positive integer weight (ignored
      unless ``weighted=True``);
    * the ``n <max>`` / ``node <id>`` directives :func:`dumps` writes,
      so every file :func:`save` writes loads here.

    Tolerances real-world edge lists need: duplicate edges collapse to
    one (keeping the first weight seen), self-loops are dropped (the
    CONGEST model has no such links), and a zero-based id space is
    shifted up by one (node ids must be positive).

    Returns a :class:`Graph`, or a
    :class:`~repro.graphs.weighted.WeightedGraph` when
    ``weighted=True`` (unweighted lines get ``default_weight``).
    """
    from .weighted import WeightedGraph  # local: avoid import cycle

    nodes: set = set()
    edges: dict = {}
    saw_zero = False
    for line_no, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        parts = line.split()
        if parts[0] == "n" and len(parts) == 2:
            continue
        if parts[0] == "node" and len(parts) == 2:
            node = _edge_list_int(parts[1], line_no, line)
            saw_zero = saw_zero or node == 0
            nodes.add(node)
            continue
        if len(parts) not in (2, 3):
            raise GraphError(
                f"line {line_no}: expected 'u v' or 'u v w', got {line!r}"
            )
        u = _edge_list_int(parts[0], line_no, line)
        v = _edge_list_int(parts[1], line_no, line)
        weight = default_weight
        if len(parts) == 3:
            weight = _edge_list_int(parts[2], line_no, line)
            if weight < 1:
                raise GraphError(
                    f"line {line_no}: weights must be positive ints, "
                    f"got {parts[2]!r}"
                )
        saw_zero = saw_zero or u == 0 or v == 0
        nodes.update((u, v))
        if u == v:
            continue
        key = (u, v) if u <= v else (v, u)
        edges.setdefault(key, weight)
    if saw_zero:
        # Zero-based files (common for SNAP exports): shift every id
        # up by one so the positive-int node contract holds.
        nodes = {node + 1 for node in nodes}
        edges = {(u + 1, v + 1): w for (u, v), w in edges.items()}
    graph = Graph(nodes, list(edges))
    if not weighted:
        return graph
    return WeightedGraph(graph, edges)


def _edge_list_int(token: str, line_no: int, line: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphError(
            f"line {line_no}: expected an integer, got {token!r} "
            f"in {line!r}"
        )


def load_edge_list(path: PathLike, *, weighted: bool = False,
                   default_weight: int = 1):
    """Read a SNAP-style edge-list file (see :func:`loads_edge_list`).

    This is the loader behind the ``file:<path>`` graph spec, so any
    whitespace/comment edge list works directly in the CLI, campaign
    specs, and the ``repro serve`` query service.
    """
    return loads_edge_list(
        Path(path).read_text(encoding="utf-8"),
        weighted=weighted, default_weight=default_weight,
    )


def save(graph: Graph, path: PathLike) -> None:
    """Write ``graph`` to ``path`` in the edge-list format."""
    Path(path).write_text(dumps(graph), encoding="utf-8")
