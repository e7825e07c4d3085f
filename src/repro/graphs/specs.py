"""Compact textual graph specs: ``"torus:6x6"`` → :class:`Graph`.

One line of text that deterministically reconstructs a topology.  The
CLI has always used this syntax for its positional graph argument; the
campaign harness (:mod:`repro.harness`) builds on the same strings
because they are *canonical task inputs*: hashable, picklable, and
reconstructible inside a worker process without shipping edge lists.

Supported families::

    path:40                a 40-node path
    cycle:24               a 24-node cycle
    grid:5x8               a 5x8 grid
    torus:4x25             a 4x25 torus
    star:30                a star
    complete:12            a clique
    tree:50:seed=3         a random tree
    er:60:p=0.1:seed=7     a connected Erdős–Rényi graph
    dumbbell:20:10         two 20-cliques joined by a 10-edge path
    diameter2:60:seed=0    a diameter-2 promise instance (Algorithm 3)
    diameter4:60:seed=0    a diameter-4 promise instance (Algorithm 3)
    file:PATH              an edge-list file read by
                           repro.graphs.io.load_edge_list: what
                           repro.graphs.io.save writes, or SNAP-style
                           whitespace/comment lists (weights ignored)

Specs may carry a ``{n}`` placeholder (``"path:{n}"``) which
:func:`substitute_size` fills in during sweep expansion.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import generators, io
from .graph import Graph


class GraphSpecError(ValueError):
    """A graph spec string could not be parsed."""


def _split(spec: str) -> Tuple[str, List[str], Dict[str, str]]:
    parts = spec.split(":")
    family = parts[0]
    positional: List[str] = []
    options: Dict[str, str] = {}
    for arg in parts[1:]:
        if "=" in arg:
            key, value = arg.split("=", 1)
            options[key] = value
        else:
            positional.append(arg)
    return family, positional, options


def _dims(text: str) -> Tuple[int, int]:
    rows, _, cols = text.partition("x")
    return int(rows), int(cols)


def parse_graph(spec: str) -> Graph:
    """Turn a compact graph spec (see module docstring) into a Graph."""
    family, positional, options = _split(spec)
    try:
        if family == "path":
            return generators.path_graph(int(positional[0]))
        if family == "cycle":
            return generators.cycle_graph(int(positional[0]))
        if family == "star":
            return generators.star_graph(int(positional[0]))
        if family == "complete":
            return generators.complete_graph(int(positional[0]))
        if family == "grid":
            return generators.grid_graph(*_dims(positional[0]))
        if family == "torus":
            return generators.torus_graph(*_dims(positional[0]))
        if family == "tree":
            return generators.random_tree(
                int(positional[0]), seed=int(options.get("seed", 0))
            )
        if family == "er":
            return generators.erdos_renyi_graph(
                int(positional[0]),
                float(options.get("p", 0.1)),
                seed=int(options.get("seed", 0)),
                ensure_connected=True,
            )
        if family == "dumbbell":
            return generators.dumbbell_with_path(
                int(positional[0]), int(positional[1])
            )
        if family == "diameter2":
            return generators.diameter_two_random(
                int(positional[0]), seed=int(options.get("seed", 0))
            )
        if family == "diameter4":
            return generators.diameter_four_blobs(
                int(positional[0]), seed=int(options.get("seed", 0))
            )
        if family == "file":
            # The tolerant SNAP-style loader: a superset of the strict
            # save() format (comments, weights, duplicates, 0-based).
            return io.load_edge_list(positional[0])
    except GraphSpecError:
        raise
    except (IndexError, ValueError) as exc:
        raise GraphSpecError(f"malformed graph spec {spec!r}: {exc}")
    raise GraphSpecError(f"unknown graph family {family!r} in spec {spec!r}")


def substitute_size(template: str, n: int) -> str:
    """Fill a ``{n}`` placeholder in a spec template.

    Templates without a placeholder are returned unchanged — they name a
    fixed topology that a sweep includes once per size axis entry (the
    expander deduplicates those).
    """
    return template.replace("{n}", str(n))


def has_size_placeholder(template: str) -> bool:
    """Whether a spec template varies with the sweep's size axis."""
    return "{n}" in template
