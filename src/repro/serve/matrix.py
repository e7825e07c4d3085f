"""Distance matrices the query service accumulates and serves from.

A :class:`DistanceMatrix` holds the rows computed so far for one
*query family* (graph × protocol × params × simulator axes).  Rows
arrive two ways:

* a **full run** (Algorithm 1 / the weighted reduction) fills every row
  at once and marks the matrix complete;
* a **batched S-SP run** (Algorithm 2) contributes one row per source
  in the batch — the matrix grows toward completeness as queries touch
  more sources.

Distances are symmetric (undirected graphs), so a point query
``distance(u, v)`` is answerable from *either* endpoint's row — the
matrix checks both before reporting a miss.  Eccentricity needs the
queried node's own (full-length) row; diameter needs a complete matrix.

Everything is JSON-pure via :meth:`row_record` / :meth:`full_record` so
rows persist in the content-addressed
:class:`~repro.harness.cache.RunCache` and survive server restarts.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from ..harness.hashing import task_key


@dataclass(frozen=True)
class QueryFamily:
    """The cache identity of one stream of compatible queries.

    Two queries share a family — and therefore a matrix, a batcher
    queue and a set of cache entries — iff every axis that can change a
    distance value matches: the graph spec, the protocol computing the
    metric, its parameters, and the simulator seed/policy.
    """

    graph_spec: str
    protocol: str = "apsp"
    params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0
    policy: str = "strict"
    #: Execution engine of the family's runs.  Part of the cache
    #: identity — object and vector results never share records — but
    #: serialized only when non-default, so records written before the
    #: field existed still address the same object-backend entries.
    backend: str = "object"

    @classmethod
    def make(
        cls,
        graph_spec: str,
        protocol: str = "apsp",
        params: Optional[Mapping[str, Any]] = None,
        *,
        seed: int = 0,
        policy: str = "strict",
        backend: str = "object",
    ) -> "QueryFamily":
        """Build a family, normalizing params into sorted tuple form."""
        return cls(
            graph_spec=graph_spec,
            protocol=protocol,
            params=tuple(sorted((params or {}).items())),
            seed=seed,
            policy=policy,
            backend=backend,
        )

    def payload(self) -> Dict[str, Any]:
        """Deterministic dict identity (content-address input)."""
        payload = {
            "graph": self.graph_spec,
            "protocol": self.protocol,
            "params": dict(self.params),
            "seed": self.seed,
            "policy": self.policy,
        }
        if self.backend != "object":
            payload["backend"] = self.backend
        return payload

    def row_key(self, source: int) -> str:
        """Content address of one persisted source row."""
        return task_key(
            {"kind": "serve-row", "source": source, **self.payload()},
            salt="serve",
        )

    def matrix_key(self) -> str:
        """Content address of the persisted full matrix."""
        return task_key(
            {"kind": "serve-matrix", **self.payload()},
            salt="serve",
        )


@dataclass
class DistanceMatrix:
    """Accumulated distance rows for one :class:`QueryFamily`."""

    family: QueryFamily
    n: int
    rows: Dict[int, Dict[int, int]] = field(default_factory=dict)
    complete: bool = False
    #: Simulation rounds spent building what the matrix holds.
    rounds_spent: int = 0
    #: Estimated bytes the rows occupy (LRU accounting).
    size_bytes: int = 0

    # -- growth ------------------------------------------------------------

    def add_row(self, source: int, distances: Mapping[int, int]) -> None:
        """Merge one source row (idempotent for identical rows)."""
        if source in self.rows:
            return
        row = dict(distances)
        self.rows[source] = row
        self.size_bytes += _row_bytes(row)
        if len(self.rows) >= self.n:
            self.complete = True

    def adopt_full(
        self, rows: Mapping[int, Mapping[int, int]], rounds: int
    ) -> None:
        """Replace contents with a complete matrix from a full run."""
        self.rows = {u: dict(r) for u, r in rows.items()}
        self.size_bytes = sum(_row_bytes(r) for r in self.rows.values())
        self.complete = True
        self.rounds_spent += rounds

    # -- queries -----------------------------------------------------------

    def has_row(self, node: int) -> bool:
        """Whether ``node``'s own source row is resident."""
        return node in self.rows

    def distance(self, u: int, v: int) -> Optional[int]:
        """``d(u, v)`` from either endpoint's row; ``None`` if unknown.

        A known row that lacks the other endpoint means *unreachable*
        (disconnected input); that is reported as ``None`` too and the
        caller distinguishes via :meth:`has_row`.
        """
        row = self.rows.get(u)
        if row is not None:
            return row.get(v)
        row = self.rows.get(v)
        if row is not None:
            return row.get(u)
        return None

    def eccentricity(self, node: int) -> Optional[int]:
        """Max distance in ``node``'s own row (Lemma 2), if present."""
        row = self.rows.get(node)
        if not row:
            return None
        return max(row.values())

    def diameter(self) -> Optional[int]:
        """Max eccentricity over a *complete* matrix (Lemma 3)."""
        if not self.complete or not self.rows:
            return None
        return max(max(row.values(), default=0)
                   for row in self.rows.values())

    # -- persistence -------------------------------------------------------

    def row_record(self, source: int) -> Dict[str, Any]:
        """JSON-pure record of one row for the on-disk RunCache."""
        return {
            "kind": "serve-row/1",
            **self.family.payload(),
            "source": source,
            "distances": {str(v): d
                          for v, d in sorted(self.rows[source].items())},
        }

    def full_record(self) -> Dict[str, Any]:
        """JSON-pure record of the complete matrix."""
        return {
            "kind": "serve-matrix/1",
            **self.family.payload(),
            "rounds": self.rounds_spent,
            "distances": {
                str(u): {str(v): d for v, d in sorted(row.items())}
                for u, row in sorted(self.rows.items())
            },
        }


def row_from_record(record: Mapping[str, Any]) -> Dict[int, int]:
    """Decode the ``distances`` payload of a ``serve-row/1`` record."""
    return {int(v): d for v, d in record["distances"].items()}


def rows_from_matrix_record(
    record: Mapping[str, Any],
) -> Dict[int, Dict[int, int]]:
    """Decode the ``distances`` payload of a ``serve-matrix/1`` record."""
    return {
        int(u): {int(v): d for v, d in row.items()}
        for u, row in record["distances"].items()
    }


def _row_bytes(row: Mapping[int, int]) -> int:
    """Resident footprint of one row: the dict and its large ints.

    Ints from -5 to 256 are the interpreter's shared objects and cost
    nothing more.  Any other node id or distance is an object of its
    own in a row decoded from JSON or from a worker's pickle, so it is
    counted at its ``sys.getsizeof``.
    """
    size = sys.getsizeof(row)
    for node, dist in row.items():
        if node > 256:
            size += sys.getsizeof(node)
        if dist > 256:
            size += sys.getsizeof(dist)
    return size


def rows_from_ssp_summary(
    summary: Any, sources: Iterable[int]
) -> Dict[int, Dict[int, int]]:
    """Pivot an :class:`~repro.core.results.SspSummary` into rows.

    S-SP leaves each *node* holding its distances to every source; the
    service wants each *source*'s distances to every node.  Symmetry of
    undirected hop distance makes the pivot exact.
    """
    rows: Dict[int, Dict[int, int]] = {s: {} for s in sources}
    for node, result in summary.results.items():
        for source, dist in result.distances.items():
            if source in rows:
                rows[source][node] = dist
    return rows
