"""The two-tier matrix cache: in-memory LRU over the on-disk RunCache.

Tier 1 is a byte-budgeted LRU of :class:`~repro.serve.matrix.
DistanceMatrix` objects — answers at memory speed.  Tier 2 is the
content-addressed :class:`~repro.harness.cache.RunCache`: every row and
every complete matrix the service computes is persisted there, so an
evicted matrix (or a restarted server) rehydrates from disk instead of
re-running the simulation.  Only a cold miss on both tiers costs a
protocol run.

Eviction is whole-matrix LRU: when the in-memory budget is exceeded the
least-recently-touched family is dropped (its rows remain on disk), and
``on_evict`` hears of it.  The currently-touched family is never
evicted, so a single matrix larger than the budget still serves
queries; it just will not keep neighbors resident.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional

from ..harness.cache import RunCache
from .matrix import (
    DistanceMatrix,
    QueryFamily,
    row_from_record,
    rows_from_matrix_record,
)

#: Default in-memory budget: plenty for dozens of mid-size graphs.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024


class MatrixCache:
    """LRU distance-matrix cache with RunCache persistence."""

    def __init__(
        self,
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        run_cache: Optional[RunCache] = None,
    ) -> None:
        self.max_bytes = int(max_bytes)
        self.run_cache = run_cache
        self._matrices: "OrderedDict[QueryFamily, DistanceMatrix]" = (
            OrderedDict()
        )
        self.evictions = 0
        #: Called with each evicted family, so per-family state kept
        #: elsewhere is bounded by this LRU too.
        self.on_evict: Optional[Callable[[QueryFamily], None]] = None

    # -- accounting --------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Estimated bytes held by resident matrices."""
        return sum(m.size_bytes for m in self._matrices.values())

    def __len__(self) -> int:
        return len(self._matrices)

    def __contains__(self, family: QueryFamily) -> bool:
        return family in self._matrices

    def _touch(self, family: QueryFamily) -> None:
        self._matrices.move_to_end(family)

    def _evict(self, keep: QueryFamily) -> None:
        while (self.size_bytes > self.max_bytes
               and len(self._matrices) > 1):
            oldest = next(iter(self._matrices))
            if oldest == keep:
                self._matrices.move_to_end(oldest)
                continue
            del self._matrices[oldest]
            self.evictions += 1
            if self.on_evict is not None:
                self.on_evict(oldest)

    # -- resident matrices -------------------------------------------------

    def matrix(self, family: QueryFamily, n: int) -> DistanceMatrix:
        """The resident matrix for ``family`` (created empty on demand)."""
        matrix = self._matrices.get(family)
        if matrix is None:
            matrix = DistanceMatrix(family=family, n=n)
            self._matrices[family] = matrix
        self._touch(family)
        return matrix

    def peek(self, family: QueryFamily) -> Optional[DistanceMatrix]:
        """The resident matrix, if any, without creating one."""
        matrix = self._matrices.get(family)
        if matrix is not None:
            self._touch(family)
        return matrix

    # -- tiered row lookup -------------------------------------------------

    def load_row(
        self, family: QueryFamily, n: int, source: int
    ) -> Optional[str]:
        """Make ``source``'s row resident; returns the tier that had it.

        ``"memory"`` — already resident; ``"disk"`` — rehydrated from
        the RunCache (a persisted row or a persisted full matrix);
        ``None`` — a cold miss, the caller must run a simulation.
        """
        matrix = self.matrix(family, n)
        if matrix.has_row(source):
            return "memory"
        if self.run_cache is None:
            return None
        record = self.run_cache.get(family.row_key(source))
        if record is not None:
            matrix.add_row(source, row_from_record(record))
            self._evict(keep=family)
            return "disk"
        record = self.run_cache.get(family.matrix_key())
        if record is not None:
            matrix.adopt_full(
                rows_from_matrix_record(record), record.get("rounds", 0)
            )
            self._evict(keep=family)
            return "disk"
        return None

    def load_full(self, family: QueryFamily, n: int) -> Optional[str]:
        """Make the *complete* matrix resident; returns the hit tier."""
        matrix = self.matrix(family, n)
        if matrix.complete:
            return "memory"
        if self.run_cache is None:
            return None
        record = self.run_cache.get(family.matrix_key())
        if record is None:
            return None
        matrix.adopt_full(
            rows_from_matrix_record(record), record.get("rounds", 0)
        )
        self._evict(keep=family)
        return "disk"

    # -- writes ------------------------------------------------------------

    def store_rows(
        self,
        family: QueryFamily,
        n: int,
        rows: Dict[int, Dict[int, int]],
        *,
        rounds: int,
    ) -> DistanceMatrix:
        """Merge freshly computed rows; persist each to the RunCache."""
        matrix = self.matrix(family, n)
        matrix.rounds_spent += rounds
        for source, row in rows.items():
            matrix.add_row(source, row)
            if self.run_cache is not None:
                self.run_cache.put(
                    family.row_key(source), matrix.row_record(source)
                )
        self._evict(keep=family)
        return matrix

    def store_full(
        self,
        family: QueryFamily,
        n: int,
        rows: Dict[int, Dict[int, int]],
        *,
        rounds: int,
    ) -> DistanceMatrix:
        """Adopt a complete matrix; persist it whole to the RunCache."""
        matrix = self.matrix(family, n)
        matrix.adopt_full(rows, rounds)
        if self.run_cache is not None:
            self.run_cache.put(family.matrix_key(), matrix.full_record())
        self._evict(keep=family)
        return matrix
