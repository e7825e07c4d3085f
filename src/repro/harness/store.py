"""JSONL result store: append-only records plus a query/aggregation API.

Each line is one campaign record in canonical JSON (sorted keys, tight
separators), so two stores produced from the same tasks are comparable
with plain ``diff`` once the non-deterministic ``timing`` block is
stripped (:func:`strip_timing`).  :class:`ResultStore` reads a
campaign's measurements back from here without re-running anything.

Field paths use dotted notation into the nested record, e.g.
``"task.algorithm"``, ``"graph.n"``, ``"metrics.rounds"``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
)

from .hashing import canonical_json

#: Record fields that may differ between otherwise identical runs.
TIMING_FIELDS = ("timing",)


def strip_timing(record: Mapping[str, Any]) -> Dict[str, Any]:
    """A copy of ``record`` without its non-deterministic fields."""
    return {k: v for k, v in record.items() if k not in TIMING_FIELDS}


def lookup(record: Mapping[str, Any], path: str, default: Any = None) -> Any:
    """Resolve a dotted field path (``"metrics.rounds"``) in a record."""
    value: Any = record
    for part in path.split("."):
        if not isinstance(value, Mapping) or part not in value:
            return default
        value = value[part]
    return value


_AGGREGATES: Dict[str, Callable[[Sequence[float]], float]] = {
    "mean": lambda xs: sum(xs) / len(xs),
    "min": min,
    "max": max,
    "sum": sum,
    "count": len,
}


class ResultStore:
    """An append-only JSONL file of campaign records."""

    def __init__(self, path) -> None:
        self.path = Path(path)

    # -- writing -----------------------------------------------------------

    def append(self, record: Mapping[str, Any]) -> None:
        """Append one record as a canonical JSON line."""
        self.extend([record])

    def extend(self, records: Iterable[Mapping[str, Any]]) -> int:
        """Append many records; returns how many were written."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        written = 0
        with self.path.open("a", encoding="utf-8") as handle:
            for record in records:
                handle.write(canonical_json(dict(record)) + "\n")
                written += 1
        return written

    def truncate(self) -> None:
        """Reset the store to empty (fresh campaign output)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text("", encoding="utf-8")

    # -- reading -----------------------------------------------------------

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        if not self.path.is_file():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError as exc:
                    raise ValueError(
                        f"{self.path}:{line_no}: corrupt JSONL line ({exc})"
                    )

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def records(
        self,
        *,
        where: Optional[Callable[[Dict[str, Any]], bool]] = None,
        **field_filters: Any,
    ) -> List[Dict[str, Any]]:
        """Records matching every filter.

        ``field_filters`` map dotted paths (with ``.`` spelled ``__``
        for keyword-argument friendliness, e.g. ``task__algorithm``)
        to required values; ``where`` is an arbitrary predicate.
        """
        paths = {
            name.replace("__", "."): wanted
            for name, wanted in field_filters.items()
        }
        matched = []
        for record in self:
            if any(
                lookup(record, path) != wanted
                for path, wanted in paths.items()
            ):
                continue
            if where is not None and not where(record):
                continue
            matched.append(record)
        return matched

    def values(self, path: str, **field_filters: Any) -> List[Any]:
        """The ``path`` field of every matching record, in file order."""
        return [
            lookup(record, path)
            for record in self.records(**field_filters)
        ]

    def aggregate(
        self,
        group_by: str,
        value: str,
        agg: str = "mean",
        **field_filters: Any,
    ) -> Dict[Any, float]:
        """Group matching records and aggregate a numeric field.

        Example: mean rounds per graph size for one algorithm::

            store.aggregate("graph.n", "metrics.rounds",
                            task__algorithm="apsp")
        """
        try:
            fold = _AGGREGATES[agg]
        except KeyError:
            raise ValueError(
                f"unknown aggregate {agg!r}; "
                f"expected one of {sorted(_AGGREGATES)}"
            )
        groups: Dict[Any, List[float]] = {}
        for record in self.records(**field_filters):
            group = lookup(record, group_by)
            sample = lookup(record, value)
            if sample is None:
                continue
            groups.setdefault(group, []).append(sample)
        return {group: fold(samples) for group, samples in groups.items()}
