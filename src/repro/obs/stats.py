"""Summary statistics shared by every report in the repo."""

from __future__ import annotations

from typing import Iterable


def percentile(samples: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    ``fraction`` is in ``[0, 1]``; an empty sample set reads ``0.0``.
    """
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1,
               max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]
