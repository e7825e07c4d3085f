"""Experiment framework: structured, programmatic Table 1 regeneration.

Every experiment from EXPERIMENTS.md is a function returning an
:class:`ExperimentResult`: the measured rows, human-readable notes, the
fitted scalings, and a dictionary of named *checks* — the pass/fail
claims of the experiment.  Each runs its protocols in-process through
:func:`repro.protocols.run`.  The same functions power

* ``python -m repro experiment <id>`` (prints the table and exits 1
  when a check fails; ``--output DIR`` writes it to ``DIR/<id>.txt``,
  which is how the committed ``benchmarks/results/e*.txt`` are made),
* programmatic use (``repro.experiments.run("e1")``).

Experiments accept a ``scale``:

* ``"quick"`` — small sweeps, seconds; used by the test suite;
* ``"paper"`` — the sweep sizes EXPERIMENTS.md reports (default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

#: Valid scales.
SCALES = ("quick", "paper")


@dataclass
class ExperimentResult:
    """Outcome of one experiment run."""

    exp_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Named claims; ``repro experiment`` exits 1 unless each is True.
    checks: Dict[str, bool] = field(default_factory=dict)

    def require(self, name: str, condition: bool) -> None:
        """Record a named check (and keep the first failure sticky)."""
        self.checks[name] = bool(condition) and self.checks.get(name, True)

    @property
    def passed(self) -> bool:
        """Whether every named check held."""
        return all(self.checks.values())

    def failed_checks(self) -> List[str]:
        """Names of the checks that failed."""
        return [name for name, ok in self.checks.items() if not ok]

    def render(self) -> str:
        """Plain-text table (same format as benchmarks/results)."""
        str_rows = [[str(cell) for cell in row] for row in self.rows]
        widths = [
            max(len(self.headers[i]),
                *(len(r[i]) for r in str_rows)) if str_rows
            else len(self.headers[i])
            for i in range(len(self.headers))
        ]
        lines = [f"== {self.exp_id.upper()}: {self.title} =="]
        lines.append("  ".join(
            h.ljust(w) for h, w in zip(self.headers, widths)
        ))
        lines.append("  ".join("-" * w for w in widths))
        for row in str_rows:
            lines.append("  ".join(
                c.ljust(w) for c, w in zip(row, widths)
            ))
        for note in self.notes:
            lines.append(f"  note: {note}")
        status = "PASS" if self.passed else \
            f"FAIL ({', '.join(self.failed_checks())})"
        lines.append(f"  checks: {status}")
        return "\n".join(lines)


#: Registry of experiment id → (title, runner).
_REGISTRY: Dict[str, Callable[[str], ExperimentResult]] = {}


def experiment(exp_id: str):
    """Decorator registering an experiment runner under ``exp_id``."""

    def wrap(fn: Callable[[str], ExperimentResult]):
        _REGISTRY[exp_id] = fn
        return fn

    return wrap


def available() -> List[str]:
    """All registered experiment ids, sorted."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def run(exp_id: str, scale: str = "paper") -> ExperimentResult:
    """Run one experiment by id."""
    _ensure_loaded()
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    try:
        fn = _REGISTRY[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {available()}"
        )
    return fn(scale)


def run_all(scale: str = "paper") -> List[ExperimentResult]:
    """Run every registered experiment."""
    return [run(exp_id, scale) for exp_id in available()]


def _ensure_loaded() -> None:
    """Import the experiment modules (they self-register)."""
    from . import (  # noqa: F401  (import for side effects)
        apsp_exp,
        approx_exp,
        baselines_exp,
        girth_exp,
        lower_bounds_exp,
        properties_exp,
        prt_exp,
        ssp_exp,
        two_vs_four_exp,
        weighted_exp,
    )


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) vs log(x) (scaling exponent)."""
    pairs = [
        (math.log(x), math.log(y))
        for x, y in zip(xs, ys)
        if x > 0 and y > 0
    ]
    count = len(pairs)
    if count < 2:
        return float("nan")
    mean_x = sum(p[0] for p in pairs) / count
    mean_y = sum(p[1] for p in pairs) / count
    num = sum((px - mean_x) * (py - mean_y) for px, py in pairs)
    den = sum((px - mean_x) ** 2 for px, py in pairs)
    return num / den if den else float("nan")
