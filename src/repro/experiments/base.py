"""Experiment framework: structured, programmatic Table 1 regeneration.

Every experiment from EXPERIMENTS.md is a function returning an
:class:`ExperimentResult`: the measured rows, human-readable notes, the
fitted scalings, and a dictionary of named *checks* — the pass/fail
claims the benchmark suite asserts.  The same functions power

* ``pytest benchmarks/`` (asserts the checks, publishes the tables),
* ``python -m repro experiment <id>`` (prints a table on demand),
* programmatic use (``repro.experiments.run("e1")``).

Experiments accept a ``scale``:

* ``"quick"`` — small sweeps, seconds; used by the test suite;
* ``"paper"`` — the sweep sizes EXPERIMENTS.md reports (default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
)

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
    #: Named claims; the benchmark harness asserts each is True.
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


def write_report(results: Sequence[ExperimentResult], path) -> None:
    """Write a markdown report of experiment results to ``path``.

    The report mirrors EXPERIMENTS.md's structure: one section per
    experiment with its measured table, notes and check status — handy
    for regenerating the record after a sweep
    (``python -m repro experiment all --output report.md``).
    """
    from pathlib import Path

    lines = ["# Table 1 regeneration report", ""]
    passed = sum(1 for r in results if r.passed)
    lines.append(
        f"{passed}/{len(results)} experiments passed all checks."
    )
    lines.append("")
    for result in results:
        lines.append(f"## {result.exp_id.upper()} — {result.title}")
        lines.append("")
        lines.append("| " + " | ".join(result.headers) + " |")
        lines.append("|" + "---|" * len(result.headers))
        for row in result.rows:
            lines.append(
                "| " + " | ".join(str(cell) for cell in row) + " |"
            )
        lines.append("")
        for note in result.notes:
            lines.append(f"*{note}*")
        status = "**PASS**" if result.passed else \
            f"**FAIL** ({', '.join(result.failed_checks())})"
        lines.append("")
        lines.append(f"Checks: {status}")
        lines.append("")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Harness integration: cached / parallel sweep execution.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionConfig:
    """Process-wide defaults for how experiment sweeps execute.

    Experiments that route their sweeps through :func:`run_campaign`
    pick these up automatically; the CLI (``--jobs``/``--cache-dir``/
    ``--no-cache``) and the benchmark suite set them via
    :func:`configure_execution`.  Every other
    :func:`repro.harness.campaign.run_tasks` setting stays at its
    default.
    """

    jobs: int = 1
    cache_dir: Optional[str] = None
    use_cache: bool = True


_EXECUTION = ExecutionConfig()

#: Sentinel distinguishing "not passed" from an explicit ``None``.
_UNSET: Any = object()


def execution_config() -> ExecutionConfig:
    """The current execution defaults (a copy)."""
    return replace(_EXECUTION)


def configure_execution(
    *,
    jobs: Optional[int] = None,
    cache_dir: Any = _UNSET,
    use_cache: Optional[bool] = None,
) -> ExecutionConfig:
    """Update the execution defaults; returns the *previous* config.

    Only the arguments actually passed change; restore by passing the
    returned config's fields back in.  ``cache_dir`` uses a sentinel
    default because ``None`` is a meaningful value for it (no cache).
    """
    global _EXECUTION
    previous = _EXECUTION
    _EXECUTION = ExecutionConfig(
        jobs=previous.jobs if jobs is None else max(1, int(jobs)),
        cache_dir=(
            previous.cache_dir if cache_dir is _UNSET else cache_dir
        ),
        use_cache=(
            previous.use_cache if use_cache is None else bool(use_cache)
        ),
    )
    return previous


def run_campaign(
    tasks: Sequence[Any],
    *,
    name: str = "experiment-sweep",
    jobs: Optional[int] = None,
    cache_dir: Any = _UNSET,
    use_cache: Optional[bool] = None,
    salt: str = "",
) -> List[Dict[str, Any]]:
    """Execute a sweep through the campaign harness.

    ``tasks`` are :class:`repro.harness.Task` objects (or their dict
    payloads).  Execution honours the session :class:`ExecutionConfig`
    — worker count and run cache — unless overridden per call, and the
    records come back **in task order**, so callers can zip them
    against whatever labels they expanded the sweep from.  Raises
    ``RuntimeError`` if any task failed (experiments must not silently
    tabulate partial sweeps).
    """
    from ..harness import campaign as _campaign
    from ..harness.spec import Task

    task_objs = [
        task if isinstance(task, Task) else Task.from_dict(task)
        for task in tasks
    ]
    cfg = _EXECUTION
    summary = _campaign.run_tasks(
        task_objs,
        jobs=cfg.jobs if jobs is None else max(1, int(jobs)),
        cache_dir=cfg.cache_dir if cache_dir is _UNSET else cache_dir,
        use_cache=cfg.use_cache if use_cache is None else bool(use_cache),
        salt=salt,
        name=name,
    )
    if summary.failures:
        errors = [
            record["error"]
            for record in summary.records
            if "error" in record
        ]
        raise RuntimeError(
            f"{summary.failures} task(s) of campaign {name!r} failed: "
            f"{errors[:3]}"
        )
    return summary.records


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
