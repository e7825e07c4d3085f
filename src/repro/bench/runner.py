"""Benchmark execution: timed repeats, machine-readable reports.

Runs each :class:`~repro.bench.workloads.Workload` ``repeats`` times
under ``time.perf_counter`` (pytest-independent — importing pytest or a
plugin would distort exactly the hot path we are measuring), checks that
the simulation itself is deterministic across repeats, and assembles a
JSON-pure report in the ``repro-bench/1`` schema documented in
``docs/benchmarks.md``.

Wall-time statistics are median and p90 over the repeats (plus min /
max / mean for context): the median is the regression-tracked number —
robust against a single noisy repeat on shared CI hardware — and p90
bounds the tail.  Peak RSS comes from ``resource.getrusage`` and is a
*process-wide high-water mark*: it can only grow across workloads, so
per-workload values are upper bounds attributable to the largest
workload run so far.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from dataclasses import replace
from datetime import date
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

try:
    import resource
except ImportError:  # pragma: no cover — non-POSIX platforms
    resource = None

from ..obs import percentile
from .workloads import Workload, select

#: Report schema identifier; bump when the shape changes.
SCHEMA = "repro-bench/1"

FULL_REPEATS = 5
QUICK_REPEATS = 3


def _peak_rss_kb() -> Optional[int]:
    """Process peak RSS in KiB (``None`` where unavailable)."""
    if resource is None:  # pragma: no cover
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is KiB on Linux, bytes on macOS.
    scale = 1024 if sys.platform == "darwin" else 1
    return int(usage.ru_maxrss) // scale


def run_workload(
    workload: Workload,
    *,
    quick: bool = False,
    repeats: Optional[int] = None,
) -> Dict[str, object]:
    """Measure one workload; returns its JSON-pure report entry."""
    repeats = repeats or (QUICK_REPEATS if quick else FULL_REPEATS)
    wall: List[float] = []
    reference = None
    for _ in range(repeats):
        start = time.perf_counter()
        metrics = workload.run(quick)
        wall.append(time.perf_counter() - start)
        snapshot = (metrics.rounds, metrics.messages_total,
                    metrics.bits_total)
        if reference is None:
            reference = snapshot
        elif snapshot != reference:
            raise AssertionError(
                f"{workload.name}: non-deterministic run "
                f"({snapshot} != {reference})"
            )
    rounds, messages, bits = reference
    return {
        "graph": workload.graph_spec(quick),
        "algorithm": workload.algorithm,
        "backend": workload.backend,
        "seed": workload.seed,
        "repeats": repeats,
        "wall_s": {
            "median": statistics.median(wall),
            "p90": percentile(wall, 0.9),
            "min": min(wall),
            "max": max(wall),
            "mean": statistics.fmean(wall),
        },
        "rounds": rounds,
        "messages": messages,
        "bits": bits,
        "peak_rss_kb": _peak_rss_kb(),
    }


def run_suite(
    *,
    quick: bool = False,
    repeats: Optional[int] = None,
    names: Optional[Sequence[str]] = None,
    workloads: Optional[Sequence[Workload]] = None,
    backend: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Run a benchmark suite and return the full ``repro-bench/1`` report.

    ``names`` selects a subset of the pinned suite; ``workloads``
    (tests only) substitutes explicit workload objects; ``backend``
    forces every selected workload onto one execution engine (the
    cross-backend divergence gate runs the object-backend suite under
    ``backend="vector"`` and compares counters against the committed
    object baseline).
    """
    chosen = tuple(workloads) if workloads is not None else select(names)
    if backend is not None:
        chosen = tuple(replace(w, backend=backend) for w in chosen)
    entries: Dict[str, object] = {}
    for workload in chosen:
        if progress is not None:
            progress(f"{workload.name}: {workload.graph_spec(quick)} ...")
        entry = run_workload(workload, quick=quick, repeats=repeats)
        entries[workload.name] = entry
        if progress is not None:
            wall = entry["wall_s"]
            progress(
                f"{workload.name}: median {wall['median']:.3f}s "
                f"p90 {wall['p90']:.3f}s over {entry['repeats']} repeats "
                f"({entry['rounds']} rounds, {entry['messages']} msgs)"
            )
    return {
        "schema": SCHEMA,
        "generated": date.today().isoformat(),
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workloads": entries,
    }


def default_output_path() -> str:
    """The conventional report filename: ``BENCH_<date>.json``."""
    return f"BENCH_{date.today().isoformat()}.json"


def write_report(report: Dict[str, object], path: str) -> None:
    """Write a report as pretty-printed JSON (parents created)."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")


def load_report(path: str) -> Dict[str, object]:
    """Load a report, validating the schema marker."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    schema = report.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"{path}: unsupported benchmark schema {schema!r} "
            f"(expected {SCHEMA!r})"
        )
    return report
