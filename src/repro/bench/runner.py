"""Benchmark execution: timed repeats, machine-readable reports.

Runs each :class:`~repro.bench.workloads.Workload` once untimed, to
pay first-use costs (imports, caches), then ``repeats`` times under
``time.perf_counter`` (pytest-independent — importing pytest or a
plugin would distort exactly the hot path we are measuring), checks that
every timed run's counters equal the warm-up's, and assembles a
JSON-pure report in the ``repro-bench/1`` schema documented in
``docs/benchmarks.md``.  :func:`check_pins` then compares the report's
counters with the workloads' pins.

Wall-time statistics are median and p90 over the repeats (plus min /
max / mean for context): the median is robust against a single noisy
repeat, and p90 bounds the tail.  Nothing here judges wall time;
perfbench's alternating pairs are the speed record.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from dataclasses import replace
from datetime import date
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import percentile
from .workloads import Workload, select

#: Report schema identifier; bump when the shape changes.
SCHEMA = "repro-bench/1"

FULL_REPEATS = 5
QUICK_REPEATS = 3

#: The simulation counters a report records and a workload pins.
COUNTERS = ("rounds", "messages", "bits")


def _counters(metrics) -> Tuple[int, int, int]:
    return metrics.rounds, metrics.messages_total, metrics.bits_total


def run_workload(
    workload: Workload,
    *,
    quick: bool = False,
    repeats: Optional[int] = None,
) -> Dict[str, object]:
    """Measure one workload; returns its JSON-pure report entry.

    One untimed warm-up run comes first; its counters are the reference
    every timed run must repeat, so even ``repeats=1`` checks
    determinism.
    """
    repeats = repeats or (QUICK_REPEATS if quick else FULL_REPEATS)
    reference = _counters(workload.run(quick))
    wall: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        metrics = workload.run(quick)
        wall.append(time.perf_counter() - start)
        snapshot = _counters(metrics)
        if snapshot != reference:
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
    forces every selected workload onto one execution engine (the pins
    hold on every backend, so ``backend="vector"`` with
    :func:`check_pins` is the cross-backend counter gate).  Every
    workload is checked against its protocol before the first run, so
    one the backend cannot run raises ``ValueError`` with nothing timed.
    """
    chosen = tuple(workloads) if workloads is not None else select(names)
    if backend is not None:
        chosen = tuple(replace(w, backend=backend) for w in chosen)
    for workload in chosen:
        workload.check()
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


def check_pins(report: Dict[str, object]) -> List[str]:
    """Every counter in ``report`` that differs from its workload's pin.

    Workloads are resolved by name, and the pin is the one at the
    report's scale.  Returns one ``workload: counter pinned -> measured``
    line per difference; an empty list means every counter matched.
    """
    quick = report["mode"] == "quick"
    entries = report["workloads"]
    lines = []
    for workload in select(list(entries)):
        entry = entries[workload.name]
        for counter, pinned in zip(COUNTERS, workload.pinned(quick)):
            if entry[counter] != pinned:
                lines.append(
                    f"{workload.name}: {counter} {pinned} -> {entry[counter]}"
                )
    return lines
