"""``repro.bench`` — pinned microbenchmarks.

A pytest-independent benchmark harness over the core entry points
(APSP, S-SP, 2-vs-4, girth) on pinned graph specs and seeds:

* :mod:`~repro.bench.workloads` — the pinned workload suite, each
  workload with its committed ``(rounds, messages, bits)`` at both
  scales;
* :mod:`~repro.bench.runner` — timed execution producing machine-
  readable ``BENCH_<date>.json`` reports (median/p90 wall time, rounds,
  messages, bits), and the check of every report against the pins.

CLI: ``repro bench [--quick] [--workloads a,b] [--backend B]``, which
exits 1 when a counter differs from its pin; the schema and workflow
are documented in ``docs/benchmarks.md``.  Dated ``BENCH_*.json``
reports in ``benchmarks/results/`` record past measurements.
"""

from .runner import check_pins, default_output_path, run_suite, write_report

__all__ = [
    "check_pins",
    "default_output_path",
    "run_suite",
    "write_report",
]
