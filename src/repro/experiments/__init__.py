"""Programmatic Table 1 regeneration.

Usage::

    from repro import experiments

    result = experiments.run("e1", scale="quick")
    print(result.render())
    assert result.passed

    for result in experiments.run_all():
        ...

Experiment ids follow EXPERIMENTS.md: ``e1`` (APSP linearity), ``e2``
(S-SP rounds), ``e3``/``e4`` (exact properties), ``e5``/``e7`` (girth),
``e6``/``e6b``/``e13`` (approximations), ``e8`` (2-vs-4), ``e9a``/
``e9b``/``e10`` (lower-bound demonstrations), ``e11a``/``e11b``
(baselines), ``e12`` (bit complexity), ``e14``/``e15`` (PRT
combinations), ``e16`` (congestion audit), ``e17`` (weighted APSP).

``python -m repro experiment all --scale paper --output
benchmarks/results`` rewrites the committed tables.
"""

from .base import (
    SCALES,
    ExperimentResult,
    available,
    fit_loglog_slope,
    run,
    run_all,
)

__all__ = [
    "ExperimentResult",
    "SCALES",
    "available",
    "fit_loglog_slope",
    "run",
    "run_all",
]
