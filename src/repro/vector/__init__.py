"""Vectorized simulation backend (``--backend=vector``).

This package re-implements the fault-free, strict-policy execution of
the paper's core algorithms (BFS, Algorithm 1 APSP, Algorithm 2 S-SP,
the Lemma 2–7 property epilogue and exact girth) as batched numpy array
operations over a CSR-style adjacency structure, instead of stepping one
Python generator per node per round.  The message *schedules* of those
protocols are closed-form functions of the distance matrix and the
``T_1`` pebble traversal, so a whole Algorithm 1 run is one
bit-parallel BFS and one pass over rows of the distance matrix per
block of nodes — 10–50× faster at ``n ≥ 512`` and practical at
``n = 2048+``.

The contract is byte-identical observability: every entry point returns
the same result objects and the same
:class:`~repro.congest.metrics.RunMetrics` — rounds, message and bit
totals, per-round series, max-per-edge counters and (optionally)
per-edge cumulative bits — as the object engine, pinned by the golden
equivalence fixtures and a cross-backend hypothesis property test.

numpy is an *optional* dependency (``pip install "repro[vector]"``).
Importing this package never fails and never imports numpy: it only
looks numpy up (:data:`HAS_NUMPY`), so object-backend processes stay
numpy-free.  The engine imports numpy when the first vector run starts;
calling an entry point without numpy raises
:class:`VectorBackendUnavailable` naming the install extra.
What the vector backend deliberately does **not** support (the object
engine remains the reference for these) is stated once, in
:func:`unsupported`: fault injection, non-strict bandwidth policies,
the ``priority="id"`` S-SP rule, and tracing.  Every layer that offers
the backend asks it and raises its own error type; the entry points
here raise :class:`VectorBackendError`.
"""

from __future__ import annotations

import importlib.util
from typing import Any, Optional

from ..core.ssp import PRIORITY_DIST_ID

#: Whether numpy is installed; found without importing it.
try:  # pragma: no cover - trivially environment-dependent
    HAS_NUMPY = importlib.util.find_spec("numpy") is not None
except (ImportError, ValueError):  # pragma: no cover
    HAS_NUMPY = False

#: The pip extra that pulls in the vector backend's only dependency.
INSTALL_EXTRA = "vector"

#: One canonical sentence, reused by every layer that reports the
#: missing dependency (protocol dispatch, campaign spec validation,
#: CLI) so the remedy always reads the same.
NUMPY_HINT = (
    "the vector backend requires numpy; install the "
    f"'{INSTALL_EXTRA}' extra (pip install \"repro[{INSTALL_EXTRA}]\") "
    "or pick --backend=object"
)


class VectorBackendError(RuntimeError):
    """A request the vector backend deliberately does not support."""


class VectorBackendUnavailable(VectorBackendError):
    """numpy is not importable, so the vector backend cannot run."""


def unsupported(*, faults: Any = None, policy: str = "strict",
                priority: Optional[str] = None,
                trace: bool = False) -> Optional[str]:
    """Why the vector backend cannot run this request, or ``None``.

    The one statement of the backend's limits: numpy installed, no
    fault injection, the ``strict`` policy, the ``dist_id`` S-SP
    priority, and no trace capture.
    """
    if not HAS_NUMPY:
        return NUMPY_HINT
    if faults is not None:
        return (
            "the vector backend does not support fault injection; "
            "use the object backend for faulty networks"
        )
    if policy != "strict":
        return (
            f"the vector backend supports only the 'strict' bandwidth "
            f"policy, not {policy!r}; use the object backend"
        )
    if priority not in (None, PRIORITY_DIST_ID):
        return (
            f"the vector backend supports only the corrected "
            f"{PRIORITY_DIST_ID!r} S-SP priority rule, not {priority!r}; "
            f"use the object backend"
        )
    if trace:
        return (
            "the vector backend does not support trace capture: it "
            "computes whole rounds at once and records no per-event "
            "trace; use the object backend"
        )
    return None


def require_numpy() -> None:
    """Raise :class:`VectorBackendUnavailable` unless numpy is installed."""
    reason = unsupported()
    if reason is not None:
        raise VectorBackendUnavailable(reason)


def _load_engine():
    require_numpy()
    return importlib.import_module(__name__ + "._engine")


def run_bfs(graph, **kwargs: Any):
    """Vector twin of :func:`repro.core.run_bfs`; returns ``(results, metrics)``."""
    return _load_engine().run_bfs(graph, **kwargs)


def run_apsp(graph, **kwargs: Any):
    """Vector twin of :func:`repro.core.run_apsp`; returns an ``ApspSummary``."""
    return _load_engine().run_apsp(graph, **kwargs)


def run_ssp(graph, sources, **kwargs: Any):
    """Vector twin of :func:`repro.core.run_ssp`; returns an ``SspSummary``."""
    return _load_engine().run_ssp(graph, sources, **kwargs)


def run_graph_properties(graph, **kwargs: Any):
    """Vector twin of :func:`repro.core.run_graph_properties`."""
    return _load_engine().run_graph_properties(graph, **kwargs)


def run_exact_girth(graph, **kwargs: Any):
    """Vector twin of :func:`repro.core.run_exact_girth`."""
    return _load_engine().run_exact_girth(graph, **kwargs)
