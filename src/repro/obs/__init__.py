"""``repro.obs`` — structured observability for the CONGEST simulator.

A span/event API for algorithm code, capture sessions that turn runs
into :class:`~repro.obs.session.Trace` objects, checkable paper
invariants, and exporters (``repro-trace/1`` JSONL, Chrome
``trace_event``, ASCII heatmaps and timelines).  See
``docs/observability.md``.

Importing this package (or any instrumented module) costs nothing at
runtime: tracing is off until a :class:`Tracer` is installed, and the
disabled path is a single module-global read per protocol phase.
"""

from .export import (
    render_heatmap,
    render_summary,
    render_timeline,
    to_chrome,
    to_jsonl,
    write_chrome,
    write_jsonl,
)
from .invariants import (
    InvariantResult,
    Lemma1Collision,
    check,
    lemma1_collisions,
    max_wave_delay,
    pebble_hops_per_round,
    wave_delays,
)
from .session import (
    SCHEMA,
    CaptureSession,
    MessageRecord,
    RoundStats,
    Trace,
    capture,
)
from .stats import percentile
from .tracer import (
    ObsRecord,
    SpanRecord,
    Tracer,
    active,
    event,
    is_enabled,
    span,
    tracing,
)

__all__ = [
    "SCHEMA",
    "CaptureSession",
    "InvariantResult",
    "Lemma1Collision",
    "MessageRecord",
    "ObsRecord",
    "RoundStats",
    "SpanRecord",
    "Trace",
    "Tracer",
    "active",
    "capture",
    "check",
    "event",
    "is_enabled",
    "lemma1_collisions",
    "max_wave_delay",
    "pebble_hops_per_round",
    "percentile",
    "render_heatmap",
    "render_summary",
    "render_timeline",
    "span",
    "to_chrome",
    "to_jsonl",
    "tracing",
    "wave_delays",
    "write_chrome",
    "write_jsonl",
]
