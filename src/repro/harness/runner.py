"""Per-task execution: algorithm name → registered protocol.

:func:`execute_task` is the function worker processes run.  It parses
the task's graph spec, dispatches through the
:mod:`repro.protocols` registry, and returns a *deterministic* record
— JSON-pure, independent of wall-clock, worker identity, process
memory layout, and cache state — so that a cache hit and a fresh
computation yield byte-identical stored records.

Record shape::

    {
      "task":    {"graph": ..., "algorithm": ..., "params": {...}},
      "graph":   {"n": ..., "m": ...},
      "result":  {... small algorithm-specific summary ...},
      "metrics": RunMetrics.to_dict()
    }

Campaign-level fields (content key, timing, cache provenance) are added
by :mod:`.campaign`, outside the deterministic core.

This module holds no algorithm table of its own: adapters, parameter
validation and the degraded-run marker all live with the protocol
declarations in :mod:`repro.protocols.builtin`.
"""

from __future__ import annotations

from typing import Any, Dict

from ..graphs.specs import parse_graph
from ..protocols import get as get_protocol
from .spec import Task

__all__ = ["execute_task"]


def execute_task(task: Task) -> Dict[str, Any]:
    """Run one task and return its deterministic record (see module doc).

    A ``trace: true`` param (set spec-wide by ``CampaignSpec.trace`` /
    ``repro campaign --trace``) runs the task under
    :func:`repro.obs.capture` and adds the trace's deterministic
    summary digest as a ``trace`` field — still JSON-pure and
    replay-stable, so cached and fresh records stay byte-identical.
    Workers run one task at a time, so the process-global tracer slot
    is safe here.
    """
    protocol = get_protocol(task.algorithm)  # TaskError when unknown
    graph = parse_graph(task.graph)
    params = task.param_dict()
    trace_summary = None
    if params.pop("trace", False):
        from ..obs import capture

        with capture() as session:
            outcome = protocol.execute(graph, params)
        if session.network_count:
            trace_summary = session.summary()
    else:
        outcome = protocol.execute(graph, params)
    record = {
        "task": task.payload(),
        "graph": {"n": graph.n, "m": graph.m},
        "result": outcome.result,
        "metrics": outcome.metrics.to_dict(),
    }
    if trace_summary is not None:
        record["trace"] = trace_summary
    return record
