"""Trace exporters: JSONL streams, Chrome ``trace_event``, ASCII renderings.

Four renderings of one :class:`~repro.obs.session.Trace`:

* **JSONL** (:func:`to_jsonl` / :func:`write_jsonl`) — the canonical
  ``repro-trace/1`` stream documented in ``docs/observability.md``: a
  header line followed by one line per round aggregate, message, event
  and span, in that order, every line independently parseable.
* **Chrome** (:func:`to_chrome` / :func:`write_chrome`) — the Trace
  Event Format consumed by ``about://tracing`` / Perfetto.  The
  simulator has no wall-clock, so one round maps to 1000 µs; node-level
  spans and events land on per-node tracks, message deliveries on
  per-edge tracks, and per-round totals become counter series.
* **Summary** (:func:`render_summary`) — a terminal report: run costs,
  message census, invariant verdicts, and the round × edge utilization
  heatmap (:func:`render_heatmap`).
* **Timeline** (:func:`render_timeline`) — one line per round listing
  each delivery as ``sender->receiver:Kind``, for eyeballing message
  order on small runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from .invariants import check
from .session import SCHEMA, Trace

DirectedEdge = Tuple[int, int]

#: Chrome timeline scale: one synchronous round, in microseconds.
ROUND_US = 1000

#: Heatmap intensity ramp, blank = idle edge (ASCII-only by design).
HEAT_RAMP = " .:-=+*#%@"


# ---------------------------------------------------------------------------
# JSONL (repro-trace/1)
# ---------------------------------------------------------------------------


def to_jsonl(trace: Trace) -> Iterator[str]:
    """Render ``trace`` as ``repro-trace/1`` lines (see module doc)."""
    header: Dict[str, Any] = {
        "type": "header",
        "schema": SCHEMA,
        "n": trace.n,
        "m": trace.m,
        "bandwidth_bits": trace.bandwidth_bits,
        "rounds": trace.rounds,
    }
    if trace.label:
        header["label"] = trace.label
    yield json.dumps(header, sort_keys=True, separators=(",", ":"))
    for stats in trace.round_stats():
        record: Dict[str, Any] = {
            "type": "round",
            "round": stats.round_no,
            "messages": stats.messages,
            "bits": stats.bits,
            "max_edge_bits": stats.max_edge_bits,
            "busiest_edge": list(stats.busiest_edge),
        }
        depths = trace.queue_depths.get(stats.round_no)
        if depths:
            record["queue_depth"] = [
                [sender, receiver, depth]
                for (sender, receiver), depth in sorted(depths.items())
            ]
        yield json.dumps(record, sort_keys=True, separators=(",", ":"))
    for message in trace.messages:
        yield json.dumps(
            {
                "type": "message",
                "round": message.round_no,
                "sender": message.sender,
                "receiver": message.receiver,
                "kind": message.kind,
                "bits": message.bits,
                "fields": message.fields,
            },
            sort_keys=True, separators=(",", ":"),
        )
    for event in trace.events:
        yield json.dumps(
            {
                "type": "event",
                "name": event.name,
                "round": event.round_no,
                "node": event.node,
                "attrs": event.attrs,
            },
            sort_keys=True, separators=(",", ":"),
        )
    for span in trace.spans:
        yield json.dumps(
            {
                "type": "span",
                "name": span.name,
                "node": span.node,
                "begin": span.begin,
                "end": span.end,
                "attrs": span.attrs,
            },
            sort_keys=True, separators=(",", ":"),
        )


def write_jsonl(trace: Trace, path) -> Path:
    """Write the JSONL stream to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for line in to_jsonl(trace):
            handle.write(line + "\n")
    return path


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------

_PID_ROUNDS = 1
_PID_NODES = 2
_PID_EDGES = 3


def to_chrome(trace: Trace) -> Dict[str, Any]:
    """Render ``trace`` in Chrome's JSON Trace Event Format.

    Load the written file in ``about://tracing`` (or ui.perfetto.dev):
    the "rounds" process carries messages/bits counter series, "nodes"
    carries one track per node with its spans and instant events, and
    "edges" one track per directed edge with each delivery as a
    1-round-long slice.
    """
    events: List[Dict[str, Any]] = []

    def metadata(pid: int, name: str) -> None:
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": name},
        })

    metadata(_PID_ROUNDS, "rounds")
    metadata(_PID_NODES, "nodes")
    metadata(_PID_EDGES, "edges")

    for stats in trace.round_stats():
        ts = stats.round_no * ROUND_US
        events.append({
            "name": "traffic", "ph": "C", "pid": _PID_ROUNDS, "tid": 0,
            "ts": ts, "args": {"messages": stats.messages,
                               "bits": stats.bits},
        })
        events.append({
            "name": "max_edge_bits", "ph": "C", "pid": _PID_ROUNDS,
            "tid": 0, "ts": ts,
            "args": {"bits": stats.max_edge_bits,
                     "budget": trace.bandwidth_bits},
        })

    named_nodes = set()
    for span in trace.spans:
        tid = span.node if span.node is not None else 0
        if tid not in named_nodes:
            named_nodes.add(tid)
            events.append({
                "name": "thread_name", "ph": "M", "pid": _PID_NODES,
                "tid": tid, "args": {"name": f"node {tid}"},
            })
        events.append({
            "name": span.name, "ph": "X", "pid": _PID_NODES, "tid": tid,
            "ts": span.begin * ROUND_US,
            "dur": max(1, span.rounds) * ROUND_US,
            "args": dict(span.attrs),
        })
    for event in trace.events:
        tid = event.node if event.node is not None else 0
        if tid not in named_nodes:
            named_nodes.add(tid)
            events.append({
                "name": "thread_name", "ph": "M", "pid": _PID_NODES,
                "tid": tid, "args": {"name": f"node {tid}"},
            })
        events.append({
            "name": event.name, "ph": "i", "pid": _PID_NODES, "tid": tid,
            "ts": (event.round_no or 0) * ROUND_US, "s": "t",
            "args": dict(event.attrs),
        })

    edge_tids: Dict[DirectedEdge, int] = {}
    for message in trace.messages:
        tid = edge_tids.get(message.edge)
        if tid is None:
            tid = len(edge_tids) + 1
            edge_tids[message.edge] = tid
            events.append({
                "name": "thread_name", "ph": "M", "pid": _PID_EDGES,
                "tid": tid,
                "args": {"name": f"{message.sender}->{message.receiver}"},
            })
        events.append({
            "name": message.kind, "ph": "X", "pid": _PID_EDGES, "tid": tid,
            "ts": (message.round_no - 1) * ROUND_US, "dur": ROUND_US,
            "args": {"bits": message.bits, **message.fields},
        })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": SCHEMA,
            "round_us": ROUND_US,
            "n": trace.n,
            "m": trace.m,
            "bandwidth_bits": trace.bandwidth_bits,
        },
    }


def write_chrome(trace: Trace, path) -> Path:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(to_chrome(trace), sort_keys=True), encoding="utf-8"
    )
    return path


# ---------------------------------------------------------------------------
# ASCII timeline, heatmap + summary
# ---------------------------------------------------------------------------


def render_timeline(
    trace: Trace,
    *,
    kinds: Optional[Set[str]] = None,
    max_rounds: Optional[int] = None,
) -> str:
    """A compact ASCII timeline of deliveries: one line per round.

    Each line lists that round's messages in delivery order as
    ``sender->receiver:Kind``, keeping only ``kinds`` when given; rounds
    with nothing to show are skipped.  Rounds after ``max_rounds``
    collapse into one ``... (N more rounds)`` line, counted up to the
    last round with a delivery.
    """
    per_round = trace.per_round()
    last_round = max(per_round, default=0)
    lines = []
    for round_no, records in per_round.items():
        if max_rounds is not None and round_no > max_rounds:
            lines.append(f"... ({last_round - max_rounds} more rounds)")
            break
        shown = [
            f"{r.sender}->{r.receiver}:{r.kind}"
            for r in records
            if kinds is None or r.kind in kinds
        ]
        if shown:
            lines.append(f"r{round_no:>4}  " + "  ".join(shown))
    return "\n".join(lines)


def render_heatmap(
    trace: Trace,
    *,
    width: int = 72,
    max_edges: int = 20,
) -> str:
    """Round × edge utilization heatmap for terminals.

    Rows are the ``max_edges`` busiest directed edges (by total bits),
    columns bucket the run's rounds down to at most ``width`` cells;
    each cell shows the *peak* single-round utilization (bits / B) of
    that edge inside the bucket on the :data:`HEAT_RAMP` scale, with
    ``@`` = a full budget.
    """
    if not trace.messages:
        return "(no messages delivered)"
    totals = trace.edge_totals()
    edges = sorted(totals, key=lambda e: (-totals[e][1], e))[:max_edges]
    rounds = max(1, trace.rounds)
    columns = min(width, rounds)
    per_bucket = rounds / columns

    #: edge → round → bits (single pass over the messages).
    load: Dict[DirectedEdge, Dict[int, int]] = {edge: {} for edge in edges}
    wanted = set(edges)
    for record in trace.messages:
        if record.edge in wanted:
            by_round = load[record.edge]
            by_round[record.round_no] = (
                by_round.get(record.round_no, 0) + record.bits
            )

    budget = max(1, trace.bandwidth_bits)
    top = len(HEAT_RAMP) - 1
    label_width = max(len(f"{u}->{v}") for u, v in edges)
    lines = [
        f"round x edge heatmap  (B = {trace.bandwidth_bits} bits; "
        f"'{HEAT_RAMP[1]}' light ... '{HEAT_RAMP[top]}' = full budget; "
        f"{columns} cols ~ {per_bucket:.1f} rounds each)"
    ]
    for edge in edges:
        by_round = load[edge]
        cells = []
        for col in range(columns):
            lo = int(col * per_bucket) + 1
            hi = int((col + 1) * per_bucket)
            peak = max(
                (by_round.get(r, 0) for r in range(lo, hi + 1)), default=0
            )
            level = min(top, (peak * top + budget - 1) // budget)
            cells.append(HEAT_RAMP[level])
        u, v = edge
        label = f"{u}->{v}".rjust(label_width)
        lines.append(f"{label} |{''.join(cells)}|")
    axis = _round_axis(label_width, columns, rounds)
    lines.extend(axis)
    if len(totals) > len(edges):
        lines.append(
            f"({len(totals) - len(edges)} quieter edges not shown)"
        )
    return "\n".join(lines)


def _round_axis(label_width: int, columns: int, rounds: int) -> List[str]:
    """Tick line under the heatmap: round numbers at the extremes."""
    pad = " " * label_width
    ticks = [" "] * columns
    ticks[0] = "1"
    last = str(rounds)
    ruler = pad + " " + "".join(ticks)
    return [
        pad + " +" + "-" * columns + "+",
        ruler.rstrip() + " " * max(1, columns - len(last)) + last,
    ]


def render_summary(trace: Trace) -> str:
    """The ``--export summary`` report: costs, census, invariants, heatmap."""
    lines = []
    label = f" [{trace.label}]" if trace.label else ""
    lines.append(
        f"trace{label}: n={trace.n} m={trace.m} "
        f"B={trace.bandwidth_bits} bits/edge/round"
    )
    total_bits = sum(record.bits for record in trace.messages)
    lines.append(
        f"rounds: {trace.rounds}   messages: {len(trace.messages)}   "
        f"bits: {total_bits}   peak edge utilization: "
        f"{100 * trace.max_edge_utilization():.0f}%"
    )
    census = trace.counts_by_kind()
    if census:
        parts = [f"{kind}:{count}" for kind, count in sorted(census.items())]
        lines.append("message census: " + "  ".join(parts))
    if trace.spans:
        names: Dict[str, int] = {}
        for span in trace.spans:
            names[span.name] = names.get(span.name, 0) + 1
        parts = [f"{name}:{count}" for name, count in sorted(names.items())]
        lines.append("spans: " + "  ".join(parts))
    results = check(trace)
    if results:
        lines.append("invariants:")
        for result in results:
            verdict = "ok " if result.ok else "FAIL"
            lines.append(f"  [{verdict}] {result.name}: {result.detail}")
    lines.append("")
    lines.append(render_heatmap(trace))
    return "\n".join(lines)
