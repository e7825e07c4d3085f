"""Trace invariants: the paper's round-accounting claims, checkable.

The point of the observability layer is that statements like Lemma 1
("no two BFS tokens cross the same edge in the same round") stop being
test folklore and become predicates over a :class:`~repro.obs.session.Trace`.
Each checker here corresponds to one claim (the cross-link table lives
in ``docs/table1.md``):

* :func:`lemma1_collisions` — **Lemma 1**: Algorithm 1's pebble
  schedule keeps the ``n`` BFS waves congestion-free, so no directed
  edge ever carries tokens of two different waves in one round.
* :func:`pebble_hops_per_round` — **Remark 3**: the DFS pebble moves
  at most one edge anywhere in the network per round (``2(n-1)`` hops
  total).
* :func:`ssp_phase_delays` / :func:`wave_delays` / :func:`max_wave_delay`
  — **Theorem 3**: in Algorithm 2 a wave is delayed at most once per
  other source, so the true-distance offer reaches every node at most
  ``|S|`` rounds after its phase's aligned start, phase by phase.

:func:`check` bundles them into pass/fail results for the summary
exporter and the ``repro trace run`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from .session import Trace

DirectedEdge = Tuple[int, int]


@dataclass(frozen=True)
class Lemma1Collision:
    """Two (or more) BFS waves on one directed edge in one round."""

    round_no: int
    sender: int
    receiver: int
    roots: Tuple[int, ...]


@dataclass(frozen=True)
class InvariantResult:
    """Outcome of one invariant check over a trace."""

    name: str
    ok: bool
    detail: str


def lemma1_collisions(
    trace: Trace, *, kind: str = "BfsToken"
) -> List[Lemma1Collision]:
    """Same-edge/same-round collisions between distinct BFS waves.

    Lemma 1 says Algorithm 1 produces none.  The tree-construction
    phase contributes only the single ``T_1`` wave, so it can never
    collide; a nonzero result always indicts the pebble schedule.
    """
    seen: Dict[Tuple[int, int, int], set] = {}
    for record in trace.messages:
        if record.kind != kind:
            continue
        root = record.fields.get("root")
        key = (record.round_no, record.sender, record.receiver)
        seen.setdefault(key, set()).add(root)
    return [
        Lemma1Collision(round_no, sender, receiver, tuple(sorted(roots)))
        for (round_no, sender, receiver), roots in sorted(seen.items())
        if len(roots) > 1
    ]


def pebble_hops_per_round(trace: Trace) -> Dict[int, int]:
    """Pebble messages delivered per round (rounds with none omitted).

    Remark 3's traversal moves one pebble one edge per round, so every
    value should be 1; the total equals ``2(n-1)`` on a full APSP run.
    """
    hops: Dict[int, int] = {}
    for record in trace.messages:
        if record.kind == "PebbleMsg":
            hops[record.round_no] = hops.get(record.round_no, 0) + 1
    return hops


class SspPhaseDelays(NamedTuple):
    """Theorem 3's accounting for one aligned S-SP phase."""

    start_round: int
    #: ``|S|`` as the phase's ``ssp_loop_start`` announced it.
    size_s: Optional[int]
    #: ``(node, source) -> delay`` in rounds, measured from ``start_round``.
    delays: Dict[Tuple[int, int], int]


def ssp_phase_delays(trace: Trace) -> List[SspPhaseDelays]:
    """Algorithm 2's wave delays, one entry per S-SP phase, in start order.

    Derived from the ``ssp_loop_start`` / ``wave_adopt`` events the
    instrumented :func:`~repro.core.ssp.ssp_main_loop` emits.  A phase's
    main loop starts aligned at round ``r0``, and an undelayed wave
    reaches distance ``d`` at round ``r0 + d``, so the *final* adoption
    of source ``s`` at node ``v`` (the one carrying the smallest
    distance) arriving at round ``r`` was delayed ``r - r0 - d`` rounds.
    Theorem 3 bounds this by the phase's own ``|S|``.

    Multi-phase callers (Theorems 4 and 5, PRT) run the loop several
    times, so each ``wave_adopt`` belongs to the latest ``ssp_loop_start``
    its node emitted before it: events are recorded in round order, so
    that is the node's latest start at or before the adoption round.  A
    node with no start of its own (a hand-built trace) falls back to the
    latest start of any node; adoptions before every start are ignored.
    """
    current: Dict[int, Tuple[int, Optional[int]]] = {}
    latest: Optional[Tuple[int, Optional[int]]] = None
    final: Dict[Tuple[int, Optional[int]],
                Dict[Tuple[int, int], Tuple[int, int]]] = {}
    for record in trace.events:
        if record.name == "ssp_loop_start":
            latest = (record.round_no, record.attrs.get("size_s"))
            current[record.node] = latest
            final.setdefault(latest, {})
            continue
        if record.name != "wave_adopt" or latest is None:
            continue
        adoptions = final[current.get(record.node, latest)]
        key = (record.node, record.attrs["source"])
        dist = record.attrs["dist"]
        previous = adoptions.get(key)
        # The adoption carrying the smallest distance is the final word;
        # later re-improvements of the same distance keep the first round.
        if previous is None or dist < previous[0]:
            adoptions[key] = (dist, record.round_no)
    return [
        SspPhaseDelays(
            start_round=start,
            size_s=size_s,
            delays={
                key: round_no - start - dist
                for key, (dist, round_no) in adoptions.items()
            },
        )
        for (start, size_s), adoptions in final.items()
    ]


def wave_delays(trace: Trace) -> Dict[Tuple[int, int], int]:
    """Per ``(node, source)`` delay of Algorithm 2's waves, in rounds.

    Each delay is measured from the start of its own phase (see
    :func:`ssp_phase_delays`); a pair adopted in several phases keeps
    its largest delay.  Empty when the trace has no S-SP phase.
    """
    delays: Dict[Tuple[int, int], int] = {}
    for phase in ssp_phase_delays(trace):
        for key, delay in phase.delays.items():
            if key not in delays or delay > delays[key]:
                delays[key] = delay
    return delays


def ssp_source_count(trace: Trace) -> Optional[int]:
    """``|S|`` of the first S-SP phase, as its instrumentation announced."""
    for record in trace.events:
        if record.name == "ssp_loop_start":
            return record.attrs.get("size_s")
    return None


def max_wave_delay(trace: Trace) -> Optional[int]:
    """The largest wave delay in any phase, or ``None`` without S-SP events."""
    delays = wave_delays(trace)
    return max(delays.values()) if delays else None


def check(trace: Trace) -> List[InvariantResult]:
    """Run every applicable invariant; skip ones the trace can't witness."""
    results: List[InvariantResult] = []

    has_bfs = any(r.kind == "BfsToken" for r in trace.messages)
    if has_bfs:
        collisions = lemma1_collisions(trace)
        results.append(
            InvariantResult(
                name="lemma1_no_wave_collisions",
                ok=not collisions,
                detail=(
                    "no two BFS waves shared an edge in any round"
                    if not collisions else
                    f"{len(collisions)} same-edge/same-round collisions, "
                    f"first at round {collisions[0].round_no} on edge "
                    f"{collisions[0].sender}->{collisions[0].receiver}"
                ),
            )
        )

    hops = pebble_hops_per_round(trace)
    if hops:
        worst = max(hops.values())
        results.append(
            InvariantResult(
                name="remark3_single_pebble_hop",
                ok=worst <= 1,
                detail=(
                    f"pebble moved {sum(hops.values())} hops, "
                    f"max {worst} per round"
                ),
            )
        )

    phases = [phase for phase in ssp_phase_delays(trace) if phase.delays]
    if phases:
        # Each phase answers to its own |S|.  The detail names the phase
        # with the least slack, which is the one that fails if any does.
        def bound(phase: SspPhaseDelays) -> int:
            return phase.size_s if phase.size_s is not None else trace.n

        tightest = min(
            phases, key=lambda phase: bound(phase) - max(phase.delays.values())
        )
        delay = max(tightest.delays.values())
        detail = f"max wave delay {delay} rounds (bound |S| = {bound(tightest)})"
        if len(phases) > 1:
            detail = (f"tightest of {len(phases)} phases, from round "
                      f"{tightest.start_round}: {detail}")
        results.append(
            InvariantResult(
                name="theorem3_wave_delay_bound",
                ok=delay <= bound(tightest),
                detail=detail,
            )
        )

    return results
