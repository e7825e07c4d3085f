"""Golden equivalence tests: the engine's observable behaviour is pinned.

The round-engine hot path is heavily optimized (cached wire sizes, a
strict fault-free fast path, batched metrics accounting — see the
"Performance" section of ``docs/simulator.md``).  Every one of those
optimizations must be *observationally invisible*: identical
:class:`~repro.congest.metrics.RunMetrics` (rounds, messages, bits,
per-edge audits) and identical per-node results on every seed.

This module enforces that by replaying a fixed set of workloads — APSP,
S-SP, exact and approximate girth, 2-vs-4, a serializing baseline, and
two fault-injected runs (the slow path) — and comparing a canonical
digest of their results and full metrics against goldens recorded from
the pre-optimization engine (commit ``e7c8943`` and earlier), stored in
``golden_equivalence.json``.

The same goldens also gate the numpy vector backend
(:mod:`repro.vector`): every fault-free case it can run must reproduce
the object engine's record *byte-identically* — same results digest,
same rounds/messages/bits, same per-edge audits.  Those tests skip
cleanly when numpy is not installed.

Regenerating (only legitimate when the *model* changes, e.g. a new
message type shifts wire sizes — never to paper over an engine change)::

    PYTHONPATH=src python tests/congest/test_golden_equivalence.py \
        > tests/congest/golden_equivalence.json
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections.abc import Mapping
from pathlib import Path

import pytest

from repro import core
from repro.congest.faults import FaultSpec, LinkOutage
from repro.congest.network import Network
from repro.core.apsp import ApspNode
from repro.graphs.specs import parse_graph

GOLDEN_PATH = Path(__file__).with_name("golden_equivalence.json")


def _canonical(value):
    """JSON-pure rendering of result objects (dataclasses, mappings, ...)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {str(key): _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, frozenset):
        return sorted(_canonical(item) for item in value)
    if isinstance(value, float) and value == float("inf"):
        return "inf"
    return value


def _digest(results) -> str:
    """Stable digest of a per-node result mapping."""
    text = json.dumps(_canonical(results), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _record(results, metrics, fault_report=None):
    data = {
        "results_sha256": _digest(results),
        "halted_nodes": sorted(int(uid) for uid in results),
        "metrics": _canonical(metrics.to_dict()),
    }
    if fault_report is not None:
        data["fault_report"] = _canonical(fault_report.to_dict())
    return data


# ---------------------------------------------------------------------------
# The pinned workloads.  Keep them small (the whole set must stay cheap)
# but diverse: strict fast path, serialize backlog path, edge tracking,
# girth bookkeeping, and the fault-injected slow path.
# ---------------------------------------------------------------------------


def _case_apsp_strict():
    summary = core.run_apsp(
        parse_graph("er:20:p=0.2:seed=5"), seed=0, track_edges=True
    )
    return _record(summary.results, summary.metrics)


def _case_apsp_girth_seed1():
    summary = core.run_apsp(
        parse_graph("er:20:p=0.2:seed=5"), seed=1, collect_girth=True
    )
    return _record(summary.results, summary.metrics)


def _case_apsp_grid():
    summary = core.run_apsp(parse_graph("grid:4x5"), seed=3)
    return _record(summary.results, summary.metrics)


def _case_baseline_serialize():
    summary = core.run_baseline_apsp(
        parse_graph("path:10"), "distance-vector", seed=0, policy="serialize"
    )
    return _record(summary.results, summary.metrics)


def _case_ssp():
    summary = core.run_ssp(
        parse_graph("er:24:p=0.15:seed=2"), [1, 4, 9], seed=0
    )
    return _record(summary.results, summary.metrics)


def _case_girth_exact():
    summary = core.run_exact_girth(parse_graph("torus:4x6"), seed=0)
    return _record(summary.results, summary.metrics)


def _case_girth_approx():
    summary = core.run_approx_girth(parse_graph("cycle:30"), 0.5, seed=0)
    return _record(summary.results, summary.metrics)


def _case_two_vs_four_d2():
    summary = core.run_two_vs_four(parse_graph("diameter2:40:seed=3"), seed=0)
    return _record(summary.results, summary.metrics)


def _case_two_vs_four_d4():
    summary = core.run_two_vs_four(parse_graph("diameter4:40:seed=1"), seed=0)
    return _record(summary.results, summary.metrics)


def _case_bfs_grid():
    results, metrics = core.run_bfs(parse_graph("grid:4x5"), seed=0)
    return _record(results, metrics)


def _case_properties_er20():
    summary = core.run_graph_properties(
        parse_graph("er:20:p=0.2:seed=5"), seed=0
    )
    return _record(summary.results, summary.metrics)


def _case_faults_drops():
    outcome = Network(
        parse_graph("er:20:p=0.2:seed=5"),
        ApspNode,
        seed=0,
        max_rounds=200,
        faults=FaultSpec(drop_rate=0.03, seed=7),
    ).run()
    return _record(outcome.results, outcome.metrics, outcome.fault_report)


def _case_faults_crash_outage():
    outcome = Network(
        parse_graph("er:20:p=0.2:seed=5"),
        ApspNode,
        seed=0,
        max_rounds=150,
        faults=FaultSpec(
            seed=1,
            links=(LinkOutage(2, 3, 2, 8),),
            crashes=((6, 4),),
        ),
    ).run()
    return _record(outcome.results, outcome.metrics, outcome.fault_report)


CASES = {
    "apsp_strict_tracked": _case_apsp_strict,
    "apsp_girth_seed1": _case_apsp_girth_seed1,
    "apsp_grid_seed3": _case_apsp_grid,
    "baseline_dv_serialize": _case_baseline_serialize,
    "bfs_grid4x5": _case_bfs_grid,
    "properties_er20": _case_properties_er20,
    "ssp_er24": _case_ssp,
    "girth_exact_torus4x6": _case_girth_exact,
    "girth_approx_cycle30": _case_girth_approx,
    "two_vs_four_diam2": _case_two_vs_four_d2,
    "two_vs_four_diam4": _case_two_vs_four_d4,
    "faults_drops_roundlimit": _case_faults_drops,
    "faults_crash_outage": _case_faults_crash_outage,
}


# ---------------------------------------------------------------------------
# Vector-backend fixtures: the numpy round engine replays every
# fault-free case it is capable of and must land on the *same* golden
# record — that is the byte-identity contract the backend ships under.
# ---------------------------------------------------------------------------


def _vector_case_apsp_strict():
    from repro import vector

    summary = vector.run_apsp(
        parse_graph("er:20:p=0.2:seed=5"), seed=0, track_edges=True
    )
    return _record(summary.results, summary.metrics)


def _vector_case_apsp_girth_seed1():
    from repro import vector

    summary = vector.run_apsp(
        parse_graph("er:20:p=0.2:seed=5"), seed=1, collect_girth=True
    )
    return _record(summary.results, summary.metrics)


def _vector_case_apsp_grid():
    from repro import vector

    summary = vector.run_apsp(parse_graph("grid:4x5"), seed=3)
    return _record(summary.results, summary.metrics)


def _vector_case_bfs_grid():
    from repro import vector

    results, metrics = vector.run_bfs(parse_graph("grid:4x5"), seed=0)
    return _record(results, metrics)


def _vector_case_properties_er20():
    from repro import vector

    summary = vector.run_graph_properties(
        parse_graph("er:20:p=0.2:seed=5"), seed=0
    )
    return _record(summary.results, summary.metrics)


def _vector_case_ssp():
    from repro import vector

    summary = vector.run_ssp(
        parse_graph("er:24:p=0.15:seed=2"), [1, 4, 9], seed=0
    )
    return _record(summary.results, summary.metrics)


def _vector_case_girth_exact():
    from repro import vector

    summary = vector.run_exact_girth(parse_graph("torus:4x6"), seed=0)
    return _record(summary.results, summary.metrics)


VECTOR_CASES = {
    "apsp_strict_tracked": _vector_case_apsp_strict,
    "apsp_girth_seed1": _vector_case_apsp_girth_seed1,
    "apsp_grid_seed3": _vector_case_apsp_grid,
    "bfs_grid4x5": _vector_case_bfs_grid,
    "properties_er20": _vector_case_properties_er20,
    "ssp_er24": _vector_case_ssp,
    "girth_exact_torus4x6": _vector_case_girth_exact,
}


def _goldens():
    with GOLDEN_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_matches_pre_optimization_golden(name):
    golden = _goldens()[name]
    fresh = CASES[name]()
    assert fresh["metrics"] == golden["metrics"], (
        f"{name}: RunMetrics diverged from the pre-optimization engine"
    )
    assert fresh["halted_nodes"] == golden["halted_nodes"], (
        f"{name}: a different set of nodes produced results"
    )
    assert fresh["results_sha256"] == golden["results_sha256"], (
        f"{name}: per-node results diverged from the pre-optimization engine"
    )
    assert fresh.get("fault_report") == golden.get("fault_report"), (
        f"{name}: fault report diverged"
    )


@pytest.mark.parametrize("name", sorted(VECTOR_CASES))
def test_vector_backend_matches_golden(name):
    pytest.importorskip("numpy")
    golden = _goldens()[name]
    fresh = VECTOR_CASES[name]()
    assert fresh["metrics"] == golden["metrics"], (
        f"{name}: vector-backend RunMetrics diverged from the golden"
    )
    assert fresh["halted_nodes"] == golden["halted_nodes"], (
        f"{name}: vector backend produced results for different nodes"
    )
    assert fresh["results_sha256"] == golden["results_sha256"], (
        f"{name}: vector-backend per-node results diverged from the golden"
    )


def test_golden_file_covers_every_case():
    assert sorted(_goldens()) == sorted(CASES)


def test_vector_cases_are_a_fault_free_subset():
    # Every vector fixture replays an existing golden; the fault and
    # serialize cases stay object-only by design.
    assert set(VECTOR_CASES) <= set(CASES)
    assert not any(name.startswith("faults_") for name in VECTOR_CASES)


if __name__ == "__main__":
    print(json.dumps({name: fn() for name, fn in sorted(CASES.items())},
                     indent=2, sort_keys=True))
