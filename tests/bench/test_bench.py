"""Tests for the ``repro.bench`` microbenchmark subsystem.

The benchmarks themselves are pytest-independent by design (see
``repro/bench/runner.py``); these tests exercise the machinery — report
schema, determinism enforcement, the pinned-counter check, and the CLI
— on deliberately tiny workloads so the suite stays fast.
"""

import copy
import json
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bench.runner import (
    SCHEMA,
    check_pins,
    run_suite,
    run_workload,
    write_report,
)
from repro.bench.workloads import ALL_WORKLOADS, WORKLOADS, Workload, select
from repro.cli import main


TINY = Workload(
    name="tiny_apsp",
    algorithm="apsp",
    graph="path:6",
    pins=(47, 65, 660),
    quick_graph="path:4",
    quick_pins=(31, 33, 336),
    seed=0,
)


def tiny_report(**overrides):
    report = run_suite(workloads=[TINY], repeats=2, **overrides)
    return report


class Scripted:
    """A stand-in workload: each run sleeps, then reports given rounds."""

    name = "scripted"
    algorithm = "apsp"
    backend = "object"
    seed = 0

    def __init__(self, *runs):
        self.runs = list(runs)  # (seconds, rounds) per run, in order

    def graph_spec(self, quick):
        return "path:4"

    def run(self, quick):
        seconds, rounds = self.runs.pop(0)
        time.sleep(seconds)
        return SimpleNamespace(rounds=rounds, messages_total=1, bits_total=1)


class TestWorkloads:
    def test_suite_is_pinned(self):
        assert set(WORKLOADS) == {
            "bench_apsp", "bench_ssp", "bench_two_vs_four", "bench_girth",
            "bench_weighted",
        }
        # perfbench's run-object workload runs this graph at seed 1.
        assert WORKLOADS["bench_apsp"].graph.startswith("er:128:")

    def test_select_preserves_order_and_rejects_unknown(self):
        assert [w.name for w in select()] == list(WORKLOADS)
        assert [w.name for w in select(["bench_girth", "bench_apsp"])] == [
            "bench_girth", "bench_apsp",
        ]
        with pytest.raises(ValueError, match="unknown workload"):
            select(["bench_apsp", "bench_nope"])

    def test_every_workload_runs_at_quick_scale(self):
        for workload in WORKLOADS.values():
            metrics = workload.run(quick=True)
            measured = (metrics.rounds, metrics.messages_total,
                        metrics.bits_total)
            assert measured == workload.quick_pins, workload.name

    def test_unknown_algorithm_rejected(self):
        bogus = Workload(name="x", algorithm="sorting",
                         graph="path:4", pins=(0, 0, 0),
                         quick_graph="path:4", quick_pins=(0, 0, 0))
        with pytest.raises(ValueError, match="unknown algorithm"):
            bogus.run(quick=True)

    def test_workloads_dispatch_through_the_registry(self):
        from repro import protocols

        for workload in WORKLOADS.values():
            assert workload.algorithm in protocols.names()


class TestRunner:
    def test_entry_shape_and_counters(self):
        entry = run_workload(TINY, repeats=2)
        assert entry["graph"] == "path:6"
        assert entry["repeats"] == 2
        assert set(entry["wall_s"]) == {"median", "p90", "min", "max", "mean"}
        assert entry["wall_s"]["min"] <= entry["wall_s"]["median"]
        assert entry["wall_s"]["median"] <= entry["wall_s"]["max"]
        assert entry["rounds"] > 0 and entry["messages"] > 0
        assert entry["bits"] > 0

    def test_first_use_cost_is_not_timed(self):
        slow_first = Scripted((0.3, 7), (0.0, 7), (0.0, 7))
        entry = run_workload(slow_first, repeats=2)
        assert slow_first.runs == []
        assert entry["repeats"] == 2
        assert entry["wall_s"]["max"] < 0.3
        assert entry["rounds"] == 7

    def test_one_repeat_still_checks_determinism(self):
        drifting = Scripted((0.0, 7), (0.0, 8))
        with pytest.raises(AssertionError, match="non-deterministic"):
            run_workload(drifting, repeats=1)

    def test_quick_uses_quick_graph(self):
        entry = run_workload(TINY, quick=True, repeats=1)
        assert entry["graph"] == "path:4"

    def test_report_schema_and_roundtrip(self, tmp_path):
        report = tiny_report()
        assert report["schema"] == SCHEMA
        assert report["mode"] == "full"
        assert list(report["workloads"]) == ["tiny_apsp"]
        path = tmp_path / "report.json"
        write_report(report, str(path))
        assert json.loads(path.read_text()) == report

    def test_progress_callback(self):
        lines = []
        tiny_report(progress=lines.append)
        assert any("tiny_apsp" in line for line in lines)
        assert any("median" in line for line in lines)


class TestPins:
    """Every report's counters must equal its workloads' pins."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_suite(quick=True, repeats=1, names=["bench_weighted"])

    def test_matching_report_passes(self, report):
        assert check_pins(report) == []

    @pytest.mark.parametrize("counter, pinned", [
        ("rounds", 119), ("messages", 308), ("bits", 4004),
    ])
    def test_counter_off_pin_fails_even_when_faster(
        self, report, counter, pinned
    ):
        current = copy.deepcopy(report)
        entry = current["workloads"]["bench_weighted"]
        entry["wall_s"]["median"] *= 0.5
        entry[counter] += 1
        assert check_pins(current) == [
            f"bench_weighted: {counter} {pinned} -> {pinned + 1}"
        ]

    def test_wall_time_is_not_judged(self, report):
        current = copy.deepcopy(report)
        current["workloads"]["bench_weighted"]["wall_s"]["median"] *= 100
        assert check_pins(current) == []

    def test_full_report_is_checked_against_full_pins(self, report):
        # The quick counters under a full-scale label must fail: each
        # scale has its own pins.
        full = dict(report, mode="full")
        assert check_pins(full) == [
            "bench_weighted: rounds 223 -> 119",
            "bench_weighted: messages 6748 -> 308",
            "bench_weighted: bits 114468 -> 4004",
        ]


class TestCli:
    def run_bench(self, argv, capsys):
        code = main(["bench", "--quick", "--repeats", "1",
                     "--workloads", "bench_ssp", *argv])
        out, err = capsys.readouterr()
        return code, out, err

    def test_bench_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        code, out, _ = self.run_bench(["--out", str(out_path)], capsys)
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == SCHEMA
        assert report["mode"] == "quick"
        assert list(report["workloads"]) == ["bench_ssp"]
        assert "bench_ssp" in out

    def test_bench_pin_off_by_one_exits_1_and_writes_report(
        self, tmp_path, capsys, monkeypatch
    ):
        workload = ALL_WORKLOADS["bench_ssp"]
        rounds, messages, bits = workload.quick_pins
        off = replace(workload, quick_pins=(rounds, messages + 1, bits))
        monkeypatch.setitem(ALL_WORKLOADS, "bench_ssp", off)
        out_path = tmp_path / "bench.json"
        code, out, err = self.run_bench(["--out", str(out_path)], capsys)
        assert code == 1
        assert f"bench_ssp: messages {messages + 1} -> {messages}" in err
        assert "rounds" not in err and "bits" not in err
        report = json.loads(out_path.read_text())
        assert report["workloads"]["bench_ssp"]["messages"] == messages
        assert f"report -> {out_path}" in out

    def test_bench_vector_backend_checks_the_same_pins(self, tmp_path,
                                                        capsys):
        pytest.importorskip("numpy")
        code, out, err = self.run_bench(
            ["--backend", "vector", "--out", str(tmp_path / "v.json")],
            capsys)
        assert code == 0, err
        assert "pins: 1 workload(s) match" in out

    def test_bench_unknown_workload_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--quick", "--workloads", "bench_nope"])

    def test_bench_backend_without_twin_exits_before_any_run(
        self, tmp_path, capsys
    ):
        # bench_apsp and bench_ssp could run on the vector engine;
        # bench_two_vs_four, third in the suite, cannot.
        pytest.importorskip("numpy")
        out_path = tmp_path / "v.json"
        with pytest.raises(SystemExit) as info:
            main(["bench", "--quick", "--backend", "vector",
                  "--out", str(out_path)])
        assert "workload 'bench_two_vs_four'" in str(info.value)
        assert "not supported" in str(info.value)
        out, _ = capsys.readouterr()
        assert out == ""
        assert not out_path.exists()


class TestCommittedBaseline:
    """The dated full-scale report stays loadable and complete."""

    RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

    # ``bench_weighted`` postdates the dated full-scale baseline, which
    # stays byte-identical.
    PRE_WEIGHTED = {"bench_weighted"}

    def test_dated_baseline_is_full_mode(self):
        path = self.RESULTS / "BENCH_2026-08-06.json"
        report = json.loads(path.read_text())
        assert report["schema"] == SCHEMA
        assert report["mode"] == "full"
        assert set(report["workloads"]) == set(WORKLOADS) - self.PRE_WEIGHTED
