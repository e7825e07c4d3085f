"""Tests for the ``repro.bench`` microbenchmark subsystem.

The benchmarks themselves are pytest-independent by design (see
``repro/bench/runner.py``); these tests exercise the machinery — report
schema, determinism enforcement, the regression gate, and the CLI — on
deliberately tiny workloads so the suite stays fast.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench.compare import DEFAULT_THRESHOLD, compare_reports
from repro.bench.runner import (
    SCHEMA,
    load_report,
    run_suite,
    run_workload,
    write_report,
)
from repro.bench.workloads import WORKLOADS, Workload, select
from repro.cli import main


TINY = Workload(
    name="tiny_apsp",
    algorithm="apsp",
    graph="path:6",
    quick_graph="path:4",
    seed=0,
)


def tiny_report(**overrides):
    report = run_suite(workloads=[TINY], repeats=2, **overrides)
    return report


class TestWorkloads:
    def test_suite_is_pinned(self):
        assert set(WORKLOADS) == {
            "bench_apsp", "bench_ssp", "bench_two_vs_four", "bench_girth",
            "bench_weighted",
        }
        # The perf gate is defined on bench_apsp at n >= 128.
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
            assert metrics.rounds > 0
            assert metrics.messages_total > 0

    def test_unknown_algorithm_rejected(self):
        bogus = Workload(name="x", algorithm="sorting",
                         graph="path:4", quick_graph="path:4")
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
        assert load_report(str(path)) == json.loads(path.read_text())

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "something-else/9"}))
        with pytest.raises(ValueError, match="unsupported benchmark schema"):
            load_report(str(path))

    def test_progress_callback(self):
        lines = []
        tiny_report(progress=lines.append)
        assert any("tiny_apsp" in line for line in lines)
        assert any("median" in line for line in lines)


class TestCompare:
    def setup_method(self):
        self.baseline = tiny_report()

    def test_identical_reports_pass_gate(self):
        comparison = compare_reports(self.baseline, self.baseline)
        assert comparison.ok
        assert not comparison.regressions and not comparison.divergent
        assert "gate: OK" in comparison.render()

    def test_slowdown_beyond_threshold_regresses(self):
        current = copy.deepcopy(self.baseline)
        entry = current["workloads"]["tiny_apsp"]
        entry["wall_s"]["median"] *= 1.0 + DEFAULT_THRESHOLD + 0.05
        comparison = compare_reports(self.baseline, current)
        assert not comparison.ok
        assert [d.name for d in comparison.regressions] == ["tiny_apsp"]
        assert "REGRESSED" in comparison.render()
        assert "gate: FAIL" in comparison.render()

    def test_slowdown_within_threshold_passes(self):
        current = copy.deepcopy(self.baseline)
        current["workloads"]["tiny_apsp"]["wall_s"]["median"] *= 1.10
        assert compare_reports(self.baseline, current).ok

    def test_custom_threshold(self):
        current = copy.deepcopy(self.baseline)
        current["workloads"]["tiny_apsp"]["wall_s"]["median"] *= 1.10
        assert not compare_reports(
            self.baseline, current, threshold=0.05
        ).ok

    def test_counter_divergence_fails_gate_even_when_faster(self):
        current = copy.deepcopy(self.baseline)
        entry = current["workloads"]["tiny_apsp"]
        entry["wall_s"]["median"] *= 0.5
        entry["rounds"] += 1
        comparison = compare_reports(self.baseline, current)
        assert not comparison.ok
        assert [d.name for d in comparison.divergent] == ["tiny_apsp"]
        assert "DIVERGED" in comparison.render()

    def test_workload_set_mismatch_is_reported(self):
        current = copy.deepcopy(self.baseline)
        current["workloads"]["tiny_new"] = copy.deepcopy(
            current["workloads"]["tiny_apsp"]
        )
        del current["workloads"]["tiny_apsp"]
        comparison = compare_reports(self.baseline, current)
        assert comparison.only_in_baseline == ("tiny_apsp",)
        assert comparison.only_in_current == ("tiny_new",)
        # Disjoint sets regress nothing — the gate only judges shared
        # workloads — but the rendering must surface the mismatch.
        assert "missing from current" in comparison.render()

    def test_mode_mismatch_rejected(self):
        quick = tiny_report(quick=True)
        with pytest.raises(ValueError, match="matching scale"):
            compare_reports(self.baseline, quick)


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

    def test_bench_compare_gate(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        code, _, _ = self.run_bench(["--out", str(baseline_path)], capsys)
        assert code == 0
        # A single repeat of a millisecond workload is too noisy for a
        # meaningful self-comparison, so slacken the baseline's median;
        # the counters stay byte-identical, which is the real check.
        baseline = json.loads(baseline_path.read_text())
        baseline["workloads"]["bench_ssp"]["wall_s"]["median"] *= 10
        baseline_path.write_text(json.dumps(baseline))
        code, out, _ = self.run_bench(
            ["--out", str(tmp_path / "again.json"),
             "--compare", str(baseline_path)], capsys)
        assert code == 0
        assert "gate: OK" in out

    def test_bench_compare_failure_and_warn_only(self, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        self.run_bench(["--out", str(baseline_path)], capsys)
        baseline = json.loads(baseline_path.read_text())
        baseline["workloads"]["bench_ssp"]["wall_s"]["median"] = 1e-9
        baseline_path.write_text(json.dumps(baseline))
        code, out, _ = self.run_bench(
            ["--out", str(tmp_path / "slow.json"),
             "--compare", str(baseline_path)], capsys)
        assert code == 1
        assert "gate: FAIL" in out
        code, out, err = self.run_bench(
            ["--out", str(tmp_path / "slow2.json"),
             "--compare", str(baseline_path), "--warn-only"], capsys)
        assert code == 0
        assert "gate: FAIL" in out
        assert "warn-only" in err

    def test_bench_unknown_workload_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--quick", "--workloads", "bench_nope"])

    def test_bench_missing_baseline_exits(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="--compare"):
            main(["bench", "--quick", "--repeats", "1",
                  "--workloads", "bench_ssp",
                  "--out", str(tmp_path / "r.json"),
                  "--compare", str(tmp_path / "absent.json")])


class TestCommittedBaseline:
    """The repo ships two baselines; keep them loadable and consistent."""

    RESULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "results"

    # ``bench_weighted`` postdates the dated full-scale baseline, which
    # stays byte-identical; the quick CI baseline pins every workload.
    PRE_WEIGHTED = {"bench_weighted"}

    def test_ci_baseline_is_quick_mode(self):
        report = load_report(str(self.RESULTS / "baseline.json"))
        assert report["mode"] == "quick"
        assert set(report["workloads"]) == set(WORKLOADS)

    def test_dated_baseline_is_full_mode(self):
        report = load_report(str(self.RESULTS / "BENCH_2026-08-06.json"))
        assert report["mode"] == "full"
        assert set(report["workloads"]) == set(WORKLOADS) - self.PRE_WEIGHTED
