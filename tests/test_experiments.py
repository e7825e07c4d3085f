"""Tests for the experiments package: every Table 1 experiment passes
its own checks at quick scale and produces well-formed output."""

from pathlib import Path

import pytest

from repro import experiments

ALL_IDS = experiments.available()
RESULTS = Path(__file__).resolve().parents[1] / "benchmarks" / "results"


def test_registry_covers_experiments_md():
    expected = {
        "e1", "e2", "e3", "e4", "e5", "e6", "e6b", "e7", "e8",
        "e9a", "e9b", "e10", "e11a", "e11b", "e12", "e13", "e14",
        "e15", "e16", "e17",
    }
    assert set(ALL_IDS) == expected


@pytest.mark.parametrize("exp_id", ALL_IDS)
def test_experiment_passes_quick_scale(exp_id):
    result = experiments.run(exp_id, scale="quick")
    assert result.passed, (exp_id, result.failed_checks())
    assert result.rows, exp_id
    assert result.notes, exp_id
    assert result.checks, exp_id


def test_render_contains_table_and_status():
    result = experiments.run("e13", scale="quick")
    text = result.render()
    assert text.startswith("== E13")
    assert "checks: PASS" in text
    assert "note:" in text


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        experiments.run("e99")


def test_unknown_scale_rejected():
    with pytest.raises(ValueError):
        experiments.run("e1", scale="huge")


def test_failed_check_reported():
    result = experiments.ExperimentResult(
        exp_id="demo", title="t", headers=["a"]
    )
    result.require("good", True)
    result.require("bad", False)
    result.require("good", True)  # sticky semantics
    assert not result.passed
    assert result.failed_checks() == ["bad"]
    assert "FAIL (bad)" in result.render()


def test_committed_tables_match_the_registry():
    """One committed table per experiment, and none for a removed one."""
    stems = sorted(path.stem for path in RESULTS.glob("e*.txt"))
    assert stems == ALL_IDS


def test_cli_experiment_output_flag(tmp_path, capsys):
    from repro.cli import main

    target = tmp_path / "tables"
    assert main(["experiment", "e13", "--output", str(target)]) == 0
    capsys.readouterr()
    written = (target / "e13.txt").read_text(encoding="utf-8")
    assert written == experiments.run("e13", scale="quick").render() + "\n"
    assert [path.name for path in target.iterdir()] == ["e13.txt"]


def test_cli_experiment_output_must_be_a_directory(tmp_path, capsys):
    from repro.cli import main

    target = tmp_path / "report.md"
    target.write_text("", encoding="utf-8")
    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "e13", "--output", str(target)])
    assert str(excinfo.value).startswith("--output: ")
    assert capsys.readouterr().out == ""


def test_cli_unknown_experiment_names_the_ids(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "e99"])
    assert "unknown experiment 'e99'" in str(excinfo.value)
    assert "'e17'" in str(excinfo.value)
    assert capsys.readouterr().out == ""


def test_cli_experiment_command(capsys):
    from repro.cli import main

    assert main(["experiment", "e13", "--scale", "quick"]) == 0
    out = capsys.readouterr().out
    assert "E13" in out and "checks: PASS" in out

    assert main(["experiment", "list"]) == 0
    out = capsys.readouterr().out
    assert "e1" in out.split()
