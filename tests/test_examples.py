"""Smoke tests: every example script runs end to end and says what it
promises."""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "APSP finished in" in out
    assert "diameter = 6" in out
    assert "shortest route" in out


def test_routing_tables(capsys):
    out = run_example("routing_tables.py", capsys)
    assert "Algorithm 1 (paper)" in out
    assert "link-state" in out
    assert "routing table of router" in out


def test_social_network_center(capsys):
    out = run_example("social_network_center.py", capsys)
    assert "exact (Lemmas 5-6)" in out
    assert "center candidates" in out
    assert "Remark 2" in out


def test_lower_bound_demo(capsys):
    out = run_example("lower_bound_demo.py", capsys)
    assert "disjoint" in out and "intersecting" in out
    assert "Lemma 11" in out


def test_girth_demo(capsys):
    out = run_example("girth_demo.py", capsys)
    assert "g=64" in out
    assert "inf" in out


def test_trace_demo(capsys):
    out = run_example("trace_demo.py", capsys)
    assert "[ok  ] lemma1_no_wave_collisions" in out
    assert "FAIL" not in out
    assert "Theorem 3 allows up to 5" in out
    assert "round x edge heatmap" in out
    assert "repro-trace/1 JSONL" in out


def test_diameter_sweep(capsys):
    out = run_example("diameter_sweep.py", capsys)
    assert "Cor1 branch" in out
    # Every cell is a deterministic (estimate, rounds) pair; pin the table.
    rows = [
        "torus 5x8         6      6 @186r      7 @115r     12 @22r     "
        "6 @254r  holzer-wattenhofer-1+eps",
        "path 50          49     49 @603r     61 @626r    98 @151r   "
        "49 @1615r  holzer-wattenhofer-1+eps",
        "dumbbell         16     16 @306r     18 @209r     30 @49r    "
        "16 @538r  holzer-wattenhofer-1+eps",
        "random sparse     4      4 @228r       5 @96r      8 @16r     "
        "4 @207r  holzer-wattenhofer-1+eps",
        "random dense      2      2 @210r      2 @210r      4 @10r     "
        "2 @150r  holzer-wattenhofer-1+eps",
    ]
    lines = out.splitlines()
    assert lines[2:7] == rows


def test_all_examples_have_docstrings_and_main():
    for script in sorted(EXAMPLES.glob("*.py")):
        text = script.read_text(encoding="utf-8")
        assert '"""' in text, script.name
        assert '__name__ == "__main__"' in text, script.name
        assert "Run:" in text, script.name
