"""Smoke tests for the package surface."""

import subprocess
import sys
from pathlib import Path

import repro
from repro import congest, core, graphs, harness, protocols, serve


def test_version():
    assert repro.__version__ == "1.1.0"


def test_quickstart_from_docstring():
    g = graphs.torus_graph(4, 4)
    apsp = core.run_apsp(g)
    assert apsp.diameter() == graphs.diameter(g)
    assert apsp.rounds > 0


def test_all_exports_resolve():
    for module in (congest, core, graphs, harness, protocols, serve):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_layering_core_imports_nothing_private_from_tests():
    # The public surface exposes the documented layers.
    assert repro.__all__ == [
        "congest", "core", "graphs", "harness", "protocols",
        "__version__",
    ]


def test_import_repro_is_asyncio_free():
    # The harness imports its worker pool (and with it asyncio) only
    # when a campaign needs one; run workloads pay for plain imports.
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('asyncio' in sys.modules)"],
        env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
