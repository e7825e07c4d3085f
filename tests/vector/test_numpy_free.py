"""The object path must never touch numpy, even with the extra installed.

CI's main test job runs on a numpy-free install; these tests prove in
a subprocess — with a meta-path blocker that turns any ``import
numpy`` into an ImportError — that:

* importing ``repro.vector`` (the probing facade) succeeds and reports
  ``HAS_NUMPY = False``;
* the object backend runs protocols end to end;
* asking for the vector backend fails with the message that names the
  ``vector`` install extra;
* nothing on the object path imports numpy as a side effect.

With numpy installed and unblocked, the object path still loads none of
it: ``repro.vector`` only looks numpy up.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

BLOCKER = """
import importlib.abc
import sys

class _Block(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy is blocked for this test")
        return None

sys.meta_path.insert(0, _Block())
"""

SCRIPT = BLOCKER + """
from repro import protocols, vector
from repro.graphs.specs import parse_graph

assert vector.HAS_NUMPY is False

# The object path runs fine...
outcome = protocols.run("apsp", parse_graph("path:6"), {})
assert outcome.metrics.rounds > 0

# ...the vector backend is reported unavailable...
assert protocols.get("apsp").available_backends() == ("object",)

# ...and asking for it names the install extra.
try:
    protocols.run("apsp", parse_graph("path:6"), {"backend": "vector"})
except protocols.TaskError as exc:
    assert "repro[vector]" in str(exc), str(exc)
else:
    raise AssertionError("vector backend ran without numpy")

# Calling a facade entry point directly raises the typed error.
try:
    vector.run_bfs(parse_graph("path:4"))
except vector.VectorBackendUnavailable as exc:
    assert "repro[vector]" in str(exc), str(exc)
else:
    raise AssertionError("vector.run_bfs ran without numpy")

assert not any(m == "numpy" or m.startswith("numpy.")
               for m in sys.modules), "numpy leaked into the object path"
print("OK")
"""


INSTALLED_SCRIPT = """
import sys
from repro import protocols
from repro.graphs.specs import parse_graph

outcome = protocols.run("apsp", parse_graph("path:6"), {})
assert outcome.metrics.rounds > 0
assert "vector" in protocols.get("apsp").available_backends()
loaded = [m for m in sys.modules if m == "numpy" or m.startswith("numpy.")]
assert not loaded, f"the object path loaded {len(loaded)} numpy modules"
print("OK")
"""


def _run(script):
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "OK"


def test_object_path_is_numpy_free():
    _run(SCRIPT)


@pytest.mark.skipif(importlib.util.find_spec("numpy") is None,
                    reason="numpy is not installed")
def test_object_path_leaves_installed_numpy_unloaded():
    _run(INSTALLED_SCRIPT)
