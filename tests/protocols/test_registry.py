"""Registry completeness: one declaration per algorithm, no drift."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import core, protocols, vector
from repro.congest.metrics import RunMetrics
from repro.graphs.specs import parse_graph
from repro.protocols import CAPABILITIES, TaskError

REPO_ROOT = Path(__file__).resolve().parents[2]

ALL = protocols.protocols()


def smoke_params(protocol):
    """Example values for every schema param that declares one."""
    return {
        spec.name: spec.example
        for spec in protocol.schema
        if spec.example is not None
    }


def test_every_core_entry_point_is_registered():
    public = {
        getattr(core, name) for name in dir(core)
        if name.startswith("run_") and callable(getattr(core, name))
    }
    registered = {p.entry for p in ALL}
    assert public <= registered
    # Besides core: the weighted reduction and the hostile test task.
    assert {p.name for p in ALL if p.entry not in public} == {
        "weighted-apsp", "chaos",
    }


def test_entry_points_resolve_to_callables():
    # Each vector twin is repro.vector's function of its entry's name.
    for protocol in ALL:
        assert callable(protocol.entry), protocol.name
        if protocol.vector_entry is not None:
            twin = getattr(vector, protocol.entry.__name__)
            assert protocol.vector_entry is twin, protocol.name


def test_vector_capability_is_derived_from_the_twin():
    for protocol in ALL:
        has_twin = protocol.vector_entry is not None
        assert ("vector" in protocol.capabilities) == has_twin
        assert (protocol.vector_run is not None) == has_twin
    declared = protocols.Protocol(
        name="x", entry=core.run_bfs, summarize=lambda s, req: {},
        capabilities=frozenset({"faults", "vector"}),
    )
    assert declared.capabilities == {"faults"}
    assert declared.vector_run is None


def test_names_are_sorted_and_unique():
    names = protocols.names()
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert len(names) == len(ALL)


def test_capabilities_come_from_the_vocabulary():
    for protocol in ALL:
        assert protocol.capabilities <= CAPABILITIES, protocol.name


def test_unknown_capability_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown capabilities"):
        protocols.Protocol(
            name="x", entry=core.run_apsp, summarize=lambda s, req: {},
            capabilities=frozenset({"quantum"}),
        )


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        protocols.register(protocols.get("apsp"))


def test_unknown_protocol_error_lists_available():
    with pytest.raises(TaskError, match="available:"):
        protocols.get("dijkstra")


@pytest.mark.parametrize(
    "protocol", ALL, ids=lambda p: p.name
)
def test_smoke_run_on_declared_graph(protocol):
    """Every protocol runs on its smoke graph with example params.

    On every backend it has: the schema's names are the keywords of
    each engine function the protocol calls.
    """
    graph = parse_graph(protocol.smoke_graph)
    for backend in protocol.available_backends():
        params = {**smoke_params(protocol), "backend": backend}
        outcome = protocol.execute(graph, params)
        assert outcome.protocol == protocol.name
        assert isinstance(outcome.metrics, RunMetrics)
        # The stored half of the envelope must be JSON-pure.
        json.dumps(outcome.result)


@pytest.mark.parametrize(
    "protocol",
    [p for p in ALL if p.schema],
    ids=lambda p: p.name,
)
def test_unknown_param_rejected_everywhere(protocol):
    with pytest.raises(TaskError, match="unknown params"):
        protocol.check_params({**smoke_params(protocol), "wat": 1})


def test_check_params_tolerates_the_trace_marker():
    protocols.get("apsp").check_params({"trace": True, "seed": 0})


def test_drift_tool_passes_on_this_tree():
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_registry.py")],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "registry OK" in result.stdout
