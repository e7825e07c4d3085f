"""Per-task execution: every algorithm adapter produces a faithful record."""

import pytest

from repro import core, graphs, protocols
from repro.congest.metrics import RunMetrics
from repro.harness import Task, execute_task
from repro.protocols import TaskError


def _task(graph, algorithm, **params):
    return Task.make(graph, algorithm, {"seed": 0, "policy": "strict",
                                        **params})


def test_apsp_record_matches_direct_run():
    record = execute_task(_task("torus:4x4", "apsp"))
    direct = core.run_apsp(graphs.torus_graph(4, 4))
    assert record["result"]["diameter"] == direct.diameter()
    assert record["result"]["radius"] == direct.radius()
    assert record["metrics"]["rounds"] == direct.rounds
    assert record["metrics"]["bits_total"] == direct.metrics.bits_total
    assert record["graph"] == {"n": 16, "m": 32}
    assert record["task"]["algorithm"] == "apsp"


def test_metrics_round_trip_through_run_metrics():
    record = execute_task(_task("path:8", "apsp"))
    metrics = RunMetrics.from_dict(record["metrics"])
    assert metrics.to_dict() == record["metrics"]
    assert metrics.rounds == record["metrics"]["rounds"]


def test_ssp_with_num_sources():
    record = execute_task(_task("path:8", "ssp", num_sources=2))
    assert record["result"]["sources"] == [1, 2]
    assert record["result"]["max_distance"] == 7


def test_ssp_with_explicit_sources():
    record = execute_task(_task("path:8", "ssp", sources=[1, 8]))
    assert record["result"]["sources"] == [1, 8]


def test_ssp_without_sources_rejected():
    with pytest.raises(TaskError):
        execute_task(_task("path:8", "ssp"))


def test_properties_record():
    record = execute_task(_task("cycle:9", "properties"))
    assert record["result"]["diameter"] == 4
    assert record["result"]["radius"] == 4
    assert record["result"]["girth"] == 9
    assert record["result"]["center"] == list(range(1, 10))


def test_approx_record():
    record = execute_task(_task("grid:4x4", "approx", epsilon=0.5))
    exact = graphs.diameter(graphs.grid_graph(4, 4))
    assert exact <= record["result"]["diameter_estimate"] <= \
        (1 + 0.5) * exact + 2


def test_girth_exact_and_approx():
    exact = execute_task(_task("cycle:10", "girth"))
    assert exact["result"]["girth"] == 10
    approx = execute_task(_task("cycle:10", "girth-approx", epsilon=1.0))
    assert 10 <= approx["result"]["girth"] <= 20 + 2


def test_two_vs_four_record():
    record = execute_task(_task("diameter2:24:seed=1", "two-vs-four"))
    assert record["result"]["diameter"] == 2


def test_baseline_record():
    record = execute_task(
        _task("path:8", "baseline", variant="distance-vector")
    )
    assert record["result"]["variant"] == "distance-vector"
    assert record["result"]["diameter"] == 7


def test_baseline_without_variant_rejected():
    with pytest.raises(TaskError):
        execute_task(_task("path:8", "baseline"))


def test_leader_record():
    record = execute_task(_task("er:12:p=0.3:seed=2", "leader"))
    assert record["result"]["leader"] == 1


def test_unknown_algorithm_rejected():
    with pytest.raises(TaskError, match="unknown algorithm"):
        execute_task(_task("path:8", "dijkstra"))


def test_unknown_param_rejected():
    with pytest.raises(TaskError, match="unknown params"):
        execute_task(_task("path:8", "apsp", wat=1))


def test_policy_axis_reaches_the_network():
    strict = execute_task(_task("path:8", "apsp"))
    local = execute_task(
        Task.make("path:8", "apsp", {"seed": 0, "policy": "unlimited"})
    )
    # Same algorithm, same rounds — the policy only changes enforcement.
    assert strict["metrics"]["rounds"] == local["metrics"]["rounds"]
    assert strict["task"]["params"]["policy"] == "strict"
    assert local["task"]["params"]["policy"] == "unlimited"


def test_available_algorithms_inventory():
    # execute_task accepts exactly the registry's names.
    assert protocols.names() == sorted([
        "apsp", "ssp", "properties", "approx", "girth", "girth-approx",
        "two-vs-four", "baseline", "leader", "chaos",
        "remark1", "bfs", "tree-check", "k-bfs", "all-two-bfs",
        "dominating-set", "prt-diameter", "pebble", "weighted-apsp",
    ])
