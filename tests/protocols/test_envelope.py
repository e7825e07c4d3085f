"""The RunRequest → RunOutcome envelope, end to end."""

import json

import pytest

from repro import protocols
from repro.graphs import cycle_graph, path_graph, torus_graph
from repro.graphs.weighted import (
    deterministic_weights,
    oracle_weighted_distances,
)
from repro.protocols import TaskError


class TestEnvelope:
    def test_outcome_carries_all_three_views(self):
        outcome = protocols.run("apsp", torus_graph(4, 4))
        assert outcome.protocol == "apsp"
        assert outcome.result["diameter"] == 4
        assert outcome.summary.diameter() == 4  # native object
        assert outcome.metrics.rounds == outcome.summary.rounds

    def test_common_kwargs_override_params(self):
        outcome = protocols.run(
            "apsp", path_graph(6), {"seed": 9}, seed=1
        )
        # The explicit keyword wins over the params dict.
        assert outcome.metrics.rounds > 0

    def test_policy_reaches_the_network(self):
        strict = protocols.run("apsp", path_graph(8))
        loose = protocols.run(
            "apsp", path_graph(8), {"policy": "unlimited"}
        )
        assert strict.metrics.rounds == loose.metrics.rounds

    def test_result_is_json_pure(self):
        for name in ("apsp", "properties", "leader", "girth"):
            protocol = protocols.get(name)
            graph = cycle_graph(9)
            outcome = protocol.execute(graph)
            json.dumps(outcome.result)

    def test_validation_happens_before_running(self):
        # A bad param on a large graph must fail instantly — the
        # request is rejected before the network is built.
        with pytest.raises(TaskError, match="unknown params"):
            protocols.run("apsp", path_graph(4), {"epsilon": 0.5})


class TestDegradedRuns:
    # Node 3 crashes at round 1: the run is guaranteed partial.
    FAULTS = {"crashes": {"3": 1}}

    def test_crashy_run_reports_degraded_not_wrong_aggregates(self):
        outcome = protocols.run(
            "apsp", cycle_graph(16), faults=self.FAULTS
        )
        assert outcome.metrics.nodes_crashed == 1
        assert outcome.result["degraded"] is True
        assert "diameter" not in outcome.result
        assert outcome.result["nodes_crashed"] == 1

    def test_clean_run_has_no_degraded_marker(self):
        outcome = protocols.run("apsp", cycle_graph(8))
        assert "degraded" not in outcome.result


class TestWeightedProtocol:
    def test_distances_match_dijkstra_oracle(self):
        graph = cycle_graph(6)
        outcome = protocols.run(
            "weighted-apsp", graph,
            {"max_weight": 4, "weight_seed": 2},
        )
        weighted = deterministic_weights(graph, 4, seed=2)
        oracle = oracle_weighted_distances(weighted)
        for u in graph.nodes:
            for v in graph.nodes:
                assert outcome.summary.distances[u][v] == oracle[u][v]

    def test_result_record_shape(self):
        outcome = protocols.run(
            "weighted-apsp", path_graph(5), {"max_weight": 3}
        )
        # max_weight records the realized largest weight, which can
        # fall below the requested cap on small graphs.
        assert 1 <= outcome.result["max_weight"] <= 3
        assert outcome.result["expanded_n"] >= 5
        assert outcome.result["weighted_diameter"] >= 4

    def test_unit_weights_reduce_to_plain_apsp(self):
        graph = torus_graph(3, 4)
        weighted = protocols.run(
            "weighted-apsp", graph, {"max_weight": 1}
        )
        plain = protocols.run("apsp", graph)
        assert (
            weighted.result["weighted_diameter"]
            == plain.result["diameter"]
        )
        assert weighted.result["expanded_n"] == graph.n

    def test_max_weight_validated(self):
        with pytest.raises(TaskError, match="must be >= 1"):
            protocols.run(
                "weighted-apsp", path_graph(4), {"max_weight": 0}
            )

    def test_campaign_spec_accepts_weighted(self):
        from repro.harness import CampaignSpec

        tasks = CampaignSpec.from_dict({
            "graphs": ["path:6"],
            "algorithms": ["weighted-apsp"],
            "params": {"max_weight": 3},
        }).expand()
        assert tasks[0].algorithm == "weighted-apsp"

    def test_cli_subcommand(self, capsys):
        from repro.cli import main

        assert main([
            "weighted-apsp", "cycle:6", "--max-weight", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "weighted APSP (subdivision reduction)" in out
        assert "weighted diameter:" in out
        assert "expanded n:" in out
