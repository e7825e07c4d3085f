"""Sweep-spec parsing and expansion."""

import json

import pytest

from repro.harness import CampaignSpec, SpecError, Task, load_spec


class TestTask:
    def test_payload_round_trip(self):
        task = Task.make("path:10", "apsp", {"seed": 3, "policy": "strict"})
        payload = task.payload()
        assert payload == {
            "graph": "path:10",
            "algorithm": "apsp",
            "params": {"seed": 3, "policy": "strict"},
        }
        assert Task.make(**payload) == task

    def test_tasks_are_hashable_and_order_insensitive(self):
        a = Task.make("path:10", "apsp", {"seed": 0, "policy": "strict"})
        b = Task.make("path:10", "apsp", {"policy": "strict", "seed": 0})
        assert a == b
        assert len({a, b}) == 1

    def test_nested_params_freeze_and_thaw(self):
        task = Task.make("path:10", "ssp",
                         {"sources": [1, 2], "opts": {"x": 1}})
        params = task.param_dict()
        assert params["sources"] == [1, 2]
        assert params["opts"] == {"x": 1}
        assert hash(task)  # frozen representation stays hashable


class TestCampaignSpec:
    def test_expansion_order_and_count(self):
        spec = CampaignSpec.from_dict({
            "graphs": ["path:{n}"],
            "sizes": [10, 20],
            "seeds": [0, 1],
            "algorithms": ["apsp", "properties"],
        })
        tasks = spec.expand()
        assert len(tasks) == 8
        # algorithms × graphs(sizes) × seeds, in declared order
        assert tasks[0].payload() == {
            "graph": "path:10", "algorithm": "apsp",
            "params": {"policy": "strict", "seed": 0},
        }
        assert [t.algorithm for t in tasks[:4]] == ["apsp"] * 4
        assert [t.graph for t in tasks[:4]] == [
            "path:10", "path:10", "path:20", "path:20",
        ]

    def test_fixed_graphs_not_duplicated_per_size(self):
        tasks = CampaignSpec.from_dict({
            "graphs": ["torus:4x4"],
            "sizes": [10, 20, 30],
        }).expand()
        assert len(tasks) == 1

    def test_policy_axis(self):
        tasks = CampaignSpec.from_dict({
            "graphs": ["path:8"],
            "policies": ["strict", "unlimited"],
        }).expand()
        assert [t.param_dict()["policy"] for t in tasks] == [
            "strict", "unlimited",
        ]

    def test_shared_params_reach_every_task(self):
        tasks = CampaignSpec.from_dict({
            "graphs": ["cycle:9"],
            "algorithms": ["approx"],
            "params": {"epsilon": 0.25},
        }).expand()
        assert tasks[0].param_dict()["epsilon"] == 0.25

    def test_placeholder_without_sizes_rejected(self):
        with pytest.raises(SpecError):
            CampaignSpec.from_dict({"graphs": ["path:{n}"]})

    def test_empty_graphs_rejected(self):
        with pytest.raises(SpecError):
            CampaignSpec.from_dict({"graphs": []})

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError):
            CampaignSpec.from_dict({"graphs": ["path:8"], "sizs": [1]})

    def test_reserved_param_rejected(self):
        with pytest.raises(SpecError, match="'seed' is a sweep axis"):
            CampaignSpec.from_dict({
                "graphs": ["path:8"], "params": {"seed": 1},
            })
        # Faults inside params would skip the top-level field's
        # canonicalization, so a no-op spec would change cache keys.
        with pytest.raises(SpecError, match="'faults' is a top-level"):
            CampaignSpec.from_dict({
                "graphs": ["path:8"], "params": {"faults": {"drop_rate": 0}},
            })

    def test_empty_seeds_rejected(self):
        with pytest.raises(SpecError):
            CampaignSpec.from_dict({"graphs": ["path:8"], "seeds": []})

    def test_non_integer_sizes_and_seeds_rejected(self):
        for axis in ("sizes", "seeds"):
            with pytest.raises(SpecError, match="must be integers"):
                CampaignSpec.from_dict({
                    "graphs": ["path:{n}"], "sizes": [8], axis: ["x"],
                })


class TestSpecTimeValidation:
    """Malformed campaigns die at expansion, before any worker spawns."""

    def test_unknown_algorithm_rejected_at_parse(self):
        with pytest.raises(SpecError, match="unknown algorithm"):
            CampaignSpec.from_dict({
                "graphs": ["path:8"], "algorithms": ["dijkstra"],
            })

    def test_empty_algorithms_rejected(self):
        with pytest.raises(SpecError):
            CampaignSpec.from_dict({
                "graphs": ["path:8"], "algorithms": [],
            })

    def test_bad_sources_rejected_at_expansion(self):
        spec = CampaignSpec.from_dict({
            "graphs": ["path:8"],
            "algorithms": ["ssp"],
            "params": {"sources": "nope"},
        })
        with pytest.raises(SpecError, match="list of integers"):
            spec.expand()

    def test_negative_k_rejected_at_expansion(self):
        spec = CampaignSpec.from_dict({
            "graphs": ["path:8"],
            "algorithms": ["dominating-set"],
            "params": {"k": -2},
        })
        with pytest.raises(SpecError, match="must be >= 1"):
            spec.expand()

    def test_unknown_param_names_the_offending_task(self):
        spec = CampaignSpec.from_dict({
            "graphs": ["cycle:9"],
            "algorithms": ["apsp"],
            "params": {"epsilom": 0.5},
        })
        with pytest.raises(SpecError) as excinfo:
            spec.expand()
        message = str(excinfo.value)
        assert "'apsp'" in message and "'cycle:9'" in message
        assert "epsilom" in message

    def test_missing_either_or_params_rejected_at_expansion(self):
        spec = CampaignSpec.from_dict({
            "graphs": ["path:8"], "algorithms": ["ssp"],
        })
        with pytest.raises(SpecError,
                           match="'sources' or 'num_sources'"):
            spec.expand()

    def test_validation_does_not_mutate_tasks(self):
        # Coercion/defaults must not leak into the expanded payloads,
        # or every cache key in existing stores would shift.
        spec = CampaignSpec.from_dict({
            "graphs": ["path:8"],
            "algorithms": ["approx"],
            "params": {"epsilon": 0.25},
        })
        (task,) = spec.expand()
        assert task.payload()["params"] == {
            "policy": "strict", "seed": 0, "epsilon": 0.25,
        }

    def test_valid_mixed_algorithm_spec_expands(self):
        spec = CampaignSpec.from_dict({
            "graphs": ["path:8"],
            "algorithms": ["apsp", "girth-approx"],
            "params": {"epsilon": 0.5},
        })
        # apsp does not take epsilon — expansion must name it.
        with pytest.raises(SpecError, match="'apsp'"):
            spec.expand()


class TestLoadSpec:
    def test_load_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        data = {"name": "sweep", "graphs": ["path:{n}"], "sizes": [10]}
        path.write_text(json.dumps(data), encoding="utf-8")
        assert load_spec(path) == data
        spec = CampaignSpec.from_dict(load_spec(path))
        assert spec.name == "sweep"
        assert len(spec.expand()) == 1

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SpecError):
            load_spec(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(SpecError):
            load_spec(path)
