"""Harness integration: campaigns recording traces into the ResultStore."""

import json

import pytest

from repro.harness import CampaignSpec, SpecError, run_campaign
from repro.harness.runner import execute_task
from repro.harness.spec import Task


class TestSpecTraceField:
    def test_expand_adds_trace_param(self):
        spec = CampaignSpec.from_dict({
            "graphs": ["path:6"], "trace": True,
        })
        tasks = spec.expand()
        assert all(t.param_dict()["trace"] is True for t in tasks)

    def test_with_trace_round_trip(self):
        plain = CampaignSpec.from_dict({"graphs": ["path:6"]})
        traced = CampaignSpec.from_dict({"graphs": ["path:6"], "trace": True})
        untraced = CampaignSpec.from_dict({"graphs": ["path:6"], "trace": False})
        assert traced.trace and not plain.trace
        assert untraced.expand() == plain.expand()

    def test_trace_changes_cache_key(self):
        plain = CampaignSpec.from_dict({"graphs": ["path:6"]}).expand()[0]
        traced = CampaignSpec.from_dict({
            "graphs": ["path:6"], "trace": True,
        }).expand()[0]
        assert plain.key() != traced.key()

    def test_trace_rejected_as_shared_param(self):
        with pytest.raises(SpecError):
            CampaignSpec.from_dict({
                "graphs": ["path:6"], "params": {"trace": True},
            })


class TestExecuteTask:
    def test_traced_record_carries_summary(self):
        task = Task.make("path:8", "apsp", {"seed": 0, "trace": True})
        record = execute_task(task)
        trace = record["trace"]
        assert trace["schema"] == "repro-trace/1"
        assert trace["lemma1_collisions"] == 0
        assert trace["rounds"] == record["metrics"]["rounds"]
        assert trace["messages"] == record["metrics"]["messages_total"]

    def test_untraced_record_has_no_trace_field(self):
        record = execute_task(Task.make("path:8", "apsp", {"seed": 0}))
        assert "trace" not in record

    def test_traced_record_is_deterministic(self):
        task = Task.make("er:16:p=0.3:seed=2", "apsp",
                         {"seed": 0, "trace": True})
        first = execute_task(task)
        second = execute_task(task)
        assert json.dumps(first, sort_keys=True) == \
            json.dumps(second, sort_keys=True)

    def test_traced_run_metrics_match_untraced(self):
        plain = execute_task(Task.make("torus:3x4", "apsp", {"seed": 0}))
        traced = execute_task(
            Task.make("torus:3x4", "apsp", {"seed": 0, "trace": True})
        )
        assert traced["metrics"] == plain["metrics"]
        assert traced["result"] == plain["result"]


class TestCampaignEndToEnd:
    def test_traced_campaign_stores_summaries(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "traced",
            "graphs": ["path:{n}"],
            "sizes": [8, 10],
            "algorithms": ["apsp"],
            "trace": True,
        })
        store = tmp_path / "out.jsonl"
        summary = run_campaign(
            spec, store_path=store, cache_dir=tmp_path / "cache",
            show_progress=False,
        )
        assert summary.failures == 0
        records = [
            json.loads(line)
            for line in store.read_text(encoding="utf-8").splitlines()
        ]
        assert len(records) == 2
        for record in records:
            assert record["trace"]["schema"] == "repro-trace/1"
            assert record["trace"]["lemma1_collisions"] == 0

    def test_cache_replay_returns_identical_trace(self, tmp_path):
        spec = CampaignSpec.from_dict({
            "name": "traced",
            "graphs": ["path:8"],
            "algorithms": ["apsp"],
            "trace": True,
        })
        cache = tmp_path / "cache"

        def run(out):
            run_campaign(spec, store_path=out, cache_dir=cache,
                         show_progress=False)
            return [
                json.loads(line)
                for line in out.read_text(encoding="utf-8").splitlines()
            ]

        first = run(tmp_path / "a.jsonl")
        second = run(tmp_path / "b.jsonl")
        assert second[0]["timing"]["cache_hit"]
        for record in (first[0], second[0]):
            record.pop("timing")
        assert first[0] == second[0]
