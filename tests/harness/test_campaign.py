"""Campaign orchestration: determinism, parallel parity, cache reuse."""

import io
import json

import pytest

from repro.harness import (
    CampaignSpec,
    ProgressReporter,
    ResultStore,
    RunCache,
    Task,
    run_campaign,
    run_tasks,
    strip_timing,
)

SPEC = {
    "name": "test-sweep",
    "graphs": ["path:{n}", "torus:4x4"],
    "sizes": [10, 14],
    "seeds": [0, 1],
    "algorithms": ["apsp"],
}


def _tasks():
    return CampaignSpec.from_dict(SPEC).expand()


def _stripped(records):
    return [strip_timing(record) for record in records]


class TestDeterminism:
    def test_parallel_records_match_serial_modulo_timing(self, tmp_path):
        serial = run_tasks(_tasks(), jobs=1,
                           cache=RunCache(tmp_path / "c1"))
        parallel = run_tasks(_tasks(), jobs=4,
                             cache=RunCache(tmp_path / "c2"))
        assert _stripped(serial.records) == _stripped(parallel.records)

    def test_jsonl_stores_byte_identical_modulo_timing(self, tmp_path):
        spec = CampaignSpec.from_dict(SPEC)
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_campaign(spec, jobs=1, cache_dir=str(tmp_path / "c1"),
                     store_path=out1)
        run_campaign(spec, jobs=4, cache_dir=str(tmp_path / "c2"),
                     store_path=out2)

        def normalized(path):
            return [
                json.dumps(strip_timing(json.loads(line)), sort_keys=True)
                for line in path.read_text().splitlines()
            ]

        assert normalized(out1) == normalized(out2)

    def test_cache_hit_equals_fresh_computation(self, tmp_path):
        task = Task.make("torus:4x4", "apsp",
                         {"seed": 3, "policy": "strict"})
        cache = RunCache(tmp_path)
        fresh = run_tasks([task], cache=cache).records[0]
        hit = run_tasks([task], cache=cache).records[0]
        assert not fresh["timing"]["cache_hit"]
        assert hit["timing"]["cache_hit"]
        assert strip_timing(hit) == strip_timing(fresh)
        assert hit["metrics"]["rounds"] == fresh["metrics"]["rounds"]
        assert hit["metrics"]["bits_total"] == fresh["metrics"]["bits_total"]

    def test_same_task_same_result_across_worker_processes(self, tmp_path):
        # Two copies of an identical sweep, sharded differently, must
        # agree on every deterministic field.
        tasks = [
            Task.make("er:16:p=0.25:seed=5", "apsp",
                      {"seed": 7, "policy": "strict"})
        ] * 3
        summary = run_tasks(list(tasks), jobs=3)
        rounds = {
            record["metrics"]["rounds"] for record in summary.records
        }
        assert len(rounds) == 1


class TestCacheReuse:
    def test_second_invocation_hits_at_least_90_percent(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        first = run_tasks(_tasks(), jobs=2, cache=cache)
        assert first.cache_hits == 0
        second = run_tasks(_tasks(), jobs=2, cache=cache)
        assert second.hit_rate >= 0.9
        assert second.executed == 0

    def test_no_cache_recomputes_but_repopulates(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        task = Task.make("path:10", "apsp", {"seed": 0, "policy": "strict"})
        run_tasks([task], cache=cache)
        summary = run_tasks([task], cache=cache, use_cache=False)
        assert summary.cache_hits == 0
        assert summary.executed == 1
        assert len(cache) == 1

    def test_salt_segregates_cache_entries(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        task = Task.make("path:10", "apsp", {"seed": 0, "policy": "strict"})
        run_tasks([task], cache=cache, salt="a")
        summary = run_tasks([task], cache=cache, salt="b")
        assert summary.cache_hits == 0
        assert len(cache) == 2

    def test_without_cache_everything_executes(self):
        summary = run_tasks(_tasks()[:2])
        assert summary.cache_hits == 0
        assert summary.executed == 2


class TestFailures:
    def test_bad_task_fails_without_poisoning_the_campaign(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        tasks = [
            Task.make("path:10", "apsp", {"seed": 0, "policy": "strict"}),
            Task.make("path:10", "no-such-algorithm", {"seed": 0}),
            Task.make("path:12", "apsp", {"seed": 0, "policy": "strict"}),
        ]
        summary = run_tasks(tasks, cache=cache, jobs=2)
        assert summary.failures == 1
        assert summary.executed == 3
        good, bad, also_good = summary.records
        assert "error" not in good and "error" not in also_good
        assert bad["error"]["type"] == "TaskError"
        # Failures are never cached.
        assert len(cache) == 2

    def test_failed_records_keep_task_order(self):
        tasks = [
            Task.make("path:10", "no-such-algorithm", {"seed": 0}),
            Task.make("path:10", "apsp", {"seed": 0, "policy": "strict"}),
        ]
        summary = run_tasks(tasks)
        assert "error" in summary.records[0]
        assert "error" not in summary.records[1]


class TestRunCampaign:
    def test_store_written_in_task_order(self, tmp_path):
        out = tmp_path / "out.jsonl"
        spec = CampaignSpec.from_dict(SPEC)
        summary = run_campaign(spec, store_path=out)
        stored = list(ResultStore(out))
        assert _stripped(stored) == _stripped(summary.records)
        assert [r["task"] for r in stored] == \
            [t.payload() for t in spec.expand()]

    def test_store_truncated_unless_append(self, tmp_path):
        out = tmp_path / "out.jsonl"
        spec = CampaignSpec.from_dict({"graphs": ["path:10"]})
        run_campaign(spec, store_path=out)
        run_campaign(spec, store_path=out)
        assert len(ResultStore(out)) == 1
        run_campaign(spec, store_path=out, append=True)
        assert len(ResultStore(out)) == 2

    def test_summary_describe_mentions_cache(self, tmp_path):
        spec = CampaignSpec.from_dict({"graphs": ["path:10"]})
        cache_dir = str(tmp_path / "cache")
        run_campaign(spec, cache_dir=cache_dir)
        summary = run_campaign(spec, cache_dir=cache_dir)
        text = summary.describe()
        assert "1 from cache (100%)" in text
        assert "test" not in text  # uses the spec's own name
        assert summary.hit_rate == 1.0

    def test_progress_stream_receives_updates(self, capsys):
        spec = CampaignSpec.from_dict(SPEC)
        run_campaign(spec, show_progress=True)
        text = capsys.readouterr().err
        assert "test-sweep" in text
        assert f"{len(spec.expand())}/{len(spec.expand())} tasks" in text


class TestProgressReporter:
    def test_counts_and_status(self):
        stream = io.StringIO()
        reporter = ProgressReporter(3, label="lbl", stream=stream,
                                    min_interval_s=0.0)
        reporter.task_done(cache_hit=True)
        reporter.task_done()
        reporter.task_done(failed=True)
        reporter.close()
        assert reporter.done == 3
        assert reporter.cache_hits == 1
        assert reporter.failures == 1
        status = reporter.status()
        assert "lbl: 3/3 tasks" in status
        assert "1 cached" in status
        assert "1 failed" in status
