"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, parse_graph
from repro.graphs import (
    Graph,
    cycle_graph,
    dumbbell_with_path,
    grid_graph,
    path_graph,
    star_graph,
    torus_graph,
)


class TestGraphSpecs:
    @pytest.mark.parametrize("spec,expected", [
        ("path:7", path_graph(7)),
        ("cycle:9", cycle_graph(9)),
        ("star:5", star_graph(5)),
        ("grid:3x4", grid_graph(3, 4)),
        ("torus:4x5", torus_graph(4, 5)),
        ("dumbbell:6:3", dumbbell_with_path(6, 3)),
    ])
    def test_deterministic_specs(self, spec, expected):
        assert parse_graph(spec) == expected

    def test_er_spec_connected(self):
        graph = parse_graph("er:30:p=0.1:seed=5")
        assert graph.n == 30
        assert graph.is_connected()

    def test_tree_spec(self):
        graph = parse_graph("tree:12:seed=2")
        assert graph.n == 12 and graph.m == 11

    def test_file_spec(self, tmp_path):
        from repro.graphs.io import save

        target = tmp_path / "g.txt"
        save(path_graph(5), target)
        assert parse_graph(f"file:{target}") == path_graph(5)

    def test_unknown_family(self):
        with pytest.raises(SystemExit):
            parse_graph("hypercube:8")


class TestCommands:
    def run(self, argv, capsys):
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_apsp(self, capsys):
        out = self.run(["apsp", "torus:4x4", "--show-row", "1"], capsys)
        assert "diameter: 4" in out
        assert "distances from node 1" in out

    def test_ssp(self, capsys):
        out = self.run(["ssp", "path:6", "--sources", "1,6"], capsys)
        assert "S = [1, 6]" in out
        assert "node 1:" in out

    def test_properties(self, capsys):
        out = self.run(["properties", "cycle:8"], capsys)
        assert "girth:      8" in out
        assert "diameter:   4" in out

    def test_approx(self, capsys):
        out = self.run(["approx", "dumbbell:10:8", "--epsilon", "1.0"],
                       capsys)
        assert "diameter estimate" in out

    def test_girth_exact_and_approx(self, capsys):
        exact = self.run(["girth", "cycle:12"], capsys)
        assert "girth: 12" in exact
        approx = self.run(["girth", "cycle:12", "--epsilon", "0.5"],
                          capsys)
        assert "girth: 12" in approx

    def test_two_vs_four(self, capsys):
        out = self.run(
            ["two-vs-four", "--family", "diameter4", "--n", "30"], capsys
        )
        assert "diameter 4" in out

    def test_baseline(self, capsys):
        out = self.run(
            ["baseline", "path:12", "--algorithm", "sequential-bfs"],
            capsys,
        )
        assert "Algorithm 1 on the same graph" in out

    def test_leader(self, capsys):
        out = self.run(["leader", "er:15:p=0.3:seed=1"], capsys)
        assert "leader: 1" in out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestCampaignCommand:
    def run(self, argv, capsys):
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_flag_mode_runs_and_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "sweep.jsonl"
        text = self.run([
            "campaign", "--name", "cli-sweep",
            "--graphs", "path:{n}", "--sizes", "8,10",
            "--algorithms", "apsp,properties",
            "--jobs", "2", "--quiet",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out),
        ], capsys)
        assert "campaign 'cli-sweep': 4 tasks" in text
        assert out.exists()
        assert len(out.read_text().splitlines()) == 4

    def test_second_invocation_serves_from_cache(self, tmp_path, capsys):
        argv = [
            "campaign", "--graphs", "path:8", "--quiet",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "out.jsonl"),
        ]
        self.run(argv, capsys)
        text = self.run(argv, capsys)
        assert "1 from cache (100%)" in text

    def test_spec_file_mode(self, tmp_path, capsys):
        import json as _json

        spec = tmp_path / "spec.json"
        spec.write_text(_json.dumps({
            "name": "from-file", "graphs": ["cycle:9"],
        }), encoding="utf-8")
        text = self.run([
            "campaign", str(spec), "--quiet",
            "--out", str(tmp_path / "out.jsonl"),
        ], capsys)
        assert "campaign 'from-file': 1 tasks" in text

    def test_spec_file_and_flags_conflict(self, tmp_path, capsys):
        # A flag given beside a spec file overrides the file's field.
        spec = tmp_path / "spec.json"
        spec.write_text('{"graphs": ["path:8"], "name": "file"}',
                        encoding="utf-8")
        out = tmp_path / "out.jsonl"
        text = self.run([
            "campaign", str(spec), "--graphs", "cycle:5",
            "--name", "flag", "--quiet", "--out", str(out),
        ], capsys)
        assert "campaign 'flag': 1 tasks" in text
        record = json.loads(out.read_text())
        assert record["task"]["graph"] == "cycle:5"

    def test_spec_file_and_seeds_flag(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"graphs": ["path:8"], "seeds": [0]}',
                        encoding="utf-8")
        out = tmp_path / "out.jsonl"
        self.run([
            "campaign", str(spec), "--seeds", "1,2", "--quiet",
            "--out", str(out),
        ], capsys)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["task"]["params"]["seed"] for r in records] == [1, 2]

    def test_faults_flag_beside_params_faults_rejected(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "graphs": ["path:8"], "params": {"faults": {"drop_rate": 0.1}},
        }), encoding="utf-8")
        with pytest.raises(SystemExit,
                           match="'faults' is a top-level spec field"):
            main([
                "campaign", str(spec), "--quiet",
                "--faults", '{"drop_rate": 0.5, "seed": 9}',
                "--out", str(tmp_path / "out.jsonl"),
            ])

    def test_no_input_rejected(self):
        with pytest.raises(SystemExit):
            main(["campaign"])

    def test_missing_spec_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["campaign", str(tmp_path / "absent.json")])

    def test_unknown_algorithm_rejected_before_workers(self, tmp_path):
        # Spec-time validation: no worker spawns, no result store is
        # written — the campaign is refused outright.
        out = tmp_path / "out.jsonl"
        with pytest.raises(SystemExit, match="unknown algorithm"):
            main([
                "campaign", "--graphs", "path:8",
                "--algorithms", "no-such-algorithm", "--quiet",
                "--out", str(out),
            ])
        assert not out.exists()

    def test_malformed_params_rejected_before_workers(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "bad-k",
            "graphs": ["path:8"],
            "algorithms": ["dominating-set"],
            "params": {"k": -2},
        }))
        out = tmp_path / "out.jsonl"
        with pytest.raises(SystemExit, match="must be >= 1"):
            main(["campaign", str(spec), "--quiet", "--out", str(out)])
        assert not out.exists()

    def test_failed_tasks_record_tracebacks(self, tmp_path):
        out = tmp_path / "out.jsonl"
        assert main([
            "campaign", "--graphs", "path:8",
            "--algorithms", "chaos", "--quiet",
            "--out", str(out),
        ]) == 1
        record = json.loads(out.read_text().strip())
        assert record["error"]["type"] == "TaskError"
        assert "Traceback" in record["error"]["traceback"]

    def test_faults_flag_reaches_every_task(self, tmp_path):
        out = tmp_path / "out.jsonl"
        assert main([
            "campaign", "--graphs", "cycle:12",
            "--algorithms", "apsp", "--quiet",
            "--faults", '{"drop_rate": 0.02, "seed": 7}',
            "--out", str(out),
        ]) == 0
        record = json.loads(out.read_text().strip())
        assert record["task"]["params"]["faults"] == {
            "drop_rate": 0.02, "seed": 7,
        }

    def test_bad_faults_json_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="faults"):
            main([
                "campaign", "--graphs", "path:8", "--quiet",
                "--faults", "{not json",
                "--out", str(tmp_path / "out.jsonl"),
            ])

    def test_timeout_flag_kills_a_hanging_task(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "name": "hang",
            "graphs": ["path:4"],
            "algorithms": ["chaos"],
            "params": {"mode": "hang", "seconds": 60},
        }))
        out = tmp_path / "out.jsonl"
        assert main([
            "campaign", str(spec), "--quiet",
            "--timeout", "1.0",
            "--out", str(out),
        ]) == 1
        record = json.loads(out.read_text().strip())
        assert record["error"]["type"] == "Timeout"


class TestTraceCommand:
    def run(self, argv, capsys):
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_summary_export_prints_invariants_and_heatmap(self, capsys):
        out = self.run(
            ["trace", "run", "apsp", "er:32:p=0.15:seed=1"], capsys
        )
        assert "lemma1_no_wave_collisions" in out
        assert "[ok ]" in out and "FAIL" not in out
        assert "round x edge heatmap" in out

    def test_chrome_export_is_loadable_trace_event_json(
        self, tmp_path, capsys
    ):
        target = tmp_path / "trace.json"
        out = self.run([
            "trace", "run", "apsp", "torus:3x4",
            "--export", "chrome", "--out", str(target),
        ], capsys)
        assert "chrome trace ->" in out
        data = json.loads(target.read_text(encoding="utf-8"))
        assert isinstance(data["traceEvents"], list)
        assert data["traceEvents"]
        assert data["otherData"]["schema"] == "repro-trace/1"

    def test_jsonl_export_writes_schema_stream(self, tmp_path, capsys):
        target = tmp_path / "trace.jsonl"
        self.run([
            "trace", "run", "ssp", "path:8", "--sources", "1,8",
            "--export", "jsonl", "--out", str(target),
        ], capsys)
        lines = [
            json.loads(line)
            for line in target.read_text(encoding="utf-8").splitlines()
        ]
        assert lines[0]["type"] == "header"
        assert lines[0]["schema"] == "repro-trace/1"
        assert any(line["type"] == "event" for line in lines)

    def test_ssp_summary_checks_theorem3(self, capsys):
        out = self.run([
            "trace", "run", "ssp", "er:24:p=0.2:seed=3",
            "--sources", "1,5,9",
        ], capsys)
        assert "theorem3_wave_delay_bound" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("argv", [
        ["girth-approx", "torus:6x6", "--epsilon", "0.5"],
        ["prt-diameter", "er:40:p=0.08:seed=3"],
    ])
    def test_multi_phase_summary_passes_theorem3(self, argv, capsys):
        # Each S-SP phase answers to its own |S| (exit 0 is asserted).
        out = self.run(["trace", "run", *argv, "--export", "summary"],
                       capsys)
        assert "[ok ] theorem3_wave_delay_bound: tightest of" in out
        assert "FAIL" not in out

    def test_tracing_leaves_globals_clean(self, capsys):
        from repro.congest import network as network_mod
        from repro.obs import is_enabled

        self.run(["trace", "run", "apsp", "path:6"], capsys)
        assert not is_enabled()
        assert network_mod._network_observer is None

    def test_faults_flag_accepted(self, capsys):
        out = self.run([
            "trace", "run", "apsp", "er:20:p=0.25:seed=4",
            "--faults", '{"drop_rate": 0.01, "seed": 3}',
        ], capsys)
        assert "trace [apsp" in out

    def test_bad_faults_flag_exits_with_the_protocol_named(self):
        with pytest.raises(SystemExit, match="apsp: bad 'faults' spec"):
            main([
                "trace", "run", "apsp", "path:6",
                "--faults", '{"drop_rate": 7}',
            ])

    def test_campaign_trace_flag_stores_summaries(self, tmp_path, capsys):
        out = tmp_path / "traced.jsonl"
        assert main([
            "campaign", "--graphs", "path:8", "--trace", "--quiet",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(out),
        ]) == 0
        capsys.readouterr()
        record = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
        assert record["trace"]["schema"] == "repro-trace/1"
        assert record["trace"]["lemma1_collisions"] == 0


class TestServeWorkersFlag:
    @pytest.mark.parametrize("command", ["serve", "serve-chaos"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_workers_below_one_is_an_argparse_error(
        self, command, value, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--workers", value])
        assert excinfo.value.code == 2
        assert "--workers: must be at least 1" in capsys.readouterr().err
