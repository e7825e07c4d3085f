"""Loadgen harness: artifact shape, determinism knobs, CLI gate."""

from __future__ import annotations

import json

from repro.serve import (
    LOADGEN_SCHEMA,
    LoadgenOptions,
    ServerThread,
    render_summary,
    run_loadgen,
    write_artifact,
)


def test_loadgen_artifact_against_live_server(tmp_path):
    with ServerThread() as handle:
        report = run_loadgen(LoadgenOptions(
            url=handle.url, graph="er:24:p=0.2:seed=1",
            clients=4, duration_s=0.8, warm=True, mode="mixed",
        ))
    assert report["schema"] == LOADGEN_SCHEMA
    assert report["requests"] > 0
    assert report["errors"] == 0
    assert report["qps"] > 0
    assert report["latency_ms"]["p50"] <= report["latency_ms"]["p99"]
    # Warmed run: the server answered (mostly) from cache.
    cache = report["server_stats"]["cache"]
    assert cache["hits"] > 0
    assert cache["hit_rate"] > 0.5
    # Artifact round-trips through disk.
    target = tmp_path / "sub" / "serve-bench.json"
    write_artifact(report, str(target))
    assert json.loads(target.read_text())["schema"] == LOADGEN_SCHEMA
    summary = render_summary(report)
    assert "qps:" in summary
    assert "server cache:" in summary


def test_cli_serve_bench_self_hosts_and_gates(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "artifact.json"
    code = main([
        "serve-bench", "path:12", "--clients", "2",
        "--duration", "0.5", "--out", str(out), "--min-qps", "10",
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == LOADGEN_SCHEMA
    assert report["qps"] >= 10
    assert "qps:" in capsys.readouterr().out


def test_cli_serve_bench_min_qps_failure(tmp_path, capsys):
    from repro.cli import main

    code = main([
        "serve-bench", "path:8", "--clients", "1",
        "--duration", "0.3", "--min-qps", "1000000",
    ])
    assert code == 1
    assert "below the" in capsys.readouterr().err
