"""The repository benchmark: protocol runs and served queries, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload run-object --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``run-object`` - Algorithm 1 APSP on ``er:128:p=0.06:seed=S``, object
  engine, in one fresh process, back to back;
* ``run-vector`` - the same on ``er:1024:p=0.01:seed=S``, vector engine;
* ``serve-cold`` - ``repro serve`` with a fresh ``--cache-dir`` under a
  closed loop of two keep-alive connections, every query an
  ``/eccentricity`` miss on a new row.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures an
untraced and a traced half-window and reports the per-layer metrics.
Every answer is checked against a plain BFS.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it is ``{"detail": {...}}``: sample
counts, the tail percentile, the set-up samples and, on run workloads,
the host-speed scale and the metrics before scaling.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlencode

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import serve_load  # noqa: E402
from hostspeed import Speedometer  # noqa: E402

#: Graph spec template and engine of each run workload.
RUN_WORKLOADS = {
    "run-object": ("er:128:p=0.06:seed={seed}", "object"),
    "run-vector": ("er:1024:p=0.01:seed={seed}", "vector"),
}
WORKLOADS = (*RUN_WORKLOADS, "serve-cold")

#: Percentile ``latency_ms_tail`` reports on each workload.  It is fixed,
#: so a program that fits more operations into the window is still
#: compared at the same rank; a run window holds 15-40 runs, too few for
#: a p99.
TAIL_PERCENTILE = {"run-object": 90, "run-vector": 90, "serve-cold": 99}

#: Set-ups measured per run, half before and half after the window so
#: they sample the host's speed around it; ``setup_s`` is their median.
SETUPS = 11

#: Untimed closed-loop seconds before a serve window (lazy set-up).
SERVE_WARMUP_S = 0.5

#: Offset of the cold warm-up families, away from the measured stream.
COLD_WARMUP_OFFSET = 50000

#: Seconds a child process may take beyond its measuring window.
CHILD_SLACK_S = 120.0

END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("graphs.parse_s", "s"),
    ("protocols.request_s", "s"),
    ("protocols.summarize_s", "s"),
    ("congest.step_s", "s"),
    ("congest.steps", "count"),
    ("congest.step_us", "us"),
    ("congest.ns_per_message", "ns"),
    ("core.nonstep_s", "s"),
    ("vector.run_s", "s"),
    ("serve.server.read_request_us", "us"),
    ("serve.server.encode_response_us", "us"),
    ("serve.dispatch_us_p50", "us"),
    ("serve.service.lookup_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.batch.wait_ms", "ms"),
    ("serve.batch.mean_size", "count"),
    ("serve.batch.rounds_ratio", "ratio"),
    ("serve.supervisor.submit_ms", "ms"),
    ("serve.supervisor.compute_ms", "ms"),
    ("serve.supervisor.ipc_ms", "ms"),
    ("serve.cache.store_rows_ms", "ms"),
    ("harness.cache.put_ms", "ms"),
    ("serve.cache.memory", "count"),
    ("serve.cache.disk", "count"),
    ("serve.cache.computed", "count"),
    ("serve.cache.computed_share", "ratio"),
    ("serve.supervisor.retries", "count"),
    ("serve.supervisor.crashes", "count"),
    ("serve.supervisor.deadline_misses", "count"),
    ("serve.admission.shed", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("host.kernel_ms", "ms"),
)

#: Traced-run sanity floors.
MIN_RUN_COVERAGE = 0.95
MIN_COLD_COMPUTED_SHARE = 0.99


class Outcome:
    """What one benchmark invocation accumulates."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.invalid: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []
        #: Machine-readable context of the metrics, printed as JSON.
        self.detail: Dict[str, Any] = {}

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += count
            self.notes.append(f"FAILED x{count}: {why}")


def percentile(samples: List[float], q: int) -> float:
    """The ``q``-th percentile, interpolated linearly between samples."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def record_end_to_end(out: Outcome, workload: str, setups: List[float],
                      latencies: List[float], window_s: float, rss_mb: float,
                      speed: Optional[Speedometer] = None) -> None:
    """Record the window's end-to-end metrics.

    ``ops_per_s`` is operations per second of ``window_s``.  With
    ``speed``, operation times are scaled to reference host speed (see
    ``hostspeed.py``); set-up time and memory never are.
    """
    q = TAIL_PERCENTILE[workload]
    measured = {
        "latency_ms_p50": 1e3 * median(latencies),
        "latency_ms_tail": 1e3 * percentile(latencies, q),
        "ops_per_s": len(latencies) / window_s,
    }
    reported = dict(measured)
    if speed is not None:
        scaled = speed.scaled(latencies)
        # The window's time at reference speed, as a share of its time.
        scale = sum(scaled) / sum(latencies)
        reported = {
            "latency_ms_p50": 1e3 * median(scaled),
            "latency_ms_tail": 1e3 * percentile(scaled, q),
            "ops_per_s": measured["ops_per_s"] / scale,
        }
        out.detail.update({
            "host_scale": scale,
            "kernel": speed.kind,
            "kernel_samples": len(speed.samples),
            "unscaled": measured,
        })
    out.metrics.update(reported)
    out.metrics.update({"setup_s": median(setups), "peak_rss_mb": rss_mb})
    out.detail.update({
        "operations": len(latencies),
        "tail_percentile": q,
        "setup_samples_s": setups,
    })


# -- run workloads ------------------------------------------------------------


def _child_argv(spec: str, backend: str, *extra: str) -> List[str]:
    return [sys.executable, os.path.join(HERE, "run_child.py"),
            "--spec", spec, "--backend", backend, *extra]


def _spawn_until_ready(argv: List[str], env) -> Tuple[subprocess.Popen, float]:
    started = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    line = proc.stdout.readline()
    if line.strip() != b"ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"run child failed during set-up: {line!r}")
    return proc, time.monotonic() - started


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 env, out: Outcome) -> None:
    template, backend = RUN_WORKLOADS[name]
    spec = template.format(seed=seed)
    setups: List[float] = []

    def probe() -> None:
        proc, took = _spawn_until_ready(
            _child_argv(spec, backend, "--setup-only"), env)
        proc.communicate(timeout=CHILD_SLACK_S)
        setups.append(took)

    probes = 0 if traced else SETUPS - 1
    for _ in range(probes // 2):
        probe()
    extra = ["--seconds", repr(seconds)] + (["--trace"] if traced else [])
    proc, took = _spawn_until_ready(_child_argv(spec, backend, *extra), env)
    setups.append(took)
    stdout, _ = proc.communicate(timeout=seconds + CHILD_SLACK_S)
    if proc.returncode != 0:
        raise RuntimeError(f"run child exited {proc.returncode}")
    report = json.loads(stdout.decode().strip().splitlines()[-1])
    for _ in range(probes - probes // 2):
        probe()

    # The oracle runs after the child so it never competes for the CPU.
    from repro.graphs.specs import parse_graph

    want = oracle.matrix_digest(oracle.bfs_rows(
        oracle.adjacency_of(parse_graph(spec))))
    runs = [report["warmup"], *report["untraced"], *report.get("traced", [])]
    pinned = oracle.PINNED_COUNTERS.get((spec, backend))
    expected = list(pinned) if pinned else report["warmup"][1]
    out.attempted += len(runs)
    out.fail(sum(1 for r in runs if r[2] != want),
             "distance matrix differs from the BFS oracle")
    out.fail(sum(1 for r in runs if r[2] == want and r[1] != expected),
             f"(rounds, messages, bits) differ from {expected}")
    out.notes.append(f"graph {spec}, {backend} engine, counters "
                     f"{expected}{' (pinned)' if pinned else ''}")

    times = [r[0] for r in report["untraced"]]
    speed = Speedometer(report["kernel"]["kind"])
    speed.samples = report["kernel"]["samples"]
    if not traced:
        record_end_to_end(out, name, setups, times, report["window_s"],
                          report["maxrss_kb"] / 1024.0, speed)
        return
    run_layer_metrics(report, times, out)
    out.metrics["host.kernel_ms"] = 1e3 * median(speed.samples)


def run_layer_metrics(report: Dict[str, Any], untraced: List[float],
                      out: Outcome) -> None:
    traced = report["traced"]
    layers = report["per_run_layers"]

    def busy(layer: Dict[str, list], name: str) -> float:
        return layer.get(name, [0, 0.0])[1]

    def count(layer: Dict[str, list], name: str) -> int:
        return layer.get(name, [0, 0.0])[0]

    step = [busy(d, "congest.step") for d in layers]
    steps = [count(d, "congest.step") for d in layers]
    messages = [r[1][1] for r in traced]
    covered = [
        busy(d, "graphs.parse") + busy(d, "protocols.request")
        + busy(d, "core.run") + busy(d, "vector.run")
        + busy(d, "protocols.metrics_of") + busy(d, "protocols.summarize")
        for d in layers
    ]
    coverage = sum(covered) / sum(r[0] for r in traced)
    out.metrics.update({
        "graphs.parse_s": median(busy(d, "graphs.parse") for d in layers),
        "protocols.request_s":
            median(busy(d, "protocols.request") for d in layers),
        "protocols.summarize_s": median(
            busy(d, "protocols.metrics_of") + busy(d, "protocols.summarize")
            for d in layers),
        "congest.step_s": median(step),
        "congest.steps": median(steps),
        "congest.step_us": median(
            1e6 * s / k for s, k in zip(step, steps) if k),
        "congest.ns_per_message": median(
            1e9 * s / m for s, m, k in zip(step, messages, steps) if k),
        "core.nonstep_s": median(
            busy(d, "core.run") - s for d, s in zip(layers, step)),
        "vector.run_s": median(busy(d, "vector.run") for d in layers),
        "trace.coverage": coverage,
        "trace.overhead": median(r[0] for r in traced) / median(untraced) - 1,
    })
    for name, summary in sorted(report["layer_summary"].items()):
        out.notes.append(
            f"layer {name}: count {summary['count']}, busy "
            f"{summary['busy_s']:.4f} s, p50 {1e6 * summary['p50_s']:.1f} us")
    if report["leftovers"] or not report["installed"]:
        out.invalid.append(f"wrappers left installed: {report['leftovers']}")
    if coverage < MIN_RUN_COVERAGE:
        out.invalid.append(
            f"trace.coverage {coverage:.3f} < {MIN_RUN_COVERAGE}")


# -- serve workloads ----------------------------------------------------------


class Traffic:
    """The seeded stream of cold ``/eccentricity`` requests."""

    def __init__(self, seed: int, *, warmup: bool = False) -> None:
        offset = COLD_WARMUP_OFFSET if warmup else 0
        #: (family graph seed, node) per request index.
        self.queries = list(oracle.cold_stream(seed, offset=offset))
        self.requests = [
            serve_load.request_bytes("/eccentricity?" + urlencode(
                {"graph": oracle.serve_spec(family), "node": node}))
            for family, node in self.queries
        ]
        self._counter = itertools.count()

    def next_request(self) -> Optional[Tuple[int, bytes]]:
        i = next(self._counter)
        return (i, self.requests[i]) if i < len(self.requests) else None


class Checker:
    """Checks served answers against the BFS oracle."""

    def __init__(self) -> None:
        self._rows: Dict[int, Dict[int, Dict[int, int]]] = {}

    def rows(self, family: int) -> Dict[int, Dict[int, int]]:
        rows = self._rows.get(family)
        if rows is None:
            from repro.graphs.specs import parse_graph

            rows = oracle.bfs_rows(oracle.adjacency_of(
                parse_graph(oracle.serve_spec(family))))
            self._rows[family] = rows
        return rows

    def check(self, traffic: Traffic, replies, out: Outcome,
              tiers: Dict[str, int]) -> None:
        """Count failures and answer tiers of ``replies``."""
        out.attempted += len(replies)
        failures: Dict[str, int] = {}
        for index, _, status, body in replies:
            if status != 200:
                why = "dropped connection" if status == 0 else f"HTTP {status}"
            else:
                family, node = traffic.queries[index]
                answer = json.loads(body)
                tier = answer.get("tier")
                tiers[tier] = tiers.get(tier, 0) + 1
                want = oracle.eccentricity(self.rows(family)[node])
                got = answer.get("eccentricity")
                if got == want:
                    continue
                why = f"/eccentricity answered {got}, the oracle says {want}"
            failures[why] = failures.get(why, 0) + 1
        for why, count in sorted(failures.items()):
            out.fail(count, why)


class Phase:
    """One loaded server window and what it measured."""

    def __init__(self, server: serve_load.Server, traffic: Traffic,
                 warmup: Traffic, seconds: float, checker: Checker,
                 out: Outcome, *, before_load=None) -> None:
        port = server.port
        self.traffic = traffic
        replies, _ = serve_load.closed_loop(
            port, warmup.next_request, SERVE_WARMUP_S)
        self.tiers: Dict[str, int] = {}
        checker.check(warmup, replies, out, {})
        if before_load is not None:
            before_load()
        self.before = serve_load.get_json(port, "/stats")
        self.replies, self.window = serve_load.closed_loop(
            port, traffic.next_request, seconds)
        self.after = serve_load.get_json(port, "/stats")
        self.rss_mb = server.peak_rss_mb()
        checker.check(traffic, self.replies, out, self.tiers)
        self.latencies = [r[1] for r in self.replies]
        self._check_counters(out)

    def delta(self, *keys: str) -> float:
        """Change of one ``/stats`` counter over the window."""
        after, before = self.after, self.before
        for key in keys:
            after, before = after.get(key, {}), before.get(key, {})
        return (after or 0) - (before or 0)

    def _check_counters(self, out: Outcome) -> None:
        """The server's own counters must agree with the client's."""
        sent = sum(1 for _, _, status, _ in self.replies if status)
        served = self.delta("endpoints", "/eccentricity", "count")
        out.fail(int(served != sent),
                 f"/stats counts {served} /eccentricity requests, "
                 f"the client sent {sent}")
        for tier in ("memory", "disk", "computed"):
            served = self.delta("cache", tier)
            seen = self.tiers.get(tier, 0)
            out.fail(int(served != seen),
                     f"/stats counts {served} {tier}-tier answers, "
                     f"the client saw {seen}")


def serve_workload(seed: int, seconds: float, traced: bool,
                   env, scratch: str, out: Outcome) -> None:
    checker = Checker()
    counter = itertools.count()

    def fresh_cache() -> List[str]:
        return ["--cache-dir", tempfile.mkdtemp(dir=scratch)]

    def cli_server() -> serve_load.Server:
        return serve_load.Server(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             *fresh_cache()],
            env=env,
            log_path=os.path.join(scratch, f"serve-{next(counter)}.log"))

    def phase(server: serve_load.Server, window: float, **kwargs) -> Phase:
        traffic = Traffic(seed)
        warmup = Traffic(seed, warmup=True)
        return Phase(server, traffic, warmup, window, checker, out, **kwargs)

    def stop(server: serve_load.Server) -> None:
        code = server.stop()
        out.fail(int(code != 0), f"server exited {code} after SIGTERM")

    if not traced:
        setups: List[float] = []

        def probe() -> None:
            server = cli_server()
            setups.append(server.setup_s)
            stop(server)

        probes = SETUPS - 1
        for _ in range(probes // 2):
            probe()
        server = cli_server()
        setups.append(server.setup_s)
        try:
            measured = phase(server, seconds)
        finally:
            stop(server)
        for _ in range(probes - probes // 2):
            probe()
        record_end_to_end(out, "serve-cold", setups, measured.latencies,
                          measured.window, measured.rss_mb)
        out.notes.append(f"tiers {measured.tiers}")
        _check_tiers(measured, out)
        return

    server = cli_server()
    try:
        untraced = phase(server, seconds / 2)
    finally:
        stop(server)
    compute_dir = tempfile.mkdtemp(dir=scratch)
    layers_path = os.path.join(scratch, "layers.json")
    host = serve_load.Server(
        [sys.executable, os.path.join(HERE, "serve_host.py"),
         "--out", layers_path, "--compute-dir", compute_dir, *fresh_cache()],
        env=env, log_path=os.path.join(scratch, "host.log"))

    def reset() -> None:
        host.signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10
        while not os.path.exists(os.path.join(compute_dir, "reset")):
            if time.monotonic() > deadline:
                raise RuntimeError("traced host did not acknowledge reset")
            time.sleep(0.01)

    try:
        measured = phase(host, seconds / 2, before_load=reset)
    finally:
        stop(host)
    with open(layers_path, encoding="utf-8") as handle:
        hosted = json.load(handle)
    from serve_host import compute_samples

    serve_layer_metrics(hosted, compute_samples(compute_dir),
                        measured, untraced, out)


def _check_tiers(phase: Phase, out: Outcome) -> float:
    answered = sum(phase.tiers.values())
    share = phase.tiers.get("computed", 0) / answered if answered else 0.0
    if share < MIN_COLD_COMPUTED_SHARE:
        out.invalid.append(
            f"computed share {share:.3f} < {MIN_COLD_COMPUTED_SHARE}")
    return share


def serve_layer_metrics(hosted: Dict[str, Any],
                        compute: List[float], phase: Phase,
                        untraced: Phase, out: Outcome) -> None:
    layers = hosted["layers"]

    def layer(key: str) -> Dict[str, float]:
        return layers.get(key, {"count": 0, "busy_s": 0.0, "p50_s": 0.0})

    def p50(key: str, scale: float) -> float:
        return scale * layer(key)["p50_s"]

    client_us = 1e6 * median(phase.latencies)
    read_us = p50("serve.server.read_request", 1e6)
    encode_us = p50("serve.server.encode_response", 1e6)
    dispatch_us = p50("serve.dispatch", 1e6)
    requests = layer("serve.dispatch")["count"]
    submit_ms = p50("serve.supervisor.submit", 1e3)
    compute_ms = 1e3 * median(compute)
    batches = phase.delta("batches", "count")
    estimate = phase.delta("batches", "sequential_rounds_estimate")
    row = layer("serve.batch.row")
    out.metrics.update({
        "serve.server.read_request_us": read_us,
        "serve.server.encode_response_us": encode_us,
        "serve.dispatch_us_p50": dispatch_us,
        "serve.service.lookup_us":
            1e6 * layer("serve.service.lookup")["busy_s"] / max(1, requests),
        "serve.unattributed_us": client_us - read_us - dispatch_us - encode_us,
        "serve.batch.wait_ms": (
            p50("serve.batch.row", 1e3) - p50("serve.supervisor.rows", 1e3)
            if row["count"] else 0.0),
        "serve.batch.mean_size":
            phase.delta("batches", "sources") / batches if batches else 0.0,
        "serve.batch.rounds_ratio":
            phase.delta("batches", "rounds") / estimate if estimate else 0.0,
        "serve.supervisor.submit_ms": submit_ms,
        "serve.supervisor.compute_ms": compute_ms,
        "serve.supervisor.ipc_ms": submit_ms - compute_ms if compute else 0.0,
        "serve.cache.store_rows_ms": p50("serve.cache.store_rows", 1e3),
        "harness.cache.put_ms": p50("harness.cache.put", 1e3),
        "serve.cache.memory": phase.delta("cache", "memory"),
        "serve.cache.disk": phase.delta("cache", "disk"),
        "serve.cache.computed": phase.delta("cache", "computed"),
        "serve.cache.computed_share": _check_tiers(phase, out),
        "serve.supervisor.retries": phase.delta("supervisor", "requeues"),
        "serve.supervisor.crashes": phase.delta("supervisor", "crashes"),
        "serve.supervisor.deadline_misses":
            phase.delta("supervisor", "deadline_misses"),
        "serve.admission.shed": phase.delta("admission", "shed")
            + phase.delta("supervisor", "shed"),
        "trace.coverage": (read_us + dispatch_us + encode_us) / client_us,
        "trace.overhead":
            median(phase.latencies) / median(untraced.latencies) - 1,
    })
    for key, summary in sorted(layers.items()):
        out.notes.append(
            f"layer {key}: count {summary['count']}, busy "
            f"{summary['busy_s']:.4f} s, p50 {1e6 * summary['p50_s']:.1f} us")
    out.notes.append(f"layer serve.supervisor.compute: count {len(compute)}")
    if hosted["leftovers"] or not hosted["installed"]:
        out.invalid.append(f"wrappers left installed: {hosted['leftovers']}")


# -- entry point --------------------------------------------------------------


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="drives graph seeds and query streams "
                             "(default 1: the pinned graphs)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    os.makedirs(".perfbench_tmp", exist_ok=True)
    scratch = tempfile.mkdtemp(dir=".perfbench_tmp")
    out = Outcome()
    traced = bool(args.trace)
    try:
        if args.workload in RUN_WORKLOADS:
            run_workload(args.workload, args.seed, args.seconds, traced,
                         env, out)
        else:
            serve_workload(args.seed, args.seconds, traced,
                           env, os.path.abspath(scratch), out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass

    wanted = PER_LAYER if traced else END_TO_END
    metrics = {
        key: {"value": float(out.metrics.get(key, 0.0)), "unit": unit}
        for key, unit in wanted
    }
    for note in out.notes + [f"INVALID: {why}" for why in out.invalid]:
        print(note)
    for key, entry in metrics.items():
        print(f"{key:34s} {entry['value']:14.6f} {entry['unit']}")
    rate = out.failed / out.attempted if out.attempted else 1.0
    print(f"{'error_rate':34s} {rate:14.6f} ({out.failed}/{out.attempted})")
    print(json.dumps({"detail": out.detail}))
    print(json.dumps({
        "correct": out.failed == 0 and not out.invalid and out.attempted > 0,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
