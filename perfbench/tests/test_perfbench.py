"""Tests of the benchmark itself: oracle, inputs, wrappers, metric names.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from layers import Tracer  # noqa: E402
from run_child import install_run_layers  # noqa: E402
from serve_host import install_serve_layers  # noqa: E402

from repro import protocols  # noqa: E402
from repro.congest import network  # noqa: E402
from repro.graphs import specs  # noqa: E402
from repro.protocols import registry  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _rows(spec: str):
    return oracle.bfs_rows(oracle.adjacency_of(specs.parse_graph(spec)))


def test_oracle_matches_the_program_and_rejects_a_corrupted_row():
    spec = "er:32:p=0.15:seed=4"
    outcome = protocols.run("apsp", specs.parse_graph(spec), {})
    served = {u: dict(r.distances) for u, r in outcome.summary.results.items()}
    want = oracle.matrix_digest(_rows(spec))
    assert oracle.matrix_digest(served) == want

    corrupted = {u: dict(row) for u, row in served.items()}
    target = next(v for v in corrupted[5] if v != 5)
    corrupted[5][target] += 1
    assert oracle.matrix_digest(corrupted) != want


def test_checker_counts_a_wrong_served_answer():
    traffic = run.Traffic(3)
    index = 5
    family, node = traffic.queries[index]
    right = oracle.eccentricity(_rows(oracle.serve_spec(family))[node])

    def reply(value):
        body = json.dumps({"eccentricity": value, "tier": "computed"})
        return (index, 0.001, 200, body.encode())

    out = run.Outcome()
    run.Checker().check(traffic, [reply(right), reply(right + 1)], out, {})
    assert (out.attempted, out.failed) == (2, 1)


def test_cold_stream_never_repeats_a_pair():
    measured = list(oracle.cold_stream(7))
    warmup = list(oracle.cold_stream(7, offset=run.COLD_WARMUP_OFFSET))
    assert len(set(measured)) == len(measured) == 64 * oracle.COLD_FAMILIES
    assert not set(measured) & set(warmup)
    assert measured == list(oracle.cold_stream(7))


def test_run_wrappers_are_removed_after_a_traced_run():
    proto = protocols.get("apsp")
    before = {
        attr: vars(proto)[attr]
        for attr in ("run", "vector_run", "metrics_of", "summarize")
    }
    parse_graph, request = specs.parse_graph, registry.Protocol.request
    tracer = Tracer()
    install_run_layers(tracer, specs, registry, network, proto)
    protocols.run("apsp", specs.parse_graph("er:16:p=0.3:seed=1"), {})
    assert tracer.layers["congest.step"] and tracer.layers["core.run"]
    tracer.remove()

    assert tracer.leftovers() == []
    assert specs.parse_graph is parse_graph
    assert registry.Protocol.request is request
    assert all(vars(proto)[attr] is fn for attr, fn in before.items())
    assert network.set_network_observer(None) is None


def test_serve_wrappers_are_removed(tmp_path):
    from repro.serve import server
    from repro.serve.stats import ServeStats

    originals = (server.read_request, server.encode_response,
                 ServeStats.observe_request, protocols.run)
    tracer = Tracer()
    install_serve_layers(tracer, str(tmp_path))
    assert protocols.run is not originals[-1]
    tracer.remove()
    assert tracer.leftovers() == []
    assert (server.read_request, server.encode_response,
            ServeStats.observe_request, protocols.run) == originals


def test_metric_names_are_well_formed_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    for key, metrics in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in declared[key]] == list(metrics)
    names = [name for name, _ in run.END_TO_END + run.PER_LAYER]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_reference_kernels_do_fixed_work():
    # Scaled timings are comparable only while the kernels' work is fixed.
    assert hostspeed.python_kernel()[1] == 101558
    assert hostspeed.numpy_kernel()[1] == 412465471937
    # A host twice as slow for the second half of the window: each run is
    # scaled by the speed it ran at, and one disturbed sample is ignored.
    speed = hostspeed.Speedometer("python")
    ref = hostspeed.REFERENCE_S["python"]
    speed.samples = [ref, ref, 9 * ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    scaled = speed.scaled([1.0] * 5 + [2.0] * 3)
    assert all(abs(t - 1.0) < 1e-9 for t in scaled)
    speed.sample()
    assert len(speed.samples) == 9 and gc.isenabled()


def test_tail_percentile_does_not_depend_on_the_sample_count():
    # The same spread of run times gives the same p90 at any count.
    for n in (11, 21, 101):
        samples = [i / (n - 1) for i in range(n)]
        assert abs(run.percentile(samples, 90) - 0.9) < 1e-9
    assert run.percentile([float(i) for i in range(1001)], 99) == 990.0
    assert run.percentile([4.0], 99) == 4.0
    assert set(run.TAIL_PERCENTILE) == set(run.WORKLOADS)
