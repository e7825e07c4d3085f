"""One run workload in a fresh process: set up, run APSP back to back.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/run_child.py --spec er:128:p=0.06:seed=1 \\
        --backend object --seconds 25 [--trace] [--setup-only]

The child prints ``ready`` once imports and the first graph build are
done (the end of set-up), then, unless ``--setup-only``, one JSON line:
each run's wall time (graph spec -> ``RunOutcome``), counters and matrix
digest, the host-speed kernel time measured after each untraced run, the
untraced window's wall time less those kernel times, its own peak RSS
and, with ``--trace``, the per-layer times of a second, traced half of
the window.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from time import perf_counter
from typing import Any, Dict, List

from hostspeed import Speedometer
from layers import Tracer, summarize
from oracle import matrix_digest

#: Fewest timed runs per window, however long one run takes.
MIN_RUNS = 3

#: Layer names of a traced protocol run.
RUN_LAYERS = (
    "graphs.parse", "protocols.request", "protocols.metrics_of",
    "protocols.summarize", "core.run", "vector.run", "congest.step",
)


def install_run_layers(tracer: Tracer, specs, registry, network, proto) -> None:
    """Wrap the public calls one protocol run goes through."""
    tracer.wrap(specs, "parse_graph", "graphs.parse")
    tracer.wrap(registry.Protocol, "request", "protocols.request")
    tracer.wrap(proto, "metrics_of", "protocols.metrics_of")
    tracer.wrap(proto, "summarize", "protocols.summarize")
    tracer.wrap(proto, "run", "core.run")
    if proto.vector_run is not None:
        tracer.wrap(proto, "vector_run", "vector.run")
    steps = tracer.sink("congest.step")

    def observe(net) -> None:
        step = net.step

        def timed_step():
            start = perf_counter()
            try:
                return step()
            finally:
                steps.append(perf_counter() - start)

        net.step = timed_step
        if previous is not None:
            previous(net)

    previous = network.set_network_observer(observe)
    tracer.on_remove(lambda: network.set_network_observer(previous))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--backend", choices=["object", "vector"], required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro import protocols
    from repro.congest import network
    from repro.graphs import specs
    from repro.protocols import registry

    proto = protocols.get("apsp")
    params: Dict[str, Any] = {}
    if args.backend == "vector":
        import numpy  # noqa: F401  (set-up pays the import, not run one)

        params["backend"] = "vector"
    specs.parse_graph(args.spec)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    def one_run():
        start = perf_counter()
        graph = specs.parse_graph(args.spec)
        outcome = protocols.run("apsp", graph, params)
        elapsed = perf_counter() - start
        m = outcome.metrics
        digest = matrix_digest(
            {u: r.distances for u, r in outcome.summary.results.items()}
        )
        return [elapsed, [m.rounds, m.messages_total, m.bits_total], digest]

    def window(seconds: float, before=None, after=None) -> List[list]:
        records: List[list] = []
        deadline = perf_counter() + seconds
        while len(records) < MIN_RUNS or perf_counter() < deadline:
            if before is not None:
                before()
            records.append(one_run())
            if after is not None:
                after()
        return records

    speed = Speedometer("numpy" if args.backend == "vector" else "python")
    report: Dict[str, Any] = {"warmup": one_run()}

    def untraced(seconds: float) -> None:
        # The window's wall time, less the kernel's own timed work, is
        # what the runs and the collection of their garbage took.
        start = perf_counter()
        report["untraced"] = window(seconds, after=speed.sample)
        report["window_s"] = perf_counter() - start - sum(speed.samples)

    if not args.trace:
        untraced(args.seconds)
    else:
        half = args.seconds / 2
        untraced(half)
        tracer = Tracer()
        install_run_layers(tracer, specs, registry, network, proto)
        installed = tracer.installed
        per_run: List[Dict[str, List[float]]] = []
        every: Dict[str, List[float]] = {name: [] for name in RUN_LAYERS}

        def collect() -> None:
            per_run.append({
                name: [len(samples), sum(samples)]
                for name, samples in tracer.layers.items()
            })
            for name, samples in tracer.layers.items():
                every.setdefault(name, []).extend(samples)

        report["traced"] = window(half, tracer.reset, collect)
        tracer.remove()
        current = network.set_network_observer(None)
        network.set_network_observer(current)
        report["installed"] = installed
        report["leftovers"] = tracer.leftovers() + (
            [] if current is None else ["congest.network observer"]
        )
        report["per_run_layers"] = per_run
        report["layer_summary"] = {
            name: summarize(samples) for name, samples in every.items()
        }
    report["kernel"] = {"kind": speed.kind, "samples": speed.samples}
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
