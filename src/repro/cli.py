"""Command-line interface: ``python -m repro <command> ...``.

Runs the paper's algorithms on generated or file-loaded topologies and
prints the distributed results plus the round/message/bit costs.  The
algorithm subcommands — their names, flags, dispatch and printed
reports — are derived from the protocol registry
(:mod:`repro.protocols`); this module keeps no algorithm table of its
own.  The graph argument uses a compact spec syntax::

    path:40              a 40-node path
    cycle:24             a 24-node cycle
    grid:5x8             a 5x8 grid
    torus:4x25           a 4x25 torus
    star:30              a star
    complete:12          a clique
    tree:50:seed=3       a random tree
    er:60:p=0.1:seed=7   a connected Erdős–Rényi graph
    dumbbell:20:10       two 20-cliques joined by a 10-edge path
    file:PATH            an edge-list file (repro.graphs.io format)

Examples::

    python -m repro apsp torus:6x6
    python -m repro ssp er:40:p=0.15 --sources 1,5,9
    python -m repro properties grid:5x8
    python -m repro girth cycle:48 --epsilon 0.5
    python -m repro two-vs-four --family diameter2 --n 80
    python -m repro baseline path:32 --algorithm distance-vector
    python -m repro leader er:30:p=0.2
    python -m repro weighted-apsp torus:4x6 --max-weight 3
    python -m repro campaign --graphs "path:{n}" --sizes 20,40 --jobs 4
    python -m repro serve --graph er:64:p=0.1:seed=1 --cache-dir .cache
    python -m repro serve-bench er:64:p=0.1:seed=1 --clients 8
    python -m repro serve-chaos --workers 2 --kills 1 --duration 6
    python -m repro cache prune .cache --max-mb 256
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import graphs, protocols
from .graphs.specs import GraphSpecError
from .graphs.specs import parse_graph as _parse_graph_spec
from .protocols import TaskError
from .protocols.params import BACKENDS


def parse_graph(spec: str) -> graphs.Graph:
    """Turn a compact graph spec (see module docstring) into a Graph.

    The syntax lives in :mod:`repro.graphs.specs` (shared with the
    campaign harness); this wrapper just converts parse failures into
    the CLI's exit discipline.
    """
    try:
        return _parse_graph_spec(spec)
    except GraphSpecError as exc:
        raise SystemExit(str(exc))


def _make_protocol_command(protocol: protocols.Protocol):
    """Build the handler for one registry-derived run subcommand.

    The generic pipeline: build the graph, optionally redirect to a
    sibling protocol (``select``), collect params from the parsed
    flags, run the ``RunRequest → RunOutcome`` envelope, and hand the
    outcome to the protocol's ``present`` hook for printing.
    """
    spec = protocol.cli

    def handler(args: argparse.Namespace) -> Optional[int]:
        if spec.build_graph is not None:
            try:
                graph = spec.build_graph(args)
            except GraphSpecError as exc:
                raise SystemExit(str(exc))
        else:
            graph = parse_graph(args.graph)
        target = protocol
        if spec.select is not None:
            target = protocols.get(spec.select(args))
        params = dict(spec.collect(args)) if spec.collect else {}
        params["seed"] = args.seed
        params["backend"] = getattr(args, "backend", "object")
        try:
            outcome = target.execute(graph, params)
        except TaskError as exc:
            raise SystemExit(str(exc))
        if spec.present is not None:
            return spec.present(args, graph, outcome)
        print(json.dumps(outcome.result, sort_keys=True))
        return None

    return handler


def _add_protocol_parsers(sub, common) -> None:
    """Create one run subcommand per registry entry with a presenter."""
    for protocol in protocols.protocols():
        spec = protocol.cli
        if spec is None or spec.present is None:
            continue
        p = sub.add_parser(protocol.name, help=spec.help)
        if spec.build_graph is None:
            p.add_argument("graph")
        for arg in spec.args:
            kwargs = {"default": arg.default}
            if arg.kind == "int":
                kwargs["type"] = int
            elif arg.kind == "float":
                kwargs["type"] = float
            if arg.choices is not None:
                kwargs["choices"] = list(arg.choices)
            if arg.required:
                kwargs["required"] = True
            if arg.help:
                kwargs["help"] = arg.help
            p.add_argument(arg.flag, **kwargs)
        common(p)
        p.set_defaults(func=_make_protocol_command(protocol))


def cmd_experiment(args: argparse.Namespace) -> None:
    """``repro experiment``: regenerate Table 1 entries on demand."""
    from . import experiments

    ids = experiments.available()
    if args.id == "list":
        print("\n".join(ids))
        return
    if args.id != "all":
        if args.id not in ids:
            raise SystemExit(
                f"unknown experiment {args.id!r}; available: {ids}"
            )
        ids = [args.id]
    if args.output:
        try:
            Path(args.output).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SystemExit(f"--output: {exc}")
    failures = []
    for exp_id in ids:
        result = experiments.run(exp_id, scale=args.scale)
        text = result.render()
        print(text)
        print()
        if args.output:
            Path(args.output, f"{exp_id}.txt").write_text(
                text + "\n", encoding="utf-8"
            )
        if not result.passed:
            failures.append(exp_id)
    if failures:
        raise SystemExit(f"experiments failed checks: {failures}")


def _worker_count(text: str) -> int:
    """argparse type of ``--workers``: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _csv(text: Optional[str], cast=str) -> List:
    """Split a comma-separated flag value, applying ``cast`` per item."""
    if not text:
        return []
    return [cast(item.strip()) for item in text.split(",") if item.strip()]


def cmd_campaign(args: argparse.Namespace) -> int:
    """``repro campaign``: run a cached, parallel sweep (docs/harness.md).

    Returns the process exit code: 0 when every task produced a result,
    1 when any task failed (the per-task errors are in the JSONL store,
    so a partial campaign is still fully recorded).  Unknown algorithms
    and malformed params are rejected up front at spec expansion —
    before any worker spawns — with a nonzero exit.
    """
    from . import harness

    if args.spec:
        if args.graphs:
            raise SystemExit(
                "give either a spec file or --graphs flags, not both"
            )
        try:
            spec = harness.load_spec(args.spec)
        except (OSError, harness.SpecError) as exc:
            raise SystemExit(str(exc))
    elif args.graphs:
        data = {
            "name": args.name,
            "graphs": _csv(args.graphs),
            "sizes": _csv(args.sizes, int),
            "seeds": _csv(args.seeds, int) or [0],
            "algorithms": _csv(args.algorithms) or ["apsp"],
            "policies": _csv(args.policies) or ["strict"],
            "salt": args.salt,
        }
        try:
            spec = harness.CampaignSpec.from_dict(data)
        except harness.SpecError as exc:
            raise SystemExit(str(exc))
    else:
        raise SystemExit(
            "campaign needs a JSON spec file or --graphs (see docs/harness.md)"
        )
    if args.faults:
        try:
            spec = spec.with_faults(json.loads(args.faults))
        except json.JSONDecodeError as exc:
            raise SystemExit(f"--faults: not valid JSON ({exc})")
        except harness.SpecError as exc:
            raise SystemExit(str(exc))
    if args.backend:
        try:
            spec = spec.with_backend(args.backend)
        except harness.SpecError as exc:
            raise SystemExit(str(exc))
    if args.trace:
        try:
            spec = spec.with_trace()
        except harness.SpecError as exc:
            raise SystemExit(str(exc))
    out = args.out or f"{spec.name}.jsonl"
    try:
        summary = harness.run_campaign(
            spec,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            store_path=out,
            append=args.append,
            show_progress=not args.quiet,
            timeout_s=args.timeout,
            retries=args.retries,
            max_failures=args.max_failures,
        )
    except harness.SpecError as exc:
        raise SystemExit(str(exc))
    print(summary.describe())
    print(f"results -> {out}")
    if summary.failures:
        print(
            f"error: {summary.failures} task(s) failed; "
            f"per-task errors recorded in {out}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """``repro bench``: the pinned microbenchmark suite.

    Runs the pinned workload suite (see :mod:`repro.bench.workloads`)
    and writes a machine-readable ``BENCH_<date>.json`` report.  Every
    run's rounds, messages and bits must equal the workload's pins at
    that scale, on any backend; a difference prints
    ``workload: counter pinned -> measured`` and exits 1 after the
    report is written.  Wall time is reported, never judged.  Schema
    and workflow: ``docs/benchmarks.md``.
    """
    from . import bench

    names = _csv(args.workloads) or None
    try:
        report = bench.run_suite(
            quick=args.quick,
            repeats=args.repeats,
            names=names,
            backend=args.backend,
            progress=print,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    out = args.out or bench.default_output_path()
    bench.write_report(report, out)
    print(f"report -> {out}")
    mismatches = bench.check_pins(report)
    if mismatches:
        print("error: counters differ from their pins "
              "(pinned -> measured):", file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"pins: {len(report['workloads'])} workload(s) match")
    return 0


def _traceable_names() -> List[str]:
    """Protocols ``repro trace run`` can capture (registry-derived)."""
    return [
        p.name for p in protocols.protocols()
        if "trace" in p.capabilities
    ]


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace run``: one traced run, exported three ways.

    Captures the run with :func:`repro.obs.capture` and exports per
    ``--export``: ``summary`` prints costs, invariant verdicts and the
    round x edge heatmap (exit 1 if an invariant fails); ``jsonl``
    writes the ``repro-trace/1`` stream; ``chrome`` writes Trace Event
    Format JSON loadable in ``about://tracing`` / Perfetto.  The
    algorithm choices are the registry entries carrying the ``trace``
    capability.
    """
    from . import obs, vector

    if args.backend == "vector":
        raise SystemExit(vector.unsupported(trace=True))
    graph = parse_graph(args.graph)
    faults = None
    if args.faults:
        try:
            faults = json.loads(args.faults)
        except json.JSONDecodeError as exc:
            raise SystemExit(f"--faults: not valid JSON ({exc})")
    protocol = protocols.get(args.algorithm)
    spec = protocol.cli
    target = protocol
    if spec is not None and spec.select is not None:
        target = protocols.get(spec.select(args))
        spec = target.cli or spec
    params = {}
    if spec is not None and spec.trace_collect is not None:
        params = dict(spec.trace_collect(args))
    params.update(seed=args.seed, policy=args.policy, faults=faults)
    try:
        with obs.capture() as session:
            target.execute(graph, params)
    except TaskError as exc:
        raise SystemExit(str(exc))
    trace = session.build_trace(
        0, label=f"{args.algorithm} {args.graph}"
    )

    if args.export == "summary":
        text = obs.render_summary(trace)
        print(text)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
            print(f"summary -> {args.out}")
        failed = [r for r in obs.check(trace) if not r.ok]
        return 1 if failed else 0

    if args.export == "chrome":
        out = args.out or f"trace_{args.algorithm}.json"
        obs.write_chrome(trace, out)
        print(f"chrome trace -> {out} "
              f"(load in about://tracing or ui.perfetto.dev)")
    else:
        out = args.out or f"trace_{args.algorithm}.jsonl"
        obs.write_jsonl(trace, out)
        print(f"repro-trace/1 stream -> {out}")
    print(f"rounds: {trace.rounds}   messages: {len(trace.messages)}   "
          f"events: {len(trace.events)}   spans: {len(trace.spans)}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the persistent distance-query service.

    Runs until SIGINT/SIGTERM; shutdown drains in-flight batches and
    flushes the stats snapshot (see docs/serving.md).
    """
    from . import serve

    config = serve.ServerConfig(
        host=args.host,
        port=args.port,
        graphs=tuple(args.graph or ()),
        cache_dir=args.cache_dir,
        max_matrix_bytes=int(args.max_matrix_mb * 1024 * 1024),
        seed=args.seed,
        policy=args.policy,
        backend=args.backend,
        max_batch=args.max_batch,
        stats_path=args.stats_out,
        warm=tuple(args.warm or ()),
        workers=args.workers,
        deadline_s=None if args.deadline <= 0 else args.deadline,
        retries=args.retries,
        queue_depth=args.queue_depth,
        max_inflight=args.max_inflight,
        max_body_bytes=int(args.max_body_kb * 1024),
        read_timeout_s=None if args.read_timeout <= 0 else args.read_timeout,
    )
    try:
        return serve.run_server(config)
    except serve.QueryError as exc:
        raise SystemExit(str(exc))


def cmd_serve_bench(args: argparse.Namespace) -> int:
    """``repro serve-bench``: load-test a running (or self-hosted) server.

    Reports queries/sec and latency percentiles; ``--out`` writes the
    ``repro-serve-bench/1`` JSON artifact (qps, p50/p99, and the
    server's ``/stats`` snapshot).  ``--min-qps`` turns the run into a
    gate for CI.
    """
    from . import serve

    handle = None
    url = args.url
    if url is None:
        handle = serve.ServerThread(cache_dir=args.cache_dir).start()
        url = handle.url
    try:
        report = serve.run_loadgen(serve.LoadgenOptions(
            url=url,
            graph=args.graph,
            protocol=args.protocol,
            clients=args.clients,
            duration_s=args.duration,
            mode=args.mode,
            seed=args.seed,
            warm=not args.cold,
        ))
    finally:
        if handle is not None:
            handle.stop()
    print(serve.render_summary(report))
    if args.out:
        serve.write_artifact(report, args.out)
        print(f"artifact -> {args.out}")
    if args.min_qps is not None and report["qps"] < args.min_qps:
        print(
            f"error: {report['qps']:.0f} qps is below the "
            f"--min-qps {args.min_qps:.0f} gate",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_serve_chaos(args: argparse.Namespace) -> int:
    """``repro serve-chaos``: kill workers under live serving load.

    Stands up a supervised server, drives cold-query load, SIGKILLs
    workers on a schedule (optionally poisoning computes through the
    chaos protocol), and gates on the robustness contract: zero
    dropped queries, no internal errors, full recovery, bounded p99.
    Exit 0 iff every check passed; ``--out`` writes the
    ``repro-serve-chaos/1`` artifact.
    """
    from .serve import chaos as serve_chaos

    report = serve_chaos.run_chaos(serve_chaos.ChaosOptions(
        graph_n=args.graph_n,
        graph_p=args.graph_p,
        clients=args.clients,
        duration_s=args.duration,
        workers=args.workers,
        kills=args.kills,
        kill_after_s=args.kill_after,
        kill_every_s=args.kill_every,
        deadline_s=args.deadline,
        retries=args.retries,
        inject=args.inject,
        inject_jobs=args.inject_jobs,
        inject_attempts=args.inject_attempts,
        hang_s=args.hang_s,
        hit_fraction=args.hit_fraction,
        seed=args.seed,
        p99_budget_ms=args.p99_budget_ms,
    ))
    print(serve_chaos.render_summary(report))
    if args.out:
        serve_chaos.write_artifact(report, args.out)
        print(f"artifact -> {args.out}")
    return 0 if report["ok"] else 1


def cmd_cache(args: argparse.Namespace) -> int:
    """``repro cache``: inspect and bound the content-addressed run cache.

    ``info`` prints entry count and bytes; ``prune`` evicts
    oldest-first until the cache fits ``--max-mb`` (every entry is
    recomputable, so eviction is always safe); ``clear`` empties it.
    """
    from .harness import RunCache

    cache = RunCache(args.dir)
    if args.cache_command == "info":
        print(f"{args.dir}: {len(cache)} entries, "
              f"{cache.size_bytes()} bytes")
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries")
        return 0
    max_bytes = int(args.max_mb * 1024 * 1024)
    removed, freed = cache.prune(max_bytes)
    print(f"pruned {removed} entries ({freed} bytes); "
          f"{len(cache)} entries ({cache.size_bytes()} bytes) remain")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree.

    Algorithm subcommands and trace choices are generated from the
    protocol registry; only the pipeline commands (``experiment``,
    ``campaign``, ``trace``, ``bench``) are declared here.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Holzer-Wattenhofer PODC'12 reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--backend", choices=BACKENDS,
                       default="object",
                       help="execution engine: 'object' (reference "
                            "simulator) or 'vector' (numpy round engine; "
                            "identical counters, needs the 'vector' "
                            "install extra)")

    _add_protocol_parsers(sub, common)

    p = sub.add_parser(
        "experiment",
        help="regenerate a Table 1 experiment (see EXPERIMENTS.md)",
    )
    p.add_argument("id", help="experiment id, 'all', or 'list'")
    p.add_argument("--scale", choices=["quick", "paper"],
                   default="quick")
    p.add_argument("--output", default=None, metavar="DIR",
                   help="also write each table to DIR/<id>.txt (the "
                        "committed tables are benchmarks/results)")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "campaign",
        help="run a declarative sweep: parallel workers + run cache "
             "+ JSONL results (see docs/harness.md)",
    )
    p.add_argument("spec", nargs="?", default=None,
                   help="JSON campaign spec file")
    p.add_argument("--name", default="campaign",
                   help="campaign label (flag mode)")
    p.add_argument("--graphs", default=None,
                   help="comma-separated graph specs; may use {n}")
    p.add_argument("--sizes", default=None,
                   help="comma-separated sizes filling {n}")
    p.add_argument("--seeds", default="0",
                   help="comma-separated simulator seeds")
    p.add_argument("--algorithms", default="apsp",
                   help="comma-separated algorithm names "
                        "(see repro.protocols)")
    p.add_argument("--policies", default="strict",
                   help="comma-separated bandwidth policies")
    p.add_argument("--salt", default="",
                   help="extra cache-key salt")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default 1)")
    p.add_argument("--cache-dir", default=None,
                   help="content-addressed run cache directory")
    p.add_argument("--no-cache", action="store_true",
                   help="recompute every run (still refreshes the cache)")
    p.add_argument("--out", default=None,
                   help="JSONL result store path (default <name>.jsonl)")
    p.add_argument("--append", action="store_true",
                   help="append to --out instead of truncating")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress reporting")
    p.add_argument("--timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-task wall-clock limit; overdue workers "
                        "are killed and the task records a Timeout")
    p.add_argument("--retries", type=int, default=0,
                   help="retry transient failures (timeout, worker "
                        "death) this many times with backoff")
    p.add_argument("--max-failures", type=int, default=None,
                   help="skip remaining tasks once this many failed")
    p.add_argument("--faults", default=None, metavar="JSON",
                   help="fault-injection spec applied to every task, "
                        "e.g. '{\"drop_rate\": 0.02, \"seed\": 7}'")
    p.add_argument("--trace", action="store_true",
                   help="record a repro-trace/1 summary per task into "
                        "the result store (see docs/observability.md)")
    p.add_argument("--backend", choices=BACKENDS,
                   default=None,
                   help="execution engine for every task (overrides "
                        "the spec's 'backend' field)")
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "trace",
        help="capture a structured trace of one run (repro.obs)",
        epilog="Traces follow the repro-trace/1 schema. See "
               "docs/observability.md for the span/event API, the JSONL "
               "schema, and the Chrome trace_event walkthrough; "
               "docs/table1.md maps paper lemmas to trace invariants.",
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    pr = trace_sub.add_parser(
        "run",
        help="run an algorithm under capture and export the trace",
        epilog="Examples: "
               "`repro trace run apsp er:32:p=0.15:seed=1 "
               "--export summary`; "
               "`repro trace run ssp torus:4x8 --sources 1,5,9 "
               "--export chrome --out ssp.json`. "
               "With --export summary the exit code is 1 if any paper "
               "invariant (Lemma 1, Remark 3, Theorem 3) fails on the "
               "trace.",
    )
    pr.add_argument("algorithm", choices=_traceable_names(),
                    help="entry point to trace")
    pr.add_argument("graph", help="graph spec (same syntax as run commands)")
    pr.add_argument("--export", choices=["summary", "jsonl", "chrome"],
                    default="summary",
                    help="output form (default: summary)")
    pr.add_argument("--out", default=None,
                    help="output path (default trace_<algo>.json[l]; "
                         "summary prints to stdout)")
    pr.add_argument("--sources", default=None,
                    help="ssp only: comma-separated source ids (default 1)")
    pr.add_argument("--epsilon", type=float, default=None,
                    help="girth/approx: approximation parameter")
    pr.add_argument("--policy", default="strict",
                    help="bandwidth policy (default strict)")
    pr.add_argument("--faults", default=None, metavar="JSON",
                    help="fault-injection spec, e.g. "
                         "'{\"drop_rate\": 0.02, \"seed\": 7}'")
    common(pr)
    pr.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "bench",
        help="pinned microbenchmarks over the core entry points; exits 1 "
             "when a counter differs from its pin (see docs/benchmarks.md)",
    )
    p.add_argument("--quick", action="store_true",
                   help="small smoke-scale instances (CI)")
    p.add_argument("--repeats", type=int, default=None,
                   help="timed repeats per workload, after one "
                        "untimed warm-up (default 5 full / 3 quick)")
    p.add_argument("--workloads", default=None,
                   help="comma-separated subset of the pinned suite "
                        "(large-n vector workloads are opt-in by name)")
    p.add_argument("--backend", choices=BACKENDS,
                   default=None,
                   help="force every selected workload onto this "
                        "execution engine (default: each workload's "
                        "pinned backend)")
    p.add_argument("--out", default=None,
                   help="report path (default BENCH_<date>.json)")
    p.set_defaults(func=cmd_bench)

    # The serve flags' defaults are ServerConfig's, declared once.
    from .serve import ServerConfig

    config = ServerConfig()
    p = sub.add_parser(
        "serve",
        help="persistent distance-query HTTP service with request "
             "batching and memoized matrices (see docs/serving.md)",
    )
    p.add_argument("--host", default=config.host)
    p.add_argument("--port", type=int, default=config.port,
                   help="listen port (0 = ephemeral; default %(default)s)")
    p.add_argument("--graph", action="append", metavar="SPEC",
                   help="preload this graph spec (repeatable)")
    p.add_argument("--warm", action="append", metavar="SPEC",
                   help="precompute the full APSP matrix for this "
                        "spec before serving (repeatable)")
    p.add_argument("--cache-dir", default=config.cache_dir,
                   help="content-addressed run cache persisting "
                        "matrices across restarts")
    p.add_argument("--max-matrix-mb", type=float,
                   default=config.max_matrix_bytes / (1024 * 1024),
                   help="in-memory matrix LRU budget (default %(default)g)")
    p.add_argument("--max-batch", type=int, default=config.max_batch,
                   help="max sources per batched run (default %(default)s)")
    p.add_argument("--policy", default=config.policy,
                   help="bandwidth policy for on-demand runs")
    p.add_argument("--backend", choices=BACKENDS,
                   default=config.backend,
                   help="execution engine for on-demand runs "
                        "(vector needs the 'vector' install extra)")
    p.add_argument("--stats-out", default=config.stats_path,
                   metavar="PATH",
                   help="write the final /stats snapshot here on "
                        "shutdown")
    p.add_argument("--seed", type=int, default=config.seed)
    p.add_argument("--workers", type=_worker_count, default=config.workers,
                   help="supervised compute worker processes; every "
                        "cold query runs in this pool (at least 1; "
                        "default %(default)s)")
    p.add_argument("--deadline", type=float, default=config.deadline_s,
                   help="per-compute wall-clock budget in seconds "
                        "(<=0 disables; default %(default)g)")
    p.add_argument("--retries", type=int, default=config.retries,
                   help="crash retries per compute job (default %(default)s)")
    p.add_argument("--queue-depth", type=int, default=config.queue_depth,
                   help="pending compute jobs before 429 shedding "
                        "(default %(default)s)")
    p.add_argument("--max-inflight", type=int, default=config.max_inflight,
                   help="concurrent request cap before 429 shedding "
                        "(0 disables; default %(default)s)")
    p.add_argument("--max-body-kb", type=float,
                   default=config.max_body_bytes / 1024,
                   help="request body cap in KiB before 413 "
                        "(default %(default)g)")
    p.add_argument("--read-timeout", type=float,
                   default=config.read_timeout_s,
                   help="seconds to wait for a request body before "
                        "dropping the connection (<=0 disables; "
                        "default %(default)g)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "serve-bench",
        help="load-test a distance-query server; reports qps and "
             "p50/p99 latency (see docs/serving.md)",
    )
    p.add_argument("graph", help="graph spec the clients query")
    p.add_argument("--url", default=None,
                   help="target server (default: self-host an "
                        "ephemeral server for the run)")
    p.add_argument("--protocol", default="apsp",
                   choices=["apsp", "weighted-apsp"])
    p.add_argument("--clients", type=int, default=8,
                   help="concurrent keep-alive connections (default 8)")
    p.add_argument("--duration", type=float, default=5.0,
                   help="measured seconds (default 5)")
    p.add_argument("--mode", choices=["distance", "mixed"],
                   default="distance",
                   help="query mix (mixed adds ecc/diameter traffic)")
    p.add_argument("--cold", action="store_true",
                   help="skip the warm-up diameter query (measures "
                        "cold-cache behaviour)")
    p.add_argument("--cache-dir", default=None,
                   help="run cache for the self-hosted server")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the repro-serve-bench/1 JSON artifact")
    p.add_argument("--min-qps", type=float, default=None,
                   help="exit 1 if measured qps falls below this")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_serve_bench)

    p = sub.add_parser(
        "serve-chaos",
        help="kill serve workers under live load and gate on the "
             "robustness contract (see docs/serving.md)",
    )
    p.add_argument("--graph-n", type=int, default=24,
                   help="ER family size for the cold-query stream "
                        "(default 24)")
    p.add_argument("--graph-p", type=float, default=0.2)
    p.add_argument("--clients", type=int, default=4,
                   help="concurrent keep-alive connections (default 4)")
    p.add_argument("--duration", type=float, default=8.0,
                   help="seconds of load (default 8)")
    p.add_argument("--workers", type=_worker_count, default=2,
                   help="supervised worker processes (at least 1; "
                        "default 2)")
    p.add_argument("--kills", type=int, default=1,
                   help="workers to SIGKILL during the run (default 1)")
    p.add_argument("--kill-after", type=float, default=1.0,
                   help="seconds before the first kill (default 1)")
    p.add_argument("--kill-every", type=float, default=2.0,
                   help="seconds between kills (default 2)")
    p.add_argument("--deadline", type=float, default=15.0,
                   help="per-compute deadline in seconds (default 15)")
    p.add_argument("--retries", type=int, default=2,
                   help="crash retries per compute job (default 2)")
    p.add_argument("--inject", default=None,
                   choices=["crash", "hang", "error"],
                   help="additionally poison compute jobs through the "
                        "chaos protocol")
    p.add_argument("--inject-jobs", type=int, default=0,
                   help="how many jobs --inject poisons (default 0)")
    p.add_argument("--inject-attempts", type=int, default=1,
                   help="poison attempts below this per job "
                        "(1 = the crash retry succeeds; default 1)")
    p.add_argument("--hang-s", type=float, default=30.0,
                   help="hang duration for --inject hang (default 30)")
    p.add_argument("--hit-fraction", type=float, default=0.25,
                   help="fraction of repeat (cache-hit) queries "
                        "(default 0.25)")
    p.add_argument("--p99-budget-ms", type=float, default=30000.0,
                   help="client p99 latency gate (default 30000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the repro-serve-chaos/1 JSON artifact")
    p.set_defaults(func=cmd_serve_chaos)

    p = sub.add_parser(
        "cache",
        help="inspect / prune / clear a content-addressed run cache",
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    for name, needs_size in (("info", False), ("prune", True),
                             ("clear", False)):
        pc = cache_sub.add_parser(
            name,
            help={"info": "entry count and total bytes",
                  "prune": "evict oldest entries down to --max-mb",
                  "clear": "delete every entry"}[name],
        )
        pc.add_argument("dir", help="cache directory")
        if needs_size:
            pc.add_argument("--max-mb", type=float, required=True,
                            help="target size in MiB")
        pc.set_defaults(func=cmd_cache)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Command handlers return ``None`` (success) or an integer exit
    code; ``repro campaign`` uses a nonzero code to signal that some
    tasks failed even though the campaign itself completed.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    code = args.func(args)
    return 0 if code is None else int(code)


if __name__ == "__main__":
    sys.exit(main())
