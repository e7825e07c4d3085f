"""The built-in protocol declarations — every algorithm, declared once.

This module is the *single source of truth* for algorithm dispatch.
Each :func:`~.registry.register` call below binds together a
``core.run_*`` entry point (and its :mod:`repro.vector` twin, where one
exists), its parameter schema, its capability flags, the JSON-pure
summary the harness stores, and (for the user-facing algorithms) the
CLI subcommand presentation.  The campaign harness, ``repro``
subcommands, ``repro trace run``, the benchmark workloads and the
experiments all dispatch through this registry — none of them keeps
an algorithm table of its own.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional

from .. import core
from .. import vector
from ..congest.metrics import RunMetrics
from ..graphs import (
    deterministic_weights,
    diameter_four_blobs,
    diameter_two_random,
    run_weighted_apsp,
)
from ..graphs.specs import parse_graph
from .errors import ParamError, TaskError
from .params import ParamSpec
from .registry import (
    CliArg,
    CliSpec,
    Protocol,
    RunOutcome,
    RunRequest,
    register,
)


def _print_cost(metrics: RunMetrics) -> None:
    print(f"rounds:   {metrics.rounds}")
    print(f"messages: {metrics.messages_total}")
    print(f"bits:     {metrics.bits_total}")


def _csv(text: Optional[str], cast=str) -> List:
    if not text:
        return []
    return [cast(item.strip()) for item in text.split(",") if item.strip()]


# ---------------------------------------------------------------------------
# apsp — Algorithm 1
# ---------------------------------------------------------------------------


def _diameter_radius(summary) -> Dict[str, int]:
    """An APSP summary's diameter and radius, from one walk over its rows."""
    eccentricities = summary.eccentricities().values()
    return {"diameter": max(eccentricities), "radius": min(eccentricities)}


def _apsp_present(args, graph, outcome: RunOutcome) -> None:
    summary = outcome.summary
    print(f"APSP on {graph!r}")
    _print_cost(outcome.metrics)
    print("diameter: {diameter}   radius: {radius}".format(
        **_diameter_radius(summary)))
    if args.show_row is not None:
        row = summary.results[args.show_row].distances
        print(f"distances from node {args.show_row}: "
              f"{dict(sorted(row.items()))}")


register(Protocol(
    name="apsp",
    entry=core.run_apsp,
    vector_entry=vector.run_apsp,
    summarize=lambda s, req: _diameter_radius(s),
    schema=(
        ParamSpec("collect_girth", kind="bool", default=False,
                  help="also collect the Lemma 7 girth witnesses"),
    ),
    capabilities=frozenset({"faults", "trace", "girth"}),
    help="Algorithm 1: APSP in O(n)",
    cli=CliSpec(
        help="Algorithm 1: APSP in O(n)",
        args=(
            CliArg("--show-row", kind="int",
                   help="print one node's distance row"),
        ),
        present=_apsp_present,
    ),
))


# ---------------------------------------------------------------------------
# ssp — Algorithm 2
# ---------------------------------------------------------------------------


def _ssp_check(params: Dict[str, Any]) -> None:
    if params.get("sources") is None and params.get("num_sources") is None:
        raise ParamError("ssp needs 'sources' or 'num_sources'")


def _ssp_call(entry, req: RunRequest):
    sources = req.params.get("sources")
    if sources is None:
        sources = sorted(req.graph.nodes)[: req.params["num_sources"]]
    return entry(req.graph, sources, **req.common.kwargs())


def _ssp_summarize(summary, req: RunRequest) -> Dict[str, Any]:
    max_distance = max(
        (max(res.distances.values(), default=0)
         for res in summary.results.values()),
        default=0,
    )
    return {
        "sources": sorted(summary.sources),
        "max_distance": max_distance,
    }


def _ssp_present(args, graph, outcome: RunOutcome) -> None:
    summary = outcome.summary
    print(f"S-SP on {graph!r} with S = {sorted(summary.sources)}")
    _print_cost(outcome.metrics)
    for node in list(graph.nodes)[: args.show_nodes]:
        print(f"node {node}: "
              f"{dict(sorted(summary.results[node].distances.items()))}")


register(Protocol(
    name="ssp",
    entry=core.run_ssp,
    vector_entry=vector.run_ssp,
    adapter=_ssp_call,
    summarize=_ssp_summarize,
    schema=(
        ParamSpec("sources", kind="int_list", example=[1],
                  help="explicit source ids"),
        ParamSpec("num_sources", kind="int", minimum=1,
                  help="use the num_sources smallest node ids"),
    ),
    check=_ssp_check,
    capabilities=frozenset({"faults", "trace"}),
    help="Algorithm 2: S-SP in O(|S|+D)",
    cli=CliSpec(
        help="Algorithm 2: S-SP in O(|S|+D)",
        args=(
            CliArg("--sources", required=True,
                   help="comma-separated source ids"),
            CliArg("--show-nodes", kind="int", default=3),
        ),
        collect=lambda args: {"sources": _csv(args.sources, int)},
        present=_ssp_present,
        trace_collect=lambda args: {
            "sources": _csv(args.sources, int) or [1],
        },
    ),
))


# ---------------------------------------------------------------------------
# properties — Lemmas 2-7
# ---------------------------------------------------------------------------


def _properties_summarize(summary, req: RunRequest) -> Dict[str, Any]:
    result = {
        "diameter": summary.diameter,
        "radius": summary.radius,
        "center": sorted(summary.center()),
        "peripheral": sorted(summary.peripheral()),
    }
    if req.params["include_girth"]:
        result["girth"] = summary.girth
    return result


def _properties_present(args, graph, outcome: RunOutcome) -> None:
    summary = outcome.summary
    print(f"graph properties of {graph!r} (Lemmas 2-7)")
    _print_cost(outcome.metrics)
    print(f"diameter:   {summary.diameter}")
    print(f"radius:     {summary.radius}")
    print(f"girth:      {summary.girth}")
    print(f"center:     {sorted(summary.center())}")
    print(f"peripheral: {sorted(summary.peripheral())}")


register(Protocol(
    name="properties",
    entry=core.run_graph_properties,
    vector_entry=vector.run_graph_properties,
    summarize=_properties_summarize,
    schema=(
        ParamSpec("include_girth", kind="bool", default=True,
                  help="include the Lemma 7 girth computation"),
        ParamSpec("track_edges", kind="bool", default=False,
                  help="record per-edge bit counters (cut analyses)"),
    ),
    capabilities=frozenset({"faults", "trace", "girth"}),
    help="Lemmas 2-7: all exact properties",
    cli=CliSpec(
        help="Lemmas 2-7: all exact properties",
        present=_properties_present,
    ),
))


# ---------------------------------------------------------------------------
# approx — Theorem 4 / Corollary 4
# ---------------------------------------------------------------------------


def _approx_present(args, graph, outcome: RunOutcome) -> None:
    summary = outcome.summary
    print(f"(x,1+{args.epsilon}) approximation on {graph!r} "
          f"(Theorem 4 / Corollary 4)")
    _print_cost(outcome.metrics)
    print(f"diameter estimate: {summary.diameter_estimate}")
    print(f"radius estimate:   {summary.radius_estimate}")
    print(f"center candidates: {sorted(summary.center_approx())}")


register(Protocol(
    name="approx",
    entry=core.run_approx_properties,
    summarize=lambda s, req: {
        "epsilon": req.params["epsilon"],
        "diameter_estimate": s.diameter_estimate,
        "radius_estimate": s.radius_estimate,
    },
    schema=(
        ParamSpec("epsilon", kind="float", default=0.5,
                  help="approximation parameter (stretch 1+epsilon)"),
    ),
    capabilities=frozenset({"faults", "trace"}),
    help="Theorem 4 / Corollary 4: (x,1+eps)",
    cli=CliSpec(
        help="Theorem 4 / Corollary 4: (x,1+eps)",
        args=(CliArg("--epsilon", kind="float", default=0.5),),
        collect=lambda args: {"epsilon": args.epsilon},
        present=_approx_present,
        trace_collect=lambda args: (
            {"epsilon": args.epsilon} if args.epsilon is not None else {}
        ),
    ),
))


# ---------------------------------------------------------------------------
# girth / girth-approx — Lemma 7 / Theorem 5
# ---------------------------------------------------------------------------


def _girth_present(args, graph, outcome: RunOutcome) -> None:
    if args.epsilon is None:
        print(f"exact girth (Lemma 7) on {graph!r}")
    else:
        print(f"(x,1+{args.epsilon}) girth (Theorem 5) on {graph!r}")
    _print_cost(outcome.metrics)
    print(f"girth: {outcome.summary.girth}")


register(Protocol(
    name="girth",
    entry=core.run_exact_girth,
    vector_entry=vector.run_exact_girth,
    summarize=lambda s, req: {"girth": s.girth},
    capabilities=frozenset({"faults", "trace", "girth"}),
    smoke_graph="cycle:9",
    help="Lemma 7 / Theorem 5",
    cli=CliSpec(
        help="Lemma 7 / Theorem 5",
        args=(
            CliArg("--epsilon", kind="float",
                   help="approximate with this epsilon (omit for exact)"),
        ),
        collect=lambda args: (
            {"epsilon": args.epsilon} if args.epsilon is not None else {}
        ),
        select=lambda args: (
            "girth-approx" if args.epsilon is not None else "girth"
        ),
        present=_girth_present,
        trace_collect=lambda args: (
            {"epsilon": args.epsilon} if args.epsilon is not None else {}
        ),
    ),
))


register(Protocol(
    name="girth-approx",
    entry=core.run_approx_girth,
    summarize=lambda s, req: {
        "epsilon": req.params["epsilon"], "girth": s.girth,
    },
    schema=(
        ParamSpec("epsilon", kind="float", default=0.5,
                  help="approximation parameter (stretch 2(1+epsilon))"),
    ),
    capabilities=frozenset({"faults", "trace", "girth"}),
    smoke_graph="cycle:9",
    help="Theorem 5: approximate girth",
    # No ``present`` hook: the subcommand surface folds this into
    # ``repro girth --epsilon``; the spec only feeds ``trace run``.
    cli=CliSpec(
        help="Theorem 5: approximate girth",
        trace_collect=lambda args: (
            {"epsilon": args.epsilon} if args.epsilon is not None else {}
        ),
    ),
))


# ---------------------------------------------------------------------------
# two-vs-four — Algorithm 3 / Theorem 7
# ---------------------------------------------------------------------------


def _two_vs_four_graph(args):
    if args.graph:
        return parse_graph(args.graph)
    if args.family == "diameter2":
        return diameter_two_random(args.n, seed=args.seed)
    return diameter_four_blobs(args.n, seed=args.seed)


def _two_vs_four_present(args, graph, outcome: RunOutcome) -> None:
    summary = outcome.summary
    print(f"2-vs-4 (Algorithm 3 / Theorem 7) on {graph!r}")
    _print_cost(outcome.metrics)
    print(f"verdict: diameter {summary.diameter} "
          f"(branch: {summary.branch})")


register(Protocol(
    name="two-vs-four",
    entry=core.run_two_vs_four,
    summarize=lambda s, req: {
        "diameter": s.diameter, "branch": s.branch,
    },
    capabilities=frozenset({"faults", "trace"}),
    smoke_graph="diameter2:16:seed=1",
    help="Algorithm 3 / Theorem 7 (promise input)",
    cli=CliSpec(
        help="Algorithm 3 / Theorem 7 (promise input)",
        args=(
            CliArg("--graph", default=None),
            CliArg("--family", choices=("diameter2", "diameter4"),
                   default="diameter2"),
            CliArg("--n", kind="int", default=60),
        ),
        build_graph=_two_vs_four_graph,
        present=_two_vs_four_present,
    ),
))


# ---------------------------------------------------------------------------
# baseline — Section 3.1 strawmen
# ---------------------------------------------------------------------------

_BASELINE_VARIANTS = (
    "sequential-bfs", "distance-vector", "distance-vector-delta",
    "link-state",
)


def _baseline_present(args, graph, outcome: RunOutcome) -> None:
    from .registry import get

    summary = outcome.summary
    print(f"baseline '{args.algorithm}' APSP on {graph!r} (Section 3.1)")
    _print_cost(outcome.metrics)
    ours = get("apsp").execute(graph, {"seed": args.seed}).summary
    print(f"Algorithm 1 on the same graph: {ours.rounds} rounds "
          f"({summary.rounds / max(1, ours.rounds):.1f}x)")


register(Protocol(
    name="baseline",
    entry=core.run_baseline_apsp,
    summarize=lambda s, req: {
        "variant": req.params["variant"], **_diameter_radius(s),
    },
    schema=(
        ParamSpec("variant", kind="str", required=True,
                  choices=_BASELINE_VARIANTS,
                  example="distance-vector",
                  help="which Section 3.1 strawman to run"),
    ),
    capabilities=frozenset({"faults"}),
    help="Section 3.1 strawmen APSP",
    cli=CliSpec(
        help="Section 3.1 strawmen APSP",
        args=(
            CliArg("--algorithm", default="distance-vector",
                   choices=_BASELINE_VARIANTS),
        ),
        collect=lambda args: {"variant": args.algorithm},
        present=_baseline_present,
    ),
))


# ---------------------------------------------------------------------------
# leader — min-id election
# ---------------------------------------------------------------------------


def _leader_present(args, graph, outcome: RunOutcome) -> None:
    print(f"leader election on {graph!r}")
    _print_cost(outcome.metrics)
    print(f"leader: {outcome.result['leader']}")


register(Protocol(
    name="leader",
    entry=core.run_leader_election,
    summarize=lambda s, req: {
        "leader": next(iter(s[0].values())).leader,
    },
    metrics_of=lambda s: s[1],
    capabilities=frozenset({"faults", "trace"}),
    help="min-id leader election in O(n)",
    cli=CliSpec(
        help="min-id leader election in O(n)",
        present=_leader_present,
    ),
))


# ---------------------------------------------------------------------------
# Primitives and companions (registered for campaigns/benchmarks; no
# standalone subcommand — the campaign harness and ``trace run`` reach
# them).
# ---------------------------------------------------------------------------


register(Protocol(
    name="remark1",
    entry=core.run_remark1,
    summarize=lambda s, req: {
        "diameter_estimate":
            next(iter(s[0].values())).diameter_estimate,
        "radius_estimate":
            next(iter(s[0].values())).radius_estimate,
    },
    metrics_of=lambda s: s[1],
    capabilities=frozenset({"faults", "trace"}),
    help="Remark 1: single-BFS (x,2) estimator in O(D)",
))


register(Protocol(
    name="bfs",
    entry=core.run_bfs,
    vector_entry=vector.run_bfs,
    summarize=lambda s, req: {
        "ecc_root": next(iter(s[0].values())).ecc_root,
        "max_depth": max(r.depth for r in s[0].values()),
    },
    metrics_of=lambda s: s[1],
    capabilities=frozenset({"faults", "trace"}),
    help="one BFS + echo from node 1 in O(D)",
))


register(Protocol(
    name="tree-check",
    entry=core.run_tree_check,
    summarize=lambda s, req: {"is_tree": bool(s[0])},
    metrics_of=lambda s: s[1],
    capabilities=frozenset({"faults", "trace"}),
    help="Claim 1: tree test in O(D)",
))


register(Protocol(
    name="k-bfs",
    entry=core.run_k_bfs,
    summarize=lambda s, req: {
        "k": req.params["k"],
        "sources": sorted(req.params["sources"]),
        "max_table": max(len(r.distances) for r in s[0].values()),
    },
    metrics_of=lambda s: s[1],
    schema=(
        ParamSpec("sources", kind="int_list", required=True,
                  example=[1], help="source set of the partial BFS"),
        ParamSpec("k", kind="int", required=True, minimum=0,
                  example=2, help="depth cut-off (Definition 7)"),
    ),
    capabilities=frozenset({"faults"}),
    help="Definition 7: partial k-BFS trees from a source set",
))


register(Protocol(
    name="all-two-bfs",
    entry=core.run_all_two_bfs,
    summarize=lambda s, req: {
        "all_trees_complete":
            bool(next(iter(s[0].values())).all_trees_complete),
    },
    metrics_of=lambda s: s[1],
    capabilities=frozenset({"faults", "trace"}),
    help="Section 8: every node learns its 2-BFS tree",
))


register(Protocol(
    name="dominating-set",
    entry=core.run_dominating_set,
    summarize=lambda s, req: {
        "k": req.params["k"],
        "size": next(iter(s[0].values())).size,
    },
    metrics_of=lambda s: s[1],
    schema=(
        ParamSpec("k", kind="int", required=True, minimum=1,
                  example=2, help="domination radius (Lemma 10)"),
    ),
    capabilities=frozenset({"faults"}),
    help="Lemma 10: k-dominating set of size <= n/(k+1)",
))


register(Protocol(
    name="prt-diameter",
    entry=core.run_prt_diameter,
    summarize=lambda s, req: {"estimate": s.estimate},
    capabilities=frozenset({"faults", "trace"}),
    help="Section 3.6 companion: the (x,3/2) diameter estimator",
))


register(Protocol(
    name="pebble",
    entry=core.run_pebble_traversal,
    summarize=lambda s, req: {
        "visited": len(s[0]),
        "last_visit_round":
            max(r.first_visit_round for r in s[0].values()),
    },
    metrics_of=lambda s: s[1],
    capabilities=frozenset({"faults", "trace"}),
    help="pebble traversal of T_1 (Algorithm 1's scheduler)",
))


# ---------------------------------------------------------------------------
# weighted-apsp — the subdivision reduction as a first-class protocol
# ---------------------------------------------------------------------------


def _weighted_call(entry, req: RunRequest):
    weighted = deterministic_weights(
        req.graph, req.params["max_weight"],
        seed=req.params["weight_seed"],
    )
    return entry(weighted, **req.common.kwargs())


def _weighted_present(args, graph, outcome: RunOutcome) -> None:
    summary = outcome.summary
    print(f"weighted APSP (subdivision reduction) on {graph!r} "
          f"with W = {summary.max_weight}")
    _print_cost(outcome.metrics)
    print(f"weighted diameter: {summary.weighted_diameter()}   "
          f"expanded n: {summary.expanded_n}")


register(Protocol(
    name="weighted-apsp",
    entry=run_weighted_apsp,
    adapter=_weighted_call,
    summarize=lambda s, req: {
        "max_weight": s.max_weight,
        "expanded_n": s.expanded_n,
        "weighted_diameter": s.weighted_diameter(),
    },
    schema=(
        ParamSpec("max_weight", kind="int", default=4, minimum=1,
                  help="largest edge weight W (blow-up factor)"),
        ParamSpec("weight_seed", kind="int", default=0,
                  help="seed of the deterministic weight assignment"),
    ),
    capabilities=frozenset({"faults", "trace", "weighted"}),
    help="weighted APSP via the w-subdivision of every edge",
    cli=CliSpec(
        help="weighted APSP via the subdivision reduction",
        args=(
            CliArg("--max-weight", kind="int", default=4,
                   help="largest edge weight W"),
            CliArg("--weight-seed", kind="int", default=0,
                   help="seed of the weight assignment"),
        ),
        collect=lambda args: {
            "max_weight": args.max_weight,
            "weight_seed": args.weight_seed,
        },
        present=_weighted_present,
        trace_collect=lambda args: {},
    ),
))


# ---------------------------------------------------------------------------
# chaos — the hostile test protocol
# ---------------------------------------------------------------------------


def _chaos_run(graph, mode: str, seconds: float, **simulator_axes):
    """A deliberately hostile task for exercising harness hardening.

    Modes: ``ok`` (succeed with an empty metrics block), ``error``
    (raise :class:`TaskError`), ``hang`` (sleep ``seconds`` — pair it
    with the campaign timeout), ``crash`` (kill the worker process
    outright).  The graph and the simulator axes are ignored.  Real
    campaigns never use this; tests and the CI fault-smoke job use it
    to prove timeouts, retries and crash isolation work end to end.
    """
    if mode == "hang":
        time.sleep(seconds)
    elif mode == "crash":
        os._exit(13)
    elif mode == "error":
        raise TaskError("chaos task failed on purpose")
    elif mode != "ok":
        raise TaskError(f"unknown chaos mode {mode!r}")
    return {"mode": mode}, RunMetrics()


register(Protocol(
    name="chaos",
    entry=_chaos_run,
    summarize=lambda s, req: s[0],
    metrics_of=lambda s: s[1],
    schema=(
        ParamSpec("mode", kind="str", default="error",
                  example="ok",
                  help="ok | error | hang | crash"),
        ParamSpec("seconds", kind="float", default=3600.0,
                  help="hang duration (cap it with --timeout)"),
    ),
    help="hostile test protocol (timeouts, retries, crash isolation)",
))
