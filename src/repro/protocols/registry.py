"""The protocol registry: declare each algorithm once, run it anywhere.

A :class:`Protocol` bundles everything the rest of the codebase needs
to know about one algorithm:

* the ``core.run_*`` entry point (as a callable and as a dotted name
  for static drift checks),
* a typed parameter schema (:mod:`.params`) with coercion/validation,
* capability flags (``faults`` / ``trace`` / ``girth`` / ``weighted``),
* hooks turning the native summary into a JSON-pure result record, and
* optional CLI presentation metadata (:class:`CliSpec`).

Every consumer — the campaign harness, ``repro`` subcommands,
``repro trace run``, the benchmark suite and the experiments — goes
through the same :class:`RunRequest` → :class:`RunOutcome` envelope,
so an algorithm registered here is automatically available everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..congest.metrics import RunMetrics
from ..graphs.graph import Graph
from .errors import ParamError, TaskError
from .params import CommonParams, ParamSpec, split_common, validate_params

#: The capability vocabulary.  ``faults``: accepts fault injection;
#: ``trace``: drivable from ``repro trace run`` (all network-running
#: protocols also work under ``repro campaign --trace``); ``girth``:
#: computes girth information; ``weighted``: consumes weighted input
#: via the subdivision reduction; ``vector``: runnable on the numpy
#: round engine (:mod:`repro.vector`) via ``backend="vector"``.
CAPABILITIES = frozenset({"faults", "trace", "girth", "weighted", "vector"})


@dataclass(frozen=True)
class RunRequest:
    """One validated request to run a protocol on a graph."""

    graph: Graph
    #: Coerced protocol-specific params (defaults applied).
    params: Mapping[str, Any]
    #: The simulator-wide axes (seed / policy / bandwidth / faults).
    common: CommonParams = field(default_factory=CommonParams)


@dataclass(frozen=True)
class RunOutcome:
    """The uniform envelope every protocol run returns.

    ``summary`` is the native object the core entry point produced
    (for in-process callers: experiments, the CLI's presentation
    hooks); ``result`` is the small JSON-pure record the harness
    stores; ``metrics`` the run's cost counters.
    """

    protocol: str
    summary: Any
    result: Dict[str, Any]
    metrics: RunMetrics


def default_metrics_of(summary: Any) -> RunMetrics:
    """Default ``metrics_of`` hook: the summary's ``.metrics``."""
    return summary.metrics


@dataclass(frozen=True)
class CliArg:
    """One extra argparse flag a protocol's subcommand takes."""

    flag: str
    kind: str = "str"            # "int" | "float" | "str"
    default: Any = None
    required: bool = False
    choices: Optional[Tuple[str, ...]] = None
    help: str = ""


@dataclass(frozen=True)
class CliSpec:
    """How a protocol appears in the ``repro`` command tree.

    Only protocols carrying a ``CliSpec`` get a standalone run
    subcommand; the hooks keep the *presentation* (argument names,
    printed report) next to the protocol declaration so ``cli.py``
    stays a generic loop over the registry.
    """

    help: str
    args: Tuple[CliArg, ...] = ()
    #: Build the graph from parsed args; ``None`` = positional spec.
    build_graph: Optional[Callable[[Any], Graph]] = None
    #: Map parsed args to protocol params (default: no params).
    collect: Optional[Callable[[Any], Dict[str, Any]]] = None
    #: Redirect to a sibling protocol based on args (e.g. ``girth``
    #: with ``--epsilon`` runs ``girth-approx``).
    select: Optional[Callable[[Any], str]] = None
    #: Print the report; may return an exit code.
    present: Optional[Callable[[Any, Graph, RunOutcome], Optional[int]]] = None
    #: Map ``repro trace run`` args to protocol params.
    trace_collect: Optional[Callable[[Any], Dict[str, Any]]] = None


@dataclass(frozen=True)
class Protocol:
    """One registered algorithm (see module docstring)."""

    name: str
    #: Dotted location of the public entry point, e.g.
    #: ``"core.run_apsp"`` — the hook static drift checks key on.
    entry_point: str
    #: Execute the validated request; returns the native summary.
    run: Callable[[RunRequest], Any]
    #: Native summary → JSON-pure result dict (not called for
    #: degraded runs).
    summarize: Callable[[Any, RunRequest], Dict[str, Any]]
    #: Native summary → :class:`RunMetrics` (default: ``.metrics``).
    metrics_of: Callable[[Any], RunMetrics] = default_metrics_of
    schema: Tuple[ParamSpec, ...] = ()
    capabilities: FrozenSet[str] = frozenset()
    #: Cross-parameter validation (e.g. "either sources or
    #: num_sources"); runs at spec-expansion *and* task time.
    check: Optional[Callable[[Dict[str, Any]], None]] = None
    #: Graph spec the completeness test drives a minimal run on.
    smoke_graph: str = "path:6"
    help: str = ""
    cli: Optional[CliSpec] = None
    #: Execute the validated request on the numpy round engine.  Set
    #: exactly when the ``vector`` capability is declared.
    vector_run: Optional[Callable[[RunRequest], Any]] = None
    #: Dotted location of the vector twin, e.g. ``"vector.run_apsp"``
    #: — the hook static drift checks key on.
    vector_entry_point: Optional[str] = None

    def __post_init__(self) -> None:
        extra = self.capabilities - CAPABILITIES
        if extra:
            raise ValueError(
                f"protocol {self.name!r}: unknown capabilities "
                f"{sorted(extra)}; expected a subset of "
                f"{sorted(CAPABILITIES)}"
            )
        has_vector = "vector" in self.capabilities
        if has_vector != (
            self.vector_run is not None
            and self.vector_entry_point is not None
        ):
            raise ValueError(
                f"protocol {self.name!r}: the 'vector' capability and "
                f"the vector_run/vector_entry_point hooks must be "
                f"declared together"
            )

    def available_backends(self) -> Tuple[str, ...]:
        """The backends this protocol can actually run on right now.

        ``vector`` is reported only when the protocol declares the
        capability *and* numpy is installed — this is what the CLI and the
        capability listings surface.
        """
        from ..vector import unsupported

        if "vector" in self.capabilities and unsupported() is None:
            return ("object", "vector")
        return ("object",)

    def _check_backend(self, common: CommonParams) -> None:
        if common.backend != "vector":
            return
        if "vector" not in self.capabilities:
            vector_capable = sorted(
                p.name for p in _REGISTRY.values()
                if "vector" in p.capabilities
            )
            raise ParamError(
                f"{self.name}: backend 'vector' is not supported by "
                f"this protocol; vector-capable protocols: "
                f"{vector_capable}"
            )
        from ..vector import unsupported

        reason = unsupported(faults=common.faults, policy=common.policy)
        if reason is not None:
            raise ParamError(f"{self.name}: {reason}")

    def request(
        self, graph: Graph, params: Optional[Mapping[str, Any]] = None
    ) -> RunRequest:
        """Validate raw params into a :class:`RunRequest`."""
        common, rest = split_common(self.name, params or {})
        self._check_backend(common)
        coerced = validate_params(self.name, self.schema, rest)
        if self.check is not None:
            self.check(coerced)
        return RunRequest(graph=graph, params=coerced, common=common)

    def check_params(self, params: Mapping[str, Any]) -> None:
        """Schema-validate ``params`` without running anything.

        This is the spec-expansion entry point: campaign specs call it
        for every expanded task so malformed parameters are rejected
        before any worker spawns.  The ``trace`` marker the harness
        merges into traced tasks is tolerated here (it is a pipeline
        flag, not an algorithm parameter).
        """
        rest = dict(params)
        rest.pop("trace", None)
        common, rest = split_common(self.name, rest)
        self._check_backend(common)
        coerced = validate_params(self.name, self.schema, rest)
        if self.check is not None:
            self.check(coerced)

    def execute(
        self, graph: Graph, params: Optional[Mapping[str, Any]] = None
    ) -> RunOutcome:
        """Run the full envelope: validate → run → summarize.

        When injected faults crashed or stalled nodes, the run's
        results are partial and the aggregate summaries undefined, so
        the result carries a ``degraded`` marker (with the counts)
        instead of possibly-wrong aggregates; ``summarize`` is only
        called for clean runs.
        """
        request = self.request(graph, params)
        if request.common.backend == "vector":
            summary = self.vector_run(request)
        else:
            summary = self.run(request)
        metrics = self.metrics_of(summary)
        if metrics.nodes_crashed or metrics.nodes_stalled:
            result: Dict[str, Any] = {
                "degraded": True,
                "nodes_crashed": metrics.nodes_crashed,
                "nodes_stalled": metrics.nodes_stalled,
            }
        else:
            result = self.summarize(summary, request)
        return RunOutcome(
            protocol=self.name, summary=summary, result=result,
            metrics=metrics,
        )


#: name → protocol, in registration order.
_REGISTRY: Dict[str, Protocol] = {}


def register(protocol: Protocol) -> Protocol:
    """Add a protocol to the registry (names must be unique)."""
    if protocol.name in _REGISTRY:
        raise ValueError(
            f"protocol {protocol.name!r} is already registered"
        )
    _REGISTRY[protocol.name] = protocol
    return protocol


def _ensure_builtin() -> None:
    from . import builtin  # noqa: F401  (import for side effects)


def get(name: str) -> Protocol:
    """Look up a protocol by name, or raise :class:`TaskError`."""
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise TaskError(
            f"unknown algorithm {name!r}; available: {names()}"
        )


def names() -> List[str]:
    """All registered protocol names, sorted."""
    _ensure_builtin()
    return sorted(_REGISTRY)


def protocols() -> Tuple[Protocol, ...]:
    """All registered protocols, in registration order."""
    _ensure_builtin()
    return tuple(_REGISTRY.values())


def run(
    name: str,
    graph: Graph,
    params: Optional[Mapping[str, Any]] = None,
    **common: Any,
) -> RunOutcome:
    """Convenience wrapper: ``run("apsp", g, seed=3)``.

    ``common`` keywords (``seed``/``policy``/``bandwidth_bits``/
    ``faults``) are merged over ``params``; experiments and benchmarks
    use this to invoke algorithms through the envelope without
    touching any hand-written dispatch table.
    """
    merged = dict(params or {})
    merged.update(common)
    return get(name).execute(graph, merged)
