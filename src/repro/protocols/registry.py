"""The protocol registry: declare each algorithm once, run it anywhere.

A :class:`Protocol` bundles everything the rest of the codebase needs
to know about one algorithm:

* the engine functions themselves: the ``core.run_*`` entry point
  and, where one exists, its numpy twin in :mod:`repro.vector`,
* a typed parameter schema (:mod:`.params`) with coercion/validation,
  whose names are the entry point's keywords,
* capability flags (``faults`` / ``trace`` / ``girth`` / ``weighted``,
  and the derived ``vector``),
* hooks turning the native summary into a JSON-pure result record, and
* optional CLI presentation metadata (:class:`CliSpec`).

Every consumer — the campaign harness, ``repro`` subcommands,
``repro trace run``, the benchmark suite and the experiments — goes
through the same :class:`RunRequest` → :class:`RunOutcome` envelope,
so an algorithm registered here is automatically available everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
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
#: round engine (:mod:`repro.vector`) via ``backend="vector"`` —
#: derived, not declared: a protocol has it exactly when it sets
#: ``vector_entry``.
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


def call_entry(entry: Callable[..., Any], req: RunRequest) -> Any:
    """Default ``adapter``: the schema's params are ``entry``'s keywords."""
    return entry(req.graph, **req.params, **req.common.kwargs())


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
    """One registered algorithm (see module docstring).

    ``run`` and ``vector_run`` are derived from the declaration: each
    is ``adapter`` bound to one engine function, and ``vector_run`` is
    ``None`` when there is no numpy twin.
    """

    name: str
    #: The engine function, e.g. ``core.run_apsp``.
    entry: Callable[..., Any]
    #: Native summary → JSON-pure result dict (not called for
    #: degraded runs).
    summarize: Callable[[Any, RunRequest], Dict[str, Any]]
    #: The numpy twin of ``entry``, e.g. ``vector.run_apsp``; setting it
    #: is what gives the protocol the ``vector`` capability.
    vector_entry: Optional[Callable[..., Any]] = None
    #: ``adapter(engine_function, request)`` runs a validated request
    #: on either engine (default: :func:`call_entry`).
    adapter: Callable[[Callable[..., Any], RunRequest], Any] = call_entry
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
    #: Execute the validated request on the object engine.
    run: Callable[[RunRequest], Any] = field(
        init=False, repr=False, compare=False
    )
    #: Execute the validated request on the numpy round engine.
    vector_run: Optional[Callable[[RunRequest], Any]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        extra = self.capabilities - CAPABILITIES
        if extra:
            raise ValueError(
                f"protocol {self.name!r}: unknown capabilities "
                f"{sorted(extra)}; expected a subset of "
                f"{sorted(CAPABILITIES)}"
            )
        capabilities = self.capabilities - {"vector"}
        vector_run = None
        if self.vector_entry is not None:
            capabilities |= {"vector"}
            vector_run = partial(self.adapter, self.vector_entry)
        object.__setattr__(self, "capabilities", capabilities)
        object.__setattr__(self, "run", partial(self.adapter, self.entry))
        object.__setattr__(self, "vector_run", vector_run)

    def available_backends(self) -> Tuple[str, ...]:
        """The backends this protocol can actually run on right now.

        ``vector`` is reported only when the protocol has a vector twin
        *and* numpy is installed — this is what the CLI and the
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
        """Validate ``params`` as :meth:`request` does, running nothing.

        This is the spec-expansion entry point: campaign specs call it
        for every expanded task so malformed parameters are rejected
        before any worker spawns.  The ``trace`` marker the harness
        merges into traced tasks is tolerated here (it is a pipeline
        flag, not an algorithm parameter).  No graph is needed: none
        takes part in validation.
        """
        rest = dict(params)
        rest.pop("trace", None)
        self.request(None, rest)

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
