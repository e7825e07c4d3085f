"""The distance-query service core (transport-independent).

:class:`DistanceService` owns the loaded graphs, the two-tier
:class:`~repro.serve.cache.MatrixCache`, the serve counters, and the
merging of protocol results into that cache.  It is deliberately
synchronous and never runs a protocol itself: the HTTP routes
(:mod:`repro.serve.server`) call its validation and cache lookups from
the event loop and route cold misses through the asyncio batcher
(:mod:`repro.serve.batch`) into the supervised worker pool
(:mod:`repro.serve.supervisor`).

There is one compute path.  A cold miss becomes a pickle-pure *job*
(:func:`rows_job`, :func:`full_job`); :func:`run_job` runs it against a
graph in a worker process, and :meth:`DistanceService.merge` folds the
result into the stats and the cache in the server process.

Two query backends exist:

* ``apsp`` — unweighted hop distance.  Point and eccentricity queries
  are served by **batched Algorithm 2 runs**: the cold sources that
  arrive while every pool worker is busy become one S-SP source set,
  so ``k`` overlapping queries cost ``|S| + D + O(1)`` rounds instead
  of ``k·(D + O(1))``.
  Diameter queries need every row and run Algorithm 1 once.
* ``weighted-apsp`` — the subdivision reduction.  It has no partial
  engine, so any miss computes (and memoizes) the full matrix.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional

from .. import protocols
from ..congest.errors import GraphError
from ..core.engine import validate_apsp_input
from ..graphs.graph import Graph
from ..graphs.specs import GraphSpecError, parse_graph
from ..harness.cache import RunCache
from .cache import DEFAULT_MAX_BYTES, MatrixCache
from .matrix import DistanceMatrix, QueryFamily, rows_from_ssp_summary
from .stats import ServeStats


class QueryError(ValueError):
    """A malformed or unanswerable query (HTTP 400)."""


@dataclass(frozen=True)
class _Backend:
    """How one protocol family maps onto matrix construction."""

    #: Registry protocol computing the complete matrix.
    full_protocol: str
    #: Native summary → ``{source: {target: distance}}`` rows.
    rows_of: Callable[[Any], Dict[int, Dict[int, int]]]
    #: Registry protocol computing a batch of rows (``None`` = full
    #: runs only).
    row_protocol: Optional[str]
    #: Parameter names queries may set for this backend.
    param_names: FrozenSet[str]


BACKENDS: Dict[str, _Backend] = {
    "apsp": _Backend(
        full_protocol="apsp",
        rows_of=lambda s: {
            u: dict(r.distances.items()) for u, r in s.results.items()
        },
        row_protocol="ssp",
        param_names=frozenset(),
    ),
    "weighted-apsp": _Backend(
        full_protocol="weighted-apsp",
        rows_of=lambda s: {u: dict(row) for u, row in s.distances.items()},
        row_protocol=None,
        param_names=frozenset({"max_weight", "weight_seed"}),
    ),
}


def sequential_rounds_estimate(batch_size: int, batch_rounds: int) -> int:
    """Rounds the batch's queries would have cost as singleton runs.

    Theorem 3 prices an S-SP run at ``|S| + D + O(1)`` rounds, so a
    single-source run over the same graph costs about
    ``batch_rounds - (|S| - 1)``; one run per query multiplies that by
    ``|S|``.  This is the denominator of the batching win the ``/stats``
    endpoint reports (the batching tests validate it against *actual*
    per-query runs).
    """
    singleton = max(1, batch_rounds - (batch_size - 1))
    return batch_size * singleton


def rows_job(family: QueryFamily, sources: List[int]) -> Dict[str, Any]:
    """The job computing ``sources``' rows in one batched run.

    For ``apsp`` that is a single Algorithm 2 run whose source set is
    the whole batch; backends without a row engine compute the full
    matrix instead (which answers the batch a fortiori).
    """
    if BACKENDS[family.protocol].row_protocol is None:
        return full_job(family)
    return {
        "kind": "rows",
        "family": family.payload(),
        "sources": sorted(set(sources)),
    }


def full_job(family: QueryFamily) -> Dict[str, Any]:
    """The job computing the complete matrix."""
    return {"kind": "full", "family": family.payload()}


def run_job(job: Mapping[str, Any], graph: Graph) -> Dict[str, Any]:
    """Run one compute job on ``graph``; returns a pickle-pure result.

    ``kind`` ``rows`` and ``full`` return ``{"rows", "rounds"}``,
    ``approx-diameter`` (the 2-vs-4 classification) returns
    ``{"diameter", "rounds"}``.  Protocols run through the module
    attribute ``protocols.run``, looked up per call, so a wrapper
    installed on it before the pool forks also sees worker runs.
    """
    family = job["family"]
    kind = job["kind"]
    backend = BACKENDS[family["protocol"]]
    engine = family.get("backend", "object")
    if kind == "rows":
        protocol, params = backend.row_protocol, {"sources": job["sources"]}
    elif kind == "full":
        protocol, params = backend.full_protocol, dict(family["params"])
    elif kind == "approx-diameter":
        protocol, params, engine = "two-vs-four", {}, "object"
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    outcome = protocols.run(
        protocol, graph, params,
        seed=family["seed"], policy=family["policy"], backend=engine,
    )
    rounds = outcome.metrics.rounds
    if kind == "rows":
        rows = rows_from_ssp_summary(outcome.summary, job["sources"])
    elif kind == "full":
        rows = backend.rows_of(outcome.summary)
    else:
        return {"diameter": outcome.summary.diameter, "rounds": rounds}
    return {"rows": rows, "rounds": rounds}


def _check_params(protocol: str, params: Mapping[str, Any]) -> None:
    """The registry's own parameter check; a rejection is a 400."""
    try:
        protocols.get(protocol).check_params(params)
    except protocols.ParamError as exc:
        raise QueryError(str(exc))


class DistanceService:
    """Graphs loaded once, queries validated, matrices memoized."""

    def __init__(
        self,
        *,
        cache_dir: Optional[str] = None,
        max_matrix_bytes: int = DEFAULT_MAX_BYTES,
        seed: int = 0,
        policy: str = "strict",
        backend: str = "object",
    ) -> None:
        # A bad seed, policy or backend would fail every cold query;
        # reject it here, before a server built on it reports ready.
        _check_params(
            "apsp", {"seed": seed, "policy": policy, "backend": backend}
        )
        self.seed = seed
        self.policy = policy
        self.backend = backend
        self.stats = ServeStats()
        self.cache = MatrixCache(
            max_bytes=max_matrix_bytes,
            run_cache=None if cache_dir is None else RunCache(cache_dir),
        )
        self._graphs: Dict[str, Graph] = {}
        #: Guards cache/graph structures against callers on other
        #: threads (e.g. a test beside a ServerThread).  Never held
        #: during a run.
        self._lock = threading.RLock()

    # -- graphs ------------------------------------------------------------

    def load_graph(self, spec: str) -> Graph:
        """Load (once), validate and return the graph named by ``spec``."""
        with self._lock:
            graph = self._graphs.get(spec)
            if graph is None:
                try:
                    graph = parse_graph(spec)
                    validate_apsp_input(graph)
                except (GraphSpecError, GraphError, OSError) as exc:
                    # GraphError/OSError cover bad or missing file:
                    # specs and graphs no protocol can run on (no node
                    # 1, disconnected) — client errors, not server faults.
                    raise QueryError(str(exc))
                self._graphs[spec] = graph
            return graph

    def graphs(self) -> List[Dict[str, Any]]:
        """Summaries of every loaded graph (the ``/graphs`` payload)."""
        with self._lock:
            return [
                {"spec": spec, "n": g.n, "m": g.m}
                for spec, g in sorted(self._graphs.items())
            ]

    # -- validation --------------------------------------------------------

    def family_for(
        self,
        graph_spec: str,
        protocol: str = "apsp",
        params: Optional[Mapping[str, Any]] = None,
    ) -> QueryFamily:
        """Validate query axes into a :class:`QueryFamily`.

        The params go through the registry's schema check with the
        service's seed, policy and backend, so a malformed one is a
        400 here rather than a failed compute that marks the family
        failing.
        """
        serve_backend = BACKENDS.get(protocol)
        if serve_backend is None:
            raise QueryError(
                f"unknown serve protocol {protocol!r}; available: "
                f"{sorted(BACKENDS)}"
            )
        params = dict(params or {})
        unknown = set(params) - serve_backend.param_names
        if unknown:
            raise QueryError(
                f"protocol {protocol!r} does not take parameters "
                f"{sorted(unknown)} (allowed: "
                f"{sorted(serve_backend.param_names) or 'none'})"
            )
        _check_params(serve_backend.full_protocol, {
            **params,
            "seed": self.seed, "policy": self.policy,
            "backend": self.backend,
        })
        return QueryFamily.make(
            graph_spec, protocol, params,
            seed=self.seed, policy=self.policy, backend=self.backend,
        )

    def check_node(self, family: QueryFamily, node: int, what: str) -> None:
        """Reject ``node`` unless it is a node of ``family``'s graph."""
        graph = self.load_graph(family.graph_spec)
        if not graph.has_node(node):
            raise QueryError(
                f"{what} {node} is not a node of the graph "
                f"(n={graph.n})"
            )

    # -- cache-only lookups (cheap; safe on the event loop) ----------------

    def lookup_row(self, family: QueryFamily, source: int) -> Optional[str]:
        """Tiered row lookup without computing: tier name or ``None``."""
        graph = self.load_graph(family.graph_spec)
        with self._lock:
            return self.cache.load_row(family, graph.n, source)

    def lookup_full(self, family: QueryFamily) -> Optional[str]:
        """Tiered full-matrix lookup without computing."""
        graph = self.load_graph(family.graph_spec)
        with self._lock:
            return self.cache.load_full(family, graph.n)

    def matrix(self, family: QueryFamily) -> DistanceMatrix:
        """The resident matrix for ``family`` (created empty)."""
        graph = self.load_graph(family.graph_spec)
        with self._lock:
            return self.cache.matrix(family, graph.n)

    # -- merging computed results ------------------------------------------

    def merge(
        self,
        family: QueryFamily,
        job: Mapping[str, Any],
        result: Mapping[str, Any],
    ) -> DistanceMatrix:
        """Fold a ``rows``/``full`` job's result into stats and cache."""
        graph = self.load_graph(family.graph_spec)
        rounds = result["rounds"]
        self.stats.observe_protocol_run()
        if job["kind"] == "full":
            with self._lock:
                return self.cache.store_full(
                    family, graph.n, result["rows"], rounds=rounds
                )
        size = len(job["sources"])
        self.stats.observe_batch(
            size, rounds, sequential_rounds_estimate(size, rounds)
        )
        with self._lock:
            return self.cache.store_rows(
                family, graph.n, result["rows"], rounds=rounds
            )
