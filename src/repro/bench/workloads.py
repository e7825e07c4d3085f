"""Pinned microbenchmark workloads.

Each :class:`Workload` names one registered protocol on a fixed graph
spec and seed, so every benchmark invocation — today, on CI, or three
PRs from now — measures exactly the same simulation.  Two scales exist:

* **full** — the recorded sizes (``bench_apsp`` is ``n = 128``, the
  graph perfbench's ``run-object`` workload runs at seed 1);
* **quick** — small instances for CI smoke runs and local sanity checks
  (``repro bench --quick``).

Dispatch goes through :mod:`repro.protocols` — a workload's
``algorithm`` is a registry name, so any newly registered protocol is
benchmarkable without touching this module.

Determinism is part of the contract: a workload's rounds/messages/bits
must be identical on every repeat, and the runner asserts that.  They
must also equal the workload's *pins*, the committed
``(rounds, messages, bits)`` written next to each scale's graph spec,
on every backend; ``repro bench`` exits 1 on any difference.  Only
wall time and RSS may vary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..graphs.specs import parse_graph
from ..protocols import TaskError, get as get_protocol
from ..protocols import run as run_protocol


@dataclass(frozen=True)
class Workload:
    """One pinned benchmark: a protocol on a fixed graph spec and seed."""

    name: str
    algorithm: str
    #: Graph spec at full scale.
    graph: str
    #: Committed ``(rounds, messages, bits)`` at full scale.
    pins: Tuple[int, int, int]
    #: Graph spec at quick (smoke) scale.
    quick_graph: str
    #: Committed ``(rounds, messages, bits)`` at quick scale.
    quick_pins: Tuple[int, int, int]
    seed: int = 0
    #: Source ids for S-SP; ids absent from the (smaller) quick graph
    #: are filtered out here, before the registry validates.
    sources: Tuple[int, ...] = ()
    #: Extra protocol params as sorted ``(key, value)`` pairs.
    params: Tuple[Tuple[str, Any], ...] = ()
    #: Execution engine (``object`` or ``vector``); the registry
    #: validates availability and capability at dispatch time.
    backend: str = "object"

    def graph_spec(self, quick: bool) -> str:
        """The spec measured at the requested scale."""
        return self.quick_graph if quick else self.graph

    def pinned(self, quick: bool) -> Tuple[int, int, int]:
        """The committed counters at the requested scale."""
        return self.quick_pins if quick else self.pins

    def _params(self, graph=None) -> Dict[str, Any]:
        params: Dict[str, Any] = dict(self.params)
        if self.sources:
            params["sources"] = [
                s for s in self.sources
                if graph is None or graph.has_node(s)
            ]
        if self.backend != "object":
            params["backend"] = self.backend
        return params

    def check(self) -> None:
        """Have the registry validate this workload, running nothing.

        A protocol without a twin on the workload's backend fails here,
        with the registry's rejection, before any workload is timed.
        """
        try:
            get_protocol(self.algorithm).check_params(self._params())
        except TaskError as exc:
            raise ValueError(f"workload {self.name!r}: {exc}")

    def run(self, quick: bool):
        """Execute once; returns the run's :class:`RunMetrics`."""
        graph = parse_graph(self.graph_spec(quick))
        try:
            outcome = run_protocol(
                self.algorithm, graph, self._params(graph), seed=self.seed
            )
        except TaskError as exc:
            raise ValueError(
                f"workload {self.name!r}: {exc}"
            )
        return outcome.metrics


#: The pinned suite, in execution order: one workload per core entry
#: point.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="bench_apsp",
            algorithm="apsp",
            graph="er:128:p=0.06:seed=1",
            pins=(408, 109_090, 2_180_784),
            quick_graph="er:32:p=0.15:seed=1",
            quick_pins=(115, 4_424, 70_660),
        ),
        Workload(
            name="bench_ssp",
            algorithm="ssp",
            graph="er:96:p=0.07:seed=2",
            pins=(25, 3_719, 68_652),
            quick_graph="er:32:p=0.15:seed=2",
            quick_pins=(28, 576, 9_712),
            sources=(1, 17, 33, 49),
        ),
        Workload(
            name="bench_two_vs_four",
            algorithm="two-vs-four",
            graph="diameter2:96:seed=1",
            pins=(53, 141_622, 2_552_426),
            quick_graph="diameter2:32:seed=1",
            quick_pins=(37, 4_320, 70_360),
        ),
        Workload(
            name="bench_girth",
            algorithm="girth",
            graph="torus:8x12",
            pins=(414, 19_764, 357_462),
            quick_graph="torus:4x6",
            quick_pins=(143, 1_476, 21_170),
        ),
        Workload(
            name="bench_weighted",
            algorithm="weighted-apsp",
            graph="torus:4x6",
            pins=(223, 6_748, 114_468),
            quick_graph="path:8",
            quick_pins=(119, 308, 4_004),
            params=(("max_weight", 3),),
        ),
    )
}


#: Large-n workloads that only the vector backend can run in sensible
#: time.  Kept out of the default suite — ``select(None)`` must stay
#: runnable in a numpy-free environment — and benchmarked explicitly
#: via ``repro bench --workloads bench_apsp_n512,...``.  The n = 512
#: full-scale pins are also the object engine's (``--backend object``).
LARGE_WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="bench_apsp_n512",
            algorithm="apsp",
            graph="er:512:p=0.02:seed=1",
            pins=(1_560, 2_448_957, 58_768_836),
            quick_graph="er:128:p=0.06:seed=1",
            quick_pins=(408, 109_090, 2_180_784),
            backend="vector",
        ),
        Workload(
            name="bench_apsp_n1024",
            algorithm="apsp",
            graph="er:1024:p=0.01:seed=1",
            pins=(3_096, 9_554_230, 248_395_658),
            quick_graph="er:160:p=0.05:seed=1",
            quick_pins=(499, 190_837, 3_815_468),
            backend="vector",
        ),
        Workload(
            name="bench_apsp_n2048",
            algorithm="apsp",
            graph="er:2048:p=0.005:seed=1",
            pins=(6_168, 37_434_334, 1_048_128_600),
            quick_graph="er:192:p=0.05:seed=1",
            quick_pins=(600, 288_263, 5_763_732),
            backend="vector",
        ),
        Workload(
            name="bench_ssp_n512",
            algorithm="ssp",
            graph="er:512:p=0.02:seed=2",
            pins=(31, 34_546, 841_368),
            quick_graph="er:128:p=0.06:seed=2",
            quick_pins=(23, 3_603, 74_600),
            sources=(1, 65, 129, 257, 385),
            backend="vector",
        ),
        Workload(
            name="bench_ssp_n1024",
            algorithm="ssp",
            graph="er:1024:p=0.01:seed=2",
            pins=(31, 71_005, 1_872_728),
            quick_graph="er:160:p=0.05:seed=2",
            quick_pins=(28, 4_404, 91_260),
            sources=(1, 129, 257, 513, 769),
            backend="vector",
        ),
        Workload(
            name="bench_ssp_n2048",
            algorithm="ssp",
            graph="er:2048:p=0.005:seed=2",
            pins=(36, 140_409, 3_988_768),
            quick_graph="er:192:p=0.05:seed=2",
            quick_pins=(27, 4_224, 88_300),
            sources=(1, 257, 513, 1025, 1537),
            backend="vector",
        ),
    )
}

#: Every addressable workload (default suite + large-n extras).
ALL_WORKLOADS: Dict[str, Workload] = {**WORKLOADS, **LARGE_WORKLOADS}


def select(names=None) -> Tuple[Workload, ...]:
    """Resolve a workload subset (``None`` = the default suite, in order).

    The large-n vector workloads are opt-in by name only: the default
    suite must keep running on a numpy-free install.
    """
    if names is None:
        return tuple(WORKLOADS.values())
    unknown = [name for name in names if name not in ALL_WORKLOADS]
    if unknown:
        raise ValueError(
            f"unknown workload(s) {unknown}; expected a subset of "
            f"{sorted(ALL_WORKLOADS)}"
        )
    return tuple(ALL_WORKLOADS[name] for name in names)
