"""Declarative sweep specs and their expansion into run tasks.

A campaign is a cartesian sweep::

    graph family × size × seed × algorithm × bandwidth policy

declared as a plain dict (or JSON file) and expanded into an ordered
list of independent :class:`Task` descriptors.  Tasks are pure data —
a graph spec string, an algorithm name, a params dict — so they can be
hashed for the run cache, pickled to worker processes, and replayed
bit-for-bit later.

Spec format (all axes optional except ``graphs``)::

    {
      "name": "apsp-sweep",            // campaign label
      "graphs": ["path:{n}", "torus:6x6"],
      "sizes": [30, 60, 90],           // fills the {n} placeholder
      "seeds": [0, 1, 2],              // per-task simulator seed
      "algorithms": ["approx", "girth-approx"],
      "policies": ["strict"],          // bandwidth policy axis
      "params": {"epsilon": 0.5},      // extra args for every task;
                                       // validated at expansion against
                                       // each algorithm's schema
      "salt": "",                      // extra cache-key salt
      "faults": {"drop_rate": 0.02}    // optional fault injection
    }

Graph entries without a ``{n}`` placeholder name a fixed topology and
appear once, not once per size.  Expansion order is deterministic:
algorithms × graphs × sizes × seeds × policies, in the order written.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..graphs import specs as graph_specs
from .hashing import task_key


class SpecError(ValueError):
    """A campaign spec is malformed."""


def _normalize_faults(value: Any) -> Optional[Dict[str, Any]]:
    """Validate a spec-level fault description, canonicalized.

    Accepts ``None``, a :class:`~repro.congest.faults.FaultSpec`, or a
    plain mapping in ``FaultSpec.to_dict`` form (parsed by
    :func:`repro.protocols.params.fault_spec`, as a run's are).
    Returns the canonical dict form (so cache keys are independent of
    how the faults were spelled), or ``None`` for no-op fault specs — a
    campaign with ``{"drop_rate": 0}`` keys identically to one with no
    faults at all.
    """
    if value is None:
        return None
    from ..protocols.params import fault_spec

    try:
        spec = fault_spec(value)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad 'faults' spec: {exc}")
    return None if spec.is_noop else spec.to_dict()


def _normalize_backend(
    value: Any, *, faults: Any, trace: bool
) -> str:
    """Validate a spec-level backend choice against the environment.

    Rejecting ``"vector"`` here — unknown name, or a request the vector
    engine cannot run (:func:`repro.vector.unsupported`) — means a bad
    campaign dies with one actionable :class:`SpecError` before any
    worker spawns, instead of n failing tasks.
    """
    from ..protocols.params import BACKENDS
    from ..vector import unsupported

    backend = str(value)
    if backend not in BACKENDS:
        raise SpecError(
            f"unknown backend {backend!r}; expected one of {list(BACKENDS)}"
        )
    if backend == "vector":
        reason = unsupported(faults=faults, trace=trace)
        if reason is not None:
            raise SpecError(reason)
    return backend


def _freeze(value: Any) -> Any:
    """Recursively convert a params value into a hashable constant."""
    if isinstance(value, Mapping):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze` back into JSON-pure types."""
    if isinstance(value, tuple):
        if value and all(
            isinstance(item, tuple) and len(item) == 2
            and isinstance(item[0], str)
            for item in value
        ):
            return {k: _thaw(v) for k, v in value}
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class Task:
    """One independent unit of work: run ``algorithm`` on ``graph``.

    ``params`` is stored frozen (sorted key/value tuples) so tasks are
    hashable and safely deduplicated; use :meth:`param_dict` to read it.
    """

    graph: str
    algorithm: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls,
        graph: str,
        algorithm: str,
        params: Optional[Mapping[str, Any]] = None,
    ) -> "Task":
        """Build a task from a plain params mapping."""
        frozen = tuple(
            sorted((k, _freeze(v)) for k, v in (params or {}).items())
        )
        return cls(graph=graph, algorithm=algorithm, params=frozen)

    def param_dict(self) -> Dict[str, Any]:
        """The params as a plain (JSON-pure) dict."""
        return {k: _thaw(v) for k, v in self.params}

    def payload(self) -> Dict[str, Any]:
        """Deterministic JSON-pure description (the cache-key input)."""
        return {
            "graph": self.graph,
            "algorithm": self.algorithm,
            "params": self.param_dict(),
        }

    def key(self, *, salt: str = "") -> str:
        """Content address of this task (see :mod:`.hashing`)."""
        return task_key(self.payload(), salt=salt)


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative sweep over the task axes (see module docstring)."""

    name: str = "campaign"
    graphs: Sequence[str] = ()
    sizes: Sequence[int] = ()
    seeds: Sequence[int] = (0,)
    algorithms: Sequence[str] = ("apsp",)
    policies: Sequence[str] = ("strict",)
    params: Mapping[str, Any] = field(default_factory=dict)
    salt: str = ""
    #: Canonical fault-injection dict applied to every task, or None.
    faults: Optional[Mapping[str, Any]] = None
    #: Record a repro-trace/1 summary per task (docs/observability.md).
    trace: bool = False
    #: Which engine runs every task: "object" (default) or "vector".
    #: Only ``"vector"`` is written into task params, so object-backend
    #: cache keys are unchanged from before the field existed.
    backend: str = "object"

    _FIELDS = (
        "name", "graphs", "sizes", "seeds", "algorithms", "policies",
        "params", "salt", "faults", "trace", "backend",
    )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Validate and build a spec from a plain dict.

        Absent fields take the defaults declared on this class, the
        only place they are written.
        """
        unknown = set(data) - set(cls._FIELDS)
        if unknown:
            raise SpecError(
                f"unknown spec fields {sorted(unknown)}; "
                f"expected a subset of {list(cls._FIELDS)}"
            )
        given = cls(**data)
        graphs = list(given.graphs)
        if not graphs:
            raise SpecError("spec needs a non-empty 'graphs' list")
        try:
            sizes = [int(n) for n in given.sizes]
            seeds = [int(s) for s in given.seeds]
        except (TypeError, ValueError) as exc:
            raise SpecError(f"'sizes' and 'seeds' must be integers ({exc})")
        needs_sizes = any(
            graph_specs.has_size_placeholder(g) for g in graphs
        )
        if needs_sizes and not sizes:
            raise SpecError(
                "spec uses a {n} placeholder but provides no 'sizes'"
            )
        if not seeds:
            raise SpecError("'seeds' must not be empty")
        params = dict(given.params)
        for reserved in ("seed", "policy", "faults", "trace", "backend"):
            if reserved in params:
                where = (
                    "a sweep axis" if reserved in ("seed", "policy")
                    else "a top-level spec field"
                )
                raise SpecError(
                    f"'{reserved}' is {where}, not a shared param"
                )
        faults = _normalize_faults(given.faults)
        trace = bool(given.trace)
        backend = _normalize_backend(
            given.backend, faults=faults, trace=trace
        )
        algorithms = list(given.algorithms)
        if not algorithms:
            raise SpecError("'algorithms' must not be empty")
        from ..protocols import names as protocol_names

        unknown_algorithms = [
            a for a in algorithms if a not in protocol_names()
        ]
        if unknown_algorithms:
            raise SpecError(
                f"unknown algorithm(s) {unknown_algorithms}; "
                f"available: {protocol_names()}"
            )
        return cls(
            name=str(given.name),
            graphs=graphs,
            sizes=sizes,
            seeds=seeds,
            algorithms=algorithms,
            policies=list(given.policies),
            params=params,
            salt=str(given.salt),
            faults=faults,
            trace=trace,
            backend=backend,
        )

    def expand(self) -> List[Task]:
        """Expand the sweep into its ordered, deduplicated task list.

        Every expanded task's parameters are validated against the
        algorithm's registered schema (:mod:`repro.protocols`), so a
        malformed campaign — bad sources, negative ``k``, unknown keys
        — is rejected here with an actionable :class:`SpecError`,
        before any worker process spawns.  Validation never mutates
        the tasks themselves: stored params (and hence cache keys)
        stay exactly as written.
        """
        from ..protocols import TaskError, get as get_protocol

        tasks: List[Task] = []
        seen = set()
        for algorithm in self.algorithms:
            for template in self.graphs:
                if graph_specs.has_size_placeholder(template):
                    concrete = [
                        graph_specs.substitute_size(template, n)
                        for n in self.sizes
                    ]
                else:
                    concrete = [template]
                for graph in concrete:
                    for seed in self.seeds:
                        for policy in self.policies:
                            task_params = {
                                **self.params,
                                "seed": seed,
                                "policy": policy,
                            }
                            if self.faults is not None:
                                task_params["faults"] = self.faults
                            if self.trace:
                                task_params["trace"] = True
                            if self.backend != "object":
                                task_params["backend"] = self.backend
                            task = Task.make(graph, algorithm, task_params)
                            if task not in seen:
                                try:
                                    get_protocol(algorithm).check_params(
                                        task.param_dict()
                                    )
                                except TaskError as exc:
                                    raise SpecError(
                                        f"invalid params for {algorithm!r}"
                                        f" on {graph!r}: {exc}"
                                    )
                                seen.add(task)
                                tasks.append(task)
        return tasks


def load_spec(path) -> Dict[str, Any]:
    """Read a campaign spec file: its JSON object, unvalidated.

    :meth:`CampaignSpec.from_dict` validates it, after ``repro
    campaign`` has set on it the spec flags given beside the file.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: not valid JSON ({exc})")
    if not isinstance(data, dict):
        raise SpecError(f"{path}: spec must be a JSON object")
    return data
