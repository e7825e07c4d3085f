"""Typed parameter schemas for registered protocols.

Each protocol declares its parameters once as a tuple of
:class:`ParamSpec`.  The same schema is used

* at **spec-expansion time** (``CampaignSpec.expand``) to reject
  malformed campaigns before any worker spawns,
* at **task time** (``execute_task`` / ``Protocol.execute``) to coerce
  raw JSON params into the types the core entry points expect, and
* by the CLI / docs tooling to describe what a protocol accepts.

Coercion is deliberately conservative: values are converted only
between obviously-compatible representations (``"3"`` → ``3``,
``[1, 2]`` → ``[1, 2]``), and every rejection carries an actionable
message naming the protocol, the parameter, and what was expected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from ..congest.bandwidth import POLICIES
from ..congest.faults import FaultPlan, FaultSpec
from .errors import ParamError

#: Parameter kinds understood by :meth:`ParamSpec.coerce`.
KINDS = ("int", "float", "str", "bool", "int_list")

#: The execution backends a protocol run can request.  ``object`` is
#: the per-node generator engine (the reference); ``vector`` the numpy
#: round engine (:mod:`repro.vector`), available only on protocols
#: carrying the ``vector`` capability.
BACKENDS = ("object", "vector")


@dataclass(frozen=True)
class ParamSpec:
    """Declaration of one protocol parameter."""

    name: str
    kind: str = "str"
    #: Default applied when the parameter is absent (ignored when
    #: ``required``).  ``None`` means "absent stays absent".
    default: Any = None
    required: bool = False
    #: Allowed values (post-coercion), or ``None`` for unrestricted.
    choices: Optional[Tuple[Any, ...]] = None
    #: Inclusive lower bound for numeric kinds.
    minimum: Optional[float] = None
    #: A value the completeness test can use to drive a minimal run.
    example: Any = None
    help: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"param {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {KINDS}"
            )

    def coerce(self, protocol: str, value: Any) -> Any:
        """Convert ``value`` to this parameter's type, or raise.

        Raises :class:`ParamError` with a message naming the protocol
        and parameter when the value cannot be interpreted.
        """

        def bad(expected: str):
            return ParamError(
                f"{protocol}: param {self.name!r} must be {expected}, "
                f"got {value!r}"
            )

        try:
            if self.kind == "int":
                if isinstance(value, bool) or not isinstance(
                    value, (int, str)
                ):
                    raise bad("an integer")
                coerced: Any = int(value)
            elif self.kind == "float":
                if isinstance(value, bool) or not isinstance(
                    value, (int, float, str)
                ):
                    raise bad("a number")
                coerced = float(value)
            elif self.kind == "bool":
                if not isinstance(value, bool):
                    raise bad("a boolean")
                coerced = value
            elif self.kind == "int_list":
                if isinstance(value, (str, bytes)) or not isinstance(
                    value, (list, tuple)
                ):
                    raise bad("a list of integers")
                items = []
                for item in value:
                    if isinstance(item, bool) or not isinstance(
                        item, (int, str)
                    ):
                        raise bad("a list of integers")
                    items.append(int(item))
                coerced = items
            else:  # "str"
                if not isinstance(value, str):
                    raise bad("a string")
                coerced = value
        except (TypeError, ValueError):
            raise bad(
                "an integer" if self.kind == "int"
                else "a number" if self.kind == "float"
                else "a list of integers" if self.kind == "int_list"
                else "a string"
            )
        if self.choices is not None and coerced not in self.choices:
            raise ParamError(
                f"{protocol}: param {self.name!r} must be one of "
                f"{list(self.choices)}, got {coerced!r}"
            )
        if self.minimum is not None:
            values = coerced if self.kind == "int_list" else [coerced]
            for item in values:
                if item < self.minimum:
                    raise ParamError(
                        f"{protocol}: param {self.name!r} must be "
                        f">= {self.minimum:g}, got {item!r}"
                    )
        return coerced


@dataclass(frozen=True)
class CommonParams:
    """The simulator-wide axes every protocol accepts.

    These are popped off the raw params before schema validation —
    they belong to the :class:`~repro.congest.network.Network`, not to
    any one algorithm.
    """

    seed: int = 0
    policy: str = "strict"
    bandwidth_bits: Optional[int] = None
    faults: Any = None
    #: Which engine executes the run.  Deliberately excluded from
    #: :meth:`kwargs` — the object entry points don't know about it;
    #: :meth:`~.registry.Protocol.execute` dispatches on it instead.
    backend: str = "object"

    def kwargs(self) -> Dict[str, Any]:
        """The axes as keyword arguments for a ``core.run_*`` call."""
        return {
            "seed": self.seed,
            "policy": self.policy,
            "bandwidth_bits": self.bandwidth_bits,
            "faults": self.faults,
        }


def fault_spec(value: Any) -> FaultSpec:
    """``value`` as a :class:`FaultSpec`: itself, or parsed from its
    :meth:`FaultSpec.to_dict` form.

    The one parse of a ``faults`` value, shared by :func:`split_common`
    and the campaign harness; raises ``TypeError`` or ``ValueError``.
    """
    if isinstance(value, FaultSpec):
        return value
    return FaultSpec.from_dict(value)


def split_common(
    protocol: str, params: Mapping[str, Any]
) -> Tuple[CommonParams, Dict[str, Any]]:
    """Separate the shared simulator axes from protocol params.

    A ``faults`` value other than a compiled :class:`FaultPlan` is
    parsed into a :class:`FaultSpec` here, so a malformed one fails as
    a :class:`ParamError` before the run starts.
    """
    rest = dict(params)
    try:
        seed = int(rest.pop("seed", 0))
    except (TypeError, ValueError):
        raise ParamError(
            f"{protocol}: param 'seed' must be an integer"
        )
    policy = rest.pop("policy", "strict")
    if not isinstance(policy, str) or policy not in POLICIES:
        raise ParamError(
            f"{protocol}: unknown bandwidth policy {policy!r}; "
            f"expected one of {sorted(POLICIES)}"
        )
    bandwidth = rest.pop("bandwidth_bits", None)
    if bandwidth is not None:
        try:
            bandwidth = int(bandwidth)
        except (TypeError, ValueError):
            raise ParamError(
                f"{protocol}: param 'bandwidth_bits' must be an "
                f"integer or null"
            )
    faults = rest.pop("faults", None)
    if faults is not None and not isinstance(faults, FaultPlan):
        try:
            faults = fault_spec(faults)
        except (TypeError, ValueError) as exc:
            raise ParamError(f"{protocol}: bad 'faults' spec: {exc}")
    backend = rest.pop("backend", "object")
    if backend not in BACKENDS:
        raise ParamError(
            f"{protocol}: param 'backend' must be one of "
            f"{list(BACKENDS)}, got {backend!r}"
        )
    return CommonParams(
        seed=seed, policy=policy, bandwidth_bits=bandwidth, faults=faults,
        backend=backend,
    ), rest


def validate_params(
    protocol: str,
    schema: Tuple[ParamSpec, ...],
    params: Mapping[str, Any],
) -> Dict[str, Any]:
    """Validate and coerce ``params`` against ``schema``.

    Returns the coerced dict with defaults applied.  Unknown keys are
    rejected (the message intentionally matches the historical harness
    wording, which tests and users pattern-match on).
    """
    by_name = {spec.name: spec for spec in schema}
    unknown = set(params) - set(by_name)
    if unknown:
        raise ParamError(
            f"algorithm {protocol!r} got unknown params {sorted(unknown)}"
        )
    coerced: Dict[str, Any] = {}
    for spec in schema:
        if spec.name in params:
            coerced[spec.name] = spec.coerce(protocol, params[spec.name])
        elif spec.required:
            raise ParamError(
                f"{protocol}: required param {spec.name!r} is missing"
            )
        elif spec.default is not None:
            coerced[spec.name] = spec.default
    return coerced
