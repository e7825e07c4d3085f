"""Parameter schema: coercion, defaults, and actionable errors."""

import pytest

from repro.congest.faults import FaultPlan, FaultSpec
from repro.protocols import (
    CommonParams,
    ParamError,
    ParamSpec,
    TaskError,
    validate_params,
)
from repro.protocols.params import split_common


class TestCoercion:
    def test_int_accepts_int_and_numeric_string(self):
        spec = ParamSpec("k", kind="int")
        assert spec.coerce("p", 3) == 3
        assert spec.coerce("p", "3") == 3

    def test_int_rejects_float_bool_and_junk(self):
        spec = ParamSpec("k", kind="int")
        for value in (2.5, True, "three", None):
            with pytest.raises(ParamError, match="must be an integer"):
                spec.coerce("p", value)

    def test_float_accepts_ints(self):
        spec = ParamSpec("eps", kind="float")
        assert spec.coerce("p", 1) == 1.0
        assert isinstance(spec.coerce("p", 1), float)

    def test_bool_rejects_non_bool(self):
        spec = ParamSpec("flag", kind="bool")
        assert spec.coerce("p", True) is True
        with pytest.raises(ParamError):
            spec.coerce("p", 1)

    def test_int_list_accepts_tuples_rejects_strings(self):
        spec = ParamSpec("sources", kind="int_list")
        assert spec.coerce("p", (1, 2)) == [1, 2]
        with pytest.raises(ParamError, match="list of integers"):
            spec.coerce("p", "1,2")

    def test_minimum_is_enforced_elementwise(self):
        spec = ParamSpec("sources", kind="int_list", minimum=1)
        with pytest.raises(ParamError, match="must be >= 1"):
            spec.coerce("p", [1, 0])

    def test_choices(self):
        spec = ParamSpec("variant", choices=("a", "b"))
        assert spec.coerce("p", "a") == "a"
        with pytest.raises(ParamError, match="one of"):
            spec.coerce("p", "c")

    def test_error_names_protocol_and_param(self):
        spec = ParamSpec("k", kind="int", minimum=1)
        with pytest.raises(ParamError, match=r"demo: param 'k'"):
            spec.coerce("demo", 0)


class TestValidateParams:
    SCHEMA = (
        ParamSpec("epsilon", kind="float", default=0.5),
        ParamSpec("variant", kind="str", required=True),
    )

    def test_defaults_applied_and_required_enforced(self):
        out = validate_params("demo", self.SCHEMA, {"variant": "x"})
        assert out == {"epsilon": 0.5, "variant": "x"}
        with pytest.raises(ParamError, match="required param"):
            validate_params("demo", self.SCHEMA, {})

    def test_unknown_keys_listed_sorted(self):
        with pytest.raises(TaskError,
                           match=r"unknown params \['a', 'z'\]"):
            validate_params("demo", self.SCHEMA,
                            {"variant": "x", "z": 1, "a": 2})

    def test_false_default_is_still_applied(self):
        schema = (ParamSpec("flag", kind="bool", default=False),)
        assert validate_params("demo", schema, {}) == {"flag": False}


class TestCommonParams:
    def test_split_common_separates_axes(self):
        common, rest = split_common("demo", {
            "seed": 3, "policy": "unlimited", "epsilon": 0.5,
        })
        assert common == CommonParams(seed=3, policy="unlimited")
        assert rest == {"epsilon": 0.5}

    def test_split_common_parses_faults(self):
        common, _ = split_common("demo", {"faults": {"drop_rate": 0.5}})
        assert common.faults == FaultSpec(drop_rate=0.5)
        plan = FaultPlan(FaultSpec(drop_rate=0.5))
        assert split_common("demo", {"faults": plan})[0].faults is plan
        with pytest.raises(ParamError, match="demo: bad 'faults' spec"):
            split_common("demo", {"faults": {"drop_rate": 7}})

    def test_kwargs_covers_every_axis(self):
        assert CommonParams().kwargs() == {
            "seed": 0, "policy": "strict",
            "bandwidth_bits": None, "faults": None,
        }
        kwargs = CommonParams(bandwidth_bits=64).kwargs()
        assert kwargs["bandwidth_bits"] == 64

    def test_param_error_is_a_task_error(self):
        # Campaign error records key on the class name "TaskError";
        # validation failures must flow through the same funnel.
        assert issubclass(ParamError, TaskError)
