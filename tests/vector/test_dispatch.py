"""Backend dispatch: registry, harness, serve, and bench integration.

The vector engine itself is gated by the golden fixtures
(``tests/congest/test_golden_equivalence.py``) and the cross-backend
property test (``test_cross_backend.py``); this module covers the
*plumbing* — how ``backend`` threads through every consumer and how
each layer rejects what the vector engine cannot do.

Everything here that needs numpy says so via ``importorskip``; the
error-path tests run numpy-free (some *require* simulating its
absence).
"""

import pytest

from repro import protocols
from repro.bench.workloads import ALL_WORKLOADS, LARGE_WORKLOADS, WORKLOADS, select
from repro.graphs.specs import parse_graph
from repro.harness.spec import CampaignSpec, SpecError
from repro.protocols import ParamError
from repro.serve.matrix import QueryFamily


GRAPH = "er:16:p=0.2:seed=3"


class TestRegistryDispatch:
    def test_vector_capable_protocols(self):
        capable = {
            p.name for p in protocols.protocols()
            if "vector" in p.capabilities
        }
        assert capable == {"bfs", "apsp", "ssp", "properties", "girth"}

    def test_available_backends_reports_numpy(self):
        pytest.importorskip("numpy")
        assert protocols.get("apsp").available_backends() == (
            "object", "vector",
        )
        # Not vector-capable: object only, regardless of numpy.
        assert protocols.get("leader").available_backends() == ("object",)

    def test_vector_run_matches_object_run(self):
        pytest.importorskip("numpy")
        graph = parse_graph(GRAPH)
        obj = protocols.run("apsp", graph, {"backend": "object"})
        vec = protocols.run("apsp", graph, {"backend": "vector"})
        assert vec.metrics.to_dict() == obj.metrics.to_dict()
        assert vec.result == obj.result

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParamError, match="must be one of"):
            protocols.run("apsp", parse_graph("path:4"),
                          {"backend": "gpu"})

    def test_non_capable_protocol_rejected(self):
        with pytest.raises(ParamError,
                           match="vector-capable protocols"):
            protocols.get("leader").check_params({"backend": "vector"})

    def test_faults_rejected_on_vector(self):
        with pytest.raises(ParamError, match="fault injection"):
            protocols.get("apsp").check_params({
                "backend": "vector",
                "faults": {"drop_rate": 0.1, "seed": 1},
            })

    def test_serialize_policy_rejected_on_vector(self):
        with pytest.raises(ParamError, match="'strict' bandwidth policy"):
            protocols.get("apsp").check_params({
                "backend": "vector", "policy": "serialize",
            })

    def test_missing_numpy_names_the_install_extra(self, monkeypatch):
        monkeypatch.setattr("repro.vector.HAS_NUMPY", False)
        with pytest.raises(ParamError, match=r"repro\[vector\]"):
            protocols.get("apsp").check_params({"backend": "vector"})
        assert protocols.get("apsp").available_backends() == ("object",)

    def test_engine_rejects_non_default_ssp_priority(self):
        pytest.importorskip("numpy")
        from repro.vector import VectorBackendError, run_ssp

        with pytest.raises(VectorBackendError, match="priority"):
            run_ssp(parse_graph(GRAPH), [1, 3], priority="id")


class TestCampaignSpec:
    def base(self, **extra):
        data = {
            "name": "t",
            "graphs": ["path:{n}"],
            "sizes": [6],
            "algorithms": ["apsp"],
            **extra,
        }
        return CampaignSpec.from_dict(data)

    def test_object_tasks_omit_backend_param(self):
        # Pre-backend cache keys must not shift: the default backend
        # adds nothing to the task params.
        tasks = self.base().expand()
        assert all("backend" not in dict(t.params) for t in tasks)

    def test_vector_tasks_carry_backend_param(self):
        pytest.importorskip("numpy")
        tasks = self.base(backend="vector").expand()
        assert all(dict(t.params).get("backend") == "vector"
                   for t in tasks)

    def test_unknown_backend_rejected(self):
        with pytest.raises(SpecError, match="unknown backend"):
            self.base(backend="gpu")

    def test_backend_in_shared_params_rejected(self):
        with pytest.raises(SpecError, match="top-level spec field"):
            self.base(params={"backend": "vector"})

    def test_vector_with_faults_rejected(self):
        pytest.importorskip("numpy")
        with pytest.raises(SpecError, match="fault"):
            self.base(backend="vector",
                      faults={"drop_rate": 0.1, "seed": 1})

    def test_vector_with_trace_rejected(self):
        pytest.importorskip("numpy")
        with pytest.raises(SpecError, match="trace"):
            self.base(backend="vector", trace=True)

    def test_vector_without_numpy_names_extra(self, monkeypatch):
        monkeypatch.setattr("repro.vector.HAS_NUMPY", False)
        with pytest.raises(SpecError, match=r"repro\[vector\]"):
            self.base(backend="vector")


class TestServeKeys:
    def test_object_payload_has_no_backend_key(self):
        # Records written before the backend field existed must keep
        # addressing the same object-backend cache entries.
        family = QueryFamily.make(GRAPH)
        assert "backend" not in family.payload()

    def test_vector_payload_is_disjoint(self):
        obj = QueryFamily.make(GRAPH)
        vec = QueryFamily.make(GRAPH, backend="vector")
        assert vec.payload()["backend"] == "vector"
        assert vec.matrix_key() != obj.matrix_key()
        assert vec.row_key(1) != obj.row_key(1)

    def test_service_rejects_vector_without_numpy(self, monkeypatch):
        monkeypatch.setattr("repro.vector.HAS_NUMPY", False)
        from repro.serve.service import DistanceService, QueryError

        with pytest.raises(QueryError, match=r"repro\[vector\]"):
            DistanceService(backend="vector")

    def test_service_serves_identical_distances_on_vector(self):
        pytest.importorskip("numpy")
        from repro.serve.service import DistanceService, full_job, run_job

        graph = parse_graph(GRAPH)
        fam_obj = DistanceService().family_for(GRAPH)
        fam_vec = DistanceService(backend="vector").family_for(GRAPH)
        assert fam_vec.backend == "vector"
        rows_obj = run_job(full_job(fam_obj), graph)["rows"]
        rows_vec = run_job(full_job(fam_vec), graph)["rows"]
        assert rows_vec == rows_obj


class TestBenchWorkloads:
    def test_default_suite_stays_object_only(self):
        # ``select(None)`` must run on a numpy-free install: no large-n
        # vector workload may leak into the default suite.
        assert [w.name for w in select()] == list(WORKLOADS)
        assert all(w.backend == "object" for w in select())

    def test_large_workloads_are_vector_and_opt_in(self):
        assert set(LARGE_WORKLOADS) == {
            "bench_apsp_n512", "bench_apsp_n1024", "bench_apsp_n2048",
            "bench_ssp_n512", "bench_ssp_n1024", "bench_ssp_n2048",
        }
        assert all(w.backend == "vector"
                   for w in LARGE_WORKLOADS.values())
        chosen = select(["bench_apsp_n512"])
        assert [w.name for w in chosen] == ["bench_apsp_n512"]
        assert set(ALL_WORKLOADS) == set(WORKLOADS) | set(LARGE_WORKLOADS)

    def test_unknown_name_lists_all_workloads(self):
        with pytest.raises(ValueError, match="bench_apsp_n512"):
            select(["bench_nope"])

    def test_large_workload_runs_at_quick_scale(self):
        pytest.importorskip("numpy")
        metrics = LARGE_WORKLOADS["bench_apsp_n512"].run(quick=True)
        assert metrics.rounds > 0
        assert metrics.messages_total > 0
