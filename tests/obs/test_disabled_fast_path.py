"""The disabled-tracer contract: importing ``repro.obs`` must change
nothing observable.

The span/event instrumentation inside :mod:`repro.core` is guarded by a
single module-global slot, and the message-capture hook only attaches
when a capture session is live.  This module pins all of it, with
``repro.obs`` *imported* throughout (it is, above):

* no tracer is active by default, and traced-then-exited sessions leave
  the globals clean;
* an untraced network runs the class's ``Network._deliver`` (no
  instance-level wrapper), and only captured networks get one;
* golden-equivalence cases still reproduce their pinned metrics and
  result digests byte-for-byte;
* the bench suite's deterministic counters still equal the committed
  ``benchmarks/results/baseline.json`` (the regression gate's anchor).
"""

import json
from pathlib import Path

import pytest

import repro.obs  # noqa: F401 — importing it is the point
from repro import core
from repro.congest.network import Network
from repro.core.apsp import ApspNode
from repro.graphs.specs import parse_graph
from repro.obs import is_enabled

BASELINE = (
    Path(__file__).resolve().parents[2]
    / "benchmarks" / "results" / "baseline.json"
)


class TestInertByDefault:
    def test_no_tracer_installed(self):
        assert not is_enabled()

    def test_untraced_network_keeps_fast_path(self):
        network = Network(parse_graph("path:6"), ApspNode, seed=0)
        assert "_deliver" not in vars(network)
        network.run()
        assert "_deliver" not in vars(network)

    def test_traced_network_leaves_fast_path_and_next_run_regains_it(self):
        from repro import obs

        with obs.capture():
            traced = Network(parse_graph("path:6"), ApspNode, seed=0)
            assert "_deliver" in vars(traced)
            traced.run()
        untraced = Network(parse_graph("path:6"), ApspNode, seed=0)
        assert "_deliver" not in vars(untraced)


class TestGoldensUnchanged:
    """The golden-equivalence suite runs in full elsewhere; here we pin
    one strict edge-tracked and one S-SP case with repro.obs imported in
    the same process, which is what this module is about."""

    @pytest.fixture(scope="class")
    def goldens(self):
        path = (
            Path(__file__).resolve().parents[1]
            / "congest" / "golden_equivalence.json"
        )
        return json.loads(path.read_text(encoding="utf-8"))

    def test_apsp_strict_case_byte_identical(self, goldens):
        from tests.congest.test_golden_equivalence import CASES

        assert CASES["apsp_strict_tracked"]() == \
            goldens["apsp_strict_tracked"]

    def test_ssp_case_byte_identical(self, goldens):
        from tests.congest.test_golden_equivalence import CASES

        assert CASES["ssp_er24"]() == goldens["ssp_er24"]


class TestBenchCountersUnchanged:
    @pytest.fixture(scope="class")
    def baseline(self):
        return json.loads(BASELINE.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("name", ["bench_apsp", "bench_ssp"])
    def test_quick_counters_match_baseline(self, baseline, name):
        from repro.bench.workloads import WORKLOADS

        pinned = baseline["workloads"][name]
        metrics = WORKLOADS[name].run(quick=True)
        assert metrics.rounds == pinned["rounds"]
        assert metrics.messages_total == pinned["messages"]
        assert metrics.bits_total == pinned["bits"]


class TestTracingIsObservationallyInvisible:
    """Tracing wraps delivery, but deliveries, results and metrics must
    be identical — the capture layer is a pure observer."""

    def test_traced_run_matches_untraced_metrics_and_results(self):
        from repro import obs

        graph = parse_graph("er:20:p=0.2:seed=5")
        plain = core.run_apsp(graph, seed=0)
        with obs.capture():
            traced = core.run_apsp(graph, seed=0)
        assert traced.metrics.to_dict() == plain.metrics.to_dict()
        assert {
            uid: res.distances for uid, res in traced.results.items()
        } == {
            uid: res.distances for uid, res in plain.results.items()
        }
