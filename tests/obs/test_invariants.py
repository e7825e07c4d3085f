"""Paper invariants over real traces (the acceptance criteria of the
observability layer): Lemma 1 / Remark 3 on Algorithm 1, Theorem 3 on
Algorithm 2 — plus negative tests on fabricated traces so a violation
would actually be flagged."""

import pytest

from repro import core, obs
from repro.graphs.specs import parse_graph
from repro.obs.invariants import (
    check,
    lemma1_collisions,
    max_wave_delay,
    pebble_hops_per_round,
    ssp_phase_delays,
    ssp_source_count,
    wave_delays,
)
from repro.obs.session import MessageRecord, Trace


def _capture(run):
    with obs.capture() as session:
        run()
    return session.trace


@pytest.fixture(scope="module")
def apsp32_trace():
    graph = parse_graph("er:32:p=0.15:seed=1")
    return _capture(lambda: core.run_apsp(graph, seed=0))


@pytest.fixture(scope="module")
def ssp_trace():
    graph = parse_graph("er:32:p=0.15:seed=1")
    return _capture(
        lambda: core.run_ssp(graph, [1, 5, 9, 13, 17], seed=0)
    )


class TestLemma1:
    def test_no_collisions_on_32_node_apsp(self, apsp32_trace):
        assert lemma1_collisions(apsp32_trace) == []

    def test_collisions_detected_on_fabricated_trace(self):
        colliding = Trace(
            n=3, m=2, bandwidth_bits=48, rounds=5,
            messages=[
                MessageRecord(3, 1, 2, "BfsToken", 10,
                              {"root": 1, "dist": 1}),
                MessageRecord(3, 1, 2, "BfsToken", 10,
                              {"root": 2, "dist": 2}),
            ],
            events=[], spans=[], queue_depths={},
        )
        found = lemma1_collisions(colliding)
        assert len(found) == 1
        assert found[0].roots == (1, 2)
        result = next(
            r for r in check(colliding)
            if r.name == "lemma1_no_wave_collisions"
        )
        assert not result.ok

    def test_check_reports_ok(self, apsp32_trace):
        result = next(
            r for r in check(apsp32_trace)
            if r.name == "lemma1_no_wave_collisions"
        )
        assert result.ok


class TestRemark3:
    def test_single_pebble_hop_per_round(self, apsp32_trace):
        hops = pebble_hops_per_round(apsp32_trace)
        assert hops, "APSP trace must contain pebble messages"
        assert max(hops.values()) == 1

    def test_total_hops_is_2n_minus_2(self, apsp32_trace):
        # Remark 3: a DFS traversal crosses each tree edge twice.
        assert sum(pebble_hops_per_round(apsp32_trace).values()) == \
            2 * (apsp32_trace.n - 1)


class TestTheorem3:
    def test_wave_delay_within_source_count(self, ssp_trace):
        delay = max_wave_delay(ssp_trace)
        size_s = ssp_source_count(ssp_trace)
        assert size_s == 5
        assert delay is not None
        assert 0 <= delay <= size_s

    def test_every_pair_has_nonnegative_delay(self, ssp_trace):
        delays = wave_delays(ssp_trace)
        # Every (node, source) pair adopted a distance, except each
        # source's own zero-distance entry (set locally, no adoption).
        assert len(delays) == (ssp_trace.n - 1) * 5
        assert all(d >= 0 for d in delays.values())

    def test_check_reports_bound(self, ssp_trace):
        result = next(
            r for r in check(ssp_trace)
            if r.name == "theorem3_wave_delay_bound"
        )
        assert result.ok

    def test_violation_detected_on_fabricated_events(self, ssp_trace):
        from repro.obs.tracer import ObsRecord

        late = Trace(
            n=2, m=1, bandwidth_bits=48, rounds=50,
            messages=[], spans=[], queue_depths={},
            events=[
                ObsRecord("event", "ssp_loop_start", 10, 1, None,
                          {"size_s": 2, "duration": 20, "in_s": True}),
                # Distance 3 adopted at round 40: delay 27 > |S| = 2.
                ObsRecord("event", "wave_adopt", 40, 2, None,
                          {"source": 1, "dist": 3}),
            ],
        )
        result = next(
            r for r in check(late)
            if r.name == "theorem3_wave_delay_bound"
        )
        assert not result.ok


def _phases_trace(second_delay):
    """Two fabricated S-SP phases: |S| = 2 from round 10, |S| = 5 from 30.

    Node 2 adopts source 1 at distance 1 in each phase; the second
    adoption arrives ``second_delay`` rounds late.
    """
    from repro.obs.tracer import ObsRecord

    def start(round_no, size_s):
        return ObsRecord("event", "ssp_loop_start", round_no, 2, None,
                         {"size_s": size_s, "duration": 12, "in_s": False})

    def adopt(round_no):
        return ObsRecord("event", "wave_adopt", round_no, 2, None,
                         {"source": 1, "dist": 1})

    return Trace(
        n=2, m=1, bandwidth_bits=48, rounds=60,
        messages=[], spans=[], queue_depths={},
        events=[start(10, 2), adopt(11), start(30, 5),
                adopt(31 + second_delay)],
    )


def _theorem3(trace):
    return next(
        r for r in check(trace) if r.name == "theorem3_wave_delay_bound"
    )


class TestTheorem3PerPhase:
    """Each S-SP phase is measured from its own start, against its own |S|."""

    @pytest.mark.parametrize("run, expected", [
        # (start round, |S|, worst delay) per phase.
        (lambda: core.run_approx_girth(parse_graph("torus:6x6"), 0.5),
         [(51, 9, 4), (117, 18, 10)]),
        (lambda: core.run_prt_diameter(parse_graph("er:40:p=0.08:seed=3")),
         [(23, 15, 12), (66, 1, 0), (115, 31, 24)]),
    ], ids=["girth-approx", "prt-diameter"])
    def test_multi_phase_runs_pass(self, run, expected):
        trace = _capture(run)
        phases = ssp_phase_delays(trace)
        assert [(p.start_round, p.size_s, max(p.delays.values()))
                for p in phases] == expected
        assert all(d >= 0 for p in phases for d in p.delays.values())
        worst = max(delay for _, _, delay in expected)
        assert max_wave_delay(trace) == worst
        assert trace.summary_dict()["max_wave_delay"] == worst
        assert all(result.ok for result in check(trace))

    def test_second_phase_over_its_own_bound_fails(self):
        result = _theorem3(_phases_trace(second_delay=6))
        assert not result.ok
        assert "from round 30" in result.detail
        assert "max wave delay 6 rounds (bound |S| = 5)" in result.detail

    def test_second_phase_over_the_first_bound_only_passes(self):
        trace = _phases_trace(second_delay=4)
        assert wave_delays(trace) == {(2, 1): 4}
        result = _theorem3(trace)
        assert result.ok
        assert result.detail == (
            "tightest of 2 phases, from round 30: "
            "max wave delay 4 rounds (bound |S| = 5)"
        )


class TestSummaryDigest:
    def test_summary_carries_invariant_counters(self, apsp32_trace):
        summary = apsp32_trace.summary_dict()
        assert summary["schema"] == "repro-trace/1"
        assert summary["lemma1_collisions"] == 0
        assert summary["max_pebble_hops_per_round"] == 1
        assert summary["messages"] == len(apsp32_trace.messages)

    def test_ssp_summary_carries_wave_delay(self, ssp_trace):
        summary = ssp_trace.summary_dict()
        assert summary["max_wave_delay"] <= 5
