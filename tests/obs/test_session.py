"""Capture-session behaviour: hook install/restore, trace assembly,
queue depths, and the messages=False mode that leaves networks
unwrapped."""

import pytest

from repro import core, obs
from repro.congest import network as network_mod
from repro.congest.faults import FaultSpec, LinkOutage
from repro.congest.network import Network
from repro.core.apsp import ApspNode
from repro.graphs.specs import parse_graph
from repro.obs import tracer as tracer_mod


class TestHooks:
    def test_hooks_restored_after_capture(self):
        assert network_mod._network_observer is None
        with obs.capture():
            assert network_mod._network_observer is not None
            assert tracer_mod.is_enabled()
        assert network_mod._network_observer is None
        assert not tracer_mod.is_enabled()

    def test_hooks_restored_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.capture():
                raise RuntimeError("boom")
        assert network_mod._network_observer is None
        assert not tracer_mod.is_enabled()

    def test_empty_capture_raises_on_trace(self):
        with obs.capture() as session:
            pass
        assert session.network_count == 0
        with pytest.raises(ValueError):
            _ = session.trace


class TestTraceAssembly:
    def test_trace_matches_metrics(self):
        graph = parse_graph("torus:4x4")
        with obs.capture() as session:
            summary = core.run_apsp(graph, seed=0)
        trace = session.trace
        assert trace.n == graph.n and trace.m == graph.m
        assert trace.rounds == summary.metrics.rounds
        assert len(trace.messages) == summary.metrics.messages_total
        assert sum(r.bits for r in trace.messages) == \
            summary.metrics.bits_total

    def test_message_fields_decoded(self):
        with obs.capture() as session:
            core.run_apsp(parse_graph("path:6"), seed=0)
        tokens = [
            r for r in session.trace.messages if r.kind == "BfsToken"
        ]
        assert tokens
        assert all(
            set(r.fields) == {"root", "dist"} and r.bits > 0
            for r in tokens
        )

    def test_multiple_networks_indexed(self):
        with obs.capture() as session:
            core.run_apsp(parse_graph("path:5"), seed=0)
            core.run_apsp(parse_graph("cycle:6"), seed=0)
        assert session.network_count == 2
        assert session.build_trace(0).n == 5
        assert session.build_trace(1).n == 6

    def test_round_stats_and_edge_totals_consistent(self):
        with obs.capture() as session:
            core.run_apsp(parse_graph("grid:3x4"), seed=0)
        trace = session.trace
        stats = trace.round_stats()
        assert sum(s.messages for s in stats) == len(trace.messages)
        totals = trace.edge_totals()
        assert sum(c for c, _ in totals.values()) == len(trace.messages)
        assert 0.0 < trace.max_edge_utilization() <= 1.0

    @pytest.mark.parametrize(
        "faults",
        [
            FaultSpec(drop_rate=0.05, seed=3),
            FaultSpec(
                crashes=((3, 10),),
                links=(LinkOutage(0, 1, 2, 30),),
                seed=1,
            ),
        ],
        ids=["drops", "crash_and_outage"],
    )
    def test_faulty_trace_lists_only_delivered_messages(self, faults):
        graph = parse_graph("er:20:p=0.2:seed=5")
        with obs.capture() as session:
            summary = core.run_apsp(graph, seed=0, faults=faults)
        trace, metrics = session.trace, summary.metrics
        assert metrics.messages_dropped + metrics.messages_suppressed > 0
        assert len(trace.messages) == metrics.messages_total
        assert {s.round_no: s.messages for s in trace.round_stats()} == {
            round_no: count
            for round_no, count in enumerate(metrics.messages_per_round, 1)
            if count
        }

    def test_queue_depths_under_serialize_backlog(self):
        from repro.congest.message import IdMessage
        from repro.congest.node import NodeAlgorithm

        class BurstNode(NodeAlgorithm):
            """Stages 4 one-per-round messages at once, forcing backlog."""

            def program(self):
                if self.uid == 1:
                    for _ in range(4):
                        self.send(2, IdMessage(uid=self.uid))
                for _ in range(8):
                    yield
                return None

        graph = parse_graph("path:2")
        with obs.capture() as session:
            network = Network(graph, BurstNode, seed=0, policy="serialize")
            budget = network.size_model.size_bits(IdMessage(uid=1))
            network.policy.budget_bits = budget  # one message per round
            network.run()
        depths = session.trace.queue_depths
        assert depths, "serialize backlog must surface queue depths"
        # 4 staged, 1 delivered per round: depths 3, 2, 1 remain.
        assert sorted(
            per_edge[(1, 2)] for per_edge in depths.values()
        ) == [1, 2, 3]


class TestMessagesOff:
    def test_spans_only_capture_keeps_fast_path(self):
        captured = []
        original = Network.__init__

        def spy(self, *args, **kwargs):
            original(self, *args, **kwargs)
            captured.append(self)

        Network.__init__ = spy
        try:
            with obs.capture(messages=False) as session:
                core.run_apsp(parse_graph("path:6"), seed=0)
        finally:
            Network.__init__ = original
        assert session.network_count == 0
        assert captured and "_deliver" not in vars(captured[0])
        # Span/event instrumentation still ran.
        assert session.tracer.events("pebble_move")
        assert any(
            s.name == "bfs_tree"
            for s in session.tracer.finished_spans()
        )
