"""Error-path coverage for the simulator's failure modes: strict
bandwidth violations, serialize-mode backlog draining, and the
round-limit guard tripping on a deadlocked program."""

import pytest

from repro import obs
from repro.congest import (
    BandwidthExceededError,
    NodeAlgorithm,
    RoundLimitExceededError,
    SizeModel,
    ValueMessage,
    run_algorithm,
)
from repro.congest.faults import FaultSpec
from repro.graphs import generators


class Flood(NodeAlgorithm):
    """Node 1 pushes ``count`` messages over one edge in one round."""

    count = 8

    def program(self):
        if self.uid == 1:
            for value in range(self.count):
                self.send(self.neighbors[0], ValueMessage(value))
        received = []
        while self.round < 4 * self.count:
            inbox = yield
            for _, msg in inbox.items():
                received.append(msg.value)
        return received


class FanOut(NodeAlgorithm):
    """Node 2 floods both neighbours, the larger id first, so staging
    order lists edge (2, 3) before the sorted-first edge (2, 1)."""

    def program(self):
        if self.uid == 2:
            for neighbor in sorted(self.neighbors, reverse=True):
                for value in range(8):
                    self.send(neighbor, ValueMessage(value))
        yield
        return None


class Deadlock(NodeAlgorithm):
    """Every node waits forever for a message nobody ever sends."""

    def program(self):
        while True:
            inbox = yield
            if list(inbox.items()):  # pragma: no cover — never true
                return "woke"


class TestStrictPolicy:
    def test_overflow_raises_with_actionable_attributes(self):
        graph = generators.path_graph(2)
        with pytest.raises(BandwidthExceededError) as info:
            run_algorithm(graph, Flood, bandwidth_bits=16, policy="strict")
        err = info.value
        assert (err.sender, err.receiver) == (1, 2)
        assert err.round_no == 1
        assert err.used_bits > err.budget_bits == 16
        # The message itself names edge, round and totals.
        text = str(err)
        assert "1->2" in text and "16" in text

    def test_within_budget_does_not_raise(self):
        graph = generators.path_graph(2)
        result = run_algorithm(
            graph, Flood, bandwidth_bits=10 ** 6, policy="strict"
        )
        assert sorted(result.results[2]) == list(range(Flood.count))


class TestOverflowWitness:
    """Every delivery route names the smallest overflowing edge in
    sorted (sender, receiver) order, not the first one staged."""

    @pytest.mark.parametrize("route", ["plain", "noop_faults", "captured"])
    def test_smallest_sorted_edge_on_every_route(self, route):
        graph = generators.path_graph(3)
        kwargs = {"bandwidth_bits": 16, "policy": "strict"}
        if route == "noop_faults":
            kwargs["faults"] = FaultSpec()
        with pytest.raises(BandwidthExceededError) as info:
            if route == "captured":
                with obs.capture():
                    run_algorithm(graph, FanOut, **kwargs)
            else:
                run_algorithm(graph, FanOut, **kwargs)
        err = info.value
        assert (err.sender, err.receiver, err.round_no) == (2, 1, 1)
        assert err.budget_bits == 16 < err.used_bits


class TestSerializePolicy:
    def test_backlog_drains_completely(self):
        # The same overflow that kills strict mode is legal under
        # serialize: the excess queues and trickles out over later
        # rounds, and *every* message eventually arrives exactly once.
        graph = generators.path_graph(2)
        strict_budget = 16
        result = run_algorithm(
            graph, Flood, bandwidth_bits=strict_budget, policy="serialize"
        )
        assert sorted(result.results[2]) == list(range(Flood.count))

    def test_backlog_stays_fifo_when_new_messages_fit(self):
        # Values 1 and 2 queue behind value 0; value 3, staged a round
        # later, fits the budget on its own but must wait behind them.
        class Stream(NodeAlgorithm):
            def program(self):
                if self.uid == 1:
                    for value in range(3):
                        self.send(2, ValueMessage(value))
                    yield
                    self.send(2, ValueMessage(3))
                received = []
                for _ in range(5):
                    inbox = yield
                    received.append([msg.value for _, msg in inbox.items()])
                return received

        graph = generators.path_graph(2)
        budget = ValueMessage(0).size_bits(SizeModel(2))
        result = run_algorithm(
            graph, Stream, bandwidth_bits=budget, policy="serialize"
        )
        assert result.results[2] == [[0], [1], [2], [3], []]

    def test_serialization_costs_extra_rounds(self):
        graph = generators.path_graph(2)
        fast = run_algorithm(
            graph, Flood, bandwidth_bits=10 ** 6, policy="serialize"
        )
        slow = run_algorithm(
            graph, Flood, bandwidth_bits=16, policy="serialize"
        )
        # Delivery of the flood takes strictly longer when squeezed.
        fast_done = max(
            i for i, m in enumerate(fast.metrics.messages_per_round) if m
        )
        slow_done = max(
            i for i, m in enumerate(slow.metrics.messages_per_round) if m
        )
        assert slow_done > fast_done


class TestRoundLimit:
    def test_deadlock_trips_the_guard(self):
        with pytest.raises(RoundLimitExceededError) as info:
            run_algorithm(
                generators.path_graph(3), Deadlock, max_rounds=25
            )
        err = info.value
        assert err.max_rounds == 25
        assert err.unfinished == 3
        assert "25" in str(err)
