"""Integration tests for the synchronous scheduler."""

import random

import pytest

from repro.congest import (
    BandwidthExceededError,
    GraphError,
    IdMessage,
    Network,
    NodeAlgorithm,
    ProtocolError,
    RoundLimitExceededError,
    SizeModel,
    Token,
    ValueMessage,
    run_algorithm,
)
from repro.graphs import Graph, path_graph, star_graph


class Idle(NodeAlgorithm):
    """Returns immediately without communicating."""

    def program(self):
        return self.uid
        yield  # noqa: unreachable


class Flood(NodeAlgorithm):
    """Min-distance-from-node-1 flood; each node returns its distance."""

    def program(self):
        dist = None
        if self.uid == 1:
            dist = 0
            self.send_all(ValueMessage(0))
        while dist is None:
            inbox = yield
            values = [
                msg.value for _, msg in inbox.items()
                if isinstance(msg, ValueMessage)
            ]
            if values:
                dist = min(values) + 1
                self.send_all(ValueMessage(dist))
        return dist


class TestLifecycle:
    def test_idle_program_ends_in_zero_rounds(self):
        result = run_algorithm(path_graph(4), Idle)
        assert result.rounds == 0
        assert result.results == {1: 1, 2: 2, 3: 3, 4: 4}

    def test_flood_distances_and_round_count(self):
        result = run_algorithm(path_graph(6), Flood)
        assert result.results == {1: 0, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5}
        # Last node learns in round 5; its final send drains in round 6.
        assert result.rounds in (5, 6)

    def test_message_staged_in_round_r_arrives_in_round_r_plus_1(self):
        arrivals = {}

        class Probe(NodeAlgorithm):
            def program(self):
                if self.uid == 1:
                    self.send(2, Token())     # staged at wake-up
                inbox = yield                 # round 1
                if self.uid == 2 and inbox:
                    arrivals[self.uid] = self.round
                    self.send(1, Token())     # staged during round 1
                inbox = yield                 # round 2
                if self.uid == 1 and inbox:
                    arrivals[self.uid] = self.round
                return None

        run_algorithm(path_graph(2), Probe)
        assert arrivals == {2: 1, 1: 2}

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            Network(Graph([], []), Idle)

    def test_single_node_network(self):
        result = run_algorithm(Graph([1], []), Idle)
        assert result.results == {1: 1}


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        class Coin(NodeAlgorithm):
            def program(self):
                yield
                return self.ctx.rng.random()

        a = run_algorithm(path_graph(5), Coin, seed=42)
        b = run_algorithm(path_graph(5), Coin, seed=42)
        assert a.results == b.results

    def test_different_seeds_differ(self):
        class Coin(NodeAlgorithm):
            def program(self):
                yield
                return self.ctx.rng.random()

        a = run_algorithm(path_graph(5), Coin, seed=1)
        b = run_algorithm(path_graph(5), Coin, seed=2)
        assert a.results != b.results

    def test_public_randomness_identical_across_nodes(self):
        class Shared(NodeAlgorithm):
            def program(self):
                yield
                return tuple(self.ctx.public_rng.random() for _ in range(3))

        result = run_algorithm(path_graph(6), Shared, seed=9)
        assert len(set(result.results.values())) == 1

    def test_private_randomness_differs_across_nodes(self):
        class Private(NodeAlgorithm):
            def program(self):
                yield
                return self.ctx.rng.random()

        result = run_algorithm(path_graph(6), Private, seed=9)
        assert len(set(result.results.values())) == 6

    def test_lazily_built_streams_pin_exact_draws(self):
        # Both generators are built on first read; a node that first
        # draws in round 3 still gets the stream's first value.
        class Late(NodeAlgorithm):
            def program(self):
                while self.round < 3:
                    yield
                return (self.round, self.ctx.rng.random(),
                        self.ctx.public_rng.random())

        seed = 9
        result = run_algorithm(path_graph(6), Late, seed=seed)
        public = random.Random(f"{seed}|public").random()
        assert result.results == {
            uid: (3, random.Random(f"{seed}|node|{uid}").random(), public)
            for uid in range(1, 7)
        }


class TestInboxOrder:
    def test_senders_ascending_when_serialize_backlog_drains(self):
        # Node 3's second message waits a round on edge (3, 4) and is
        # drained after node 5's fresh send; the inbox still lists
        # senders ascending.
        class Converge(NodeAlgorithm):
            def program(self):
                if self.uid == 3:
                    self.send(4, IdMessage(uid=1))
                    self.send(4, IdMessage(uid=2))
                yield
                if self.uid == 5:
                    self.send(4, IdMessage(uid=3))
                inbox = yield
                return [sender for sender, _ in inbox.items()]

        budget = IdMessage(uid=1).size_bits(SizeModel(5))
        result = run_algorithm(path_graph(5), Converge, policy="serialize",
                               bandwidth_bits=budget)
        assert result.results[4] == [3, 5]

    def test_senders_ascending_when_serialize_defers_one_edge(self):
        # Edge (1, 2) overflows and is admitted through the policy while
        # (3, 2) fits and is delivered inline in the same round; node 2
        # still lists its senders ascending.
        class Converge(NodeAlgorithm):
            def program(self):
                if self.uid == 1:
                    self.send(2, IdMessage(uid=1))
                    self.send(2, IdMessage(uid=2))
                elif self.uid == 3:
                    self.send(2, IdMessage(uid=3))
                inbox = yield
                return [sender for sender, _ in inbox.items()]

        budget = IdMessage(uid=1).size_bits(SizeModel(3))
        result = run_algorithm(path_graph(3), Converge, policy="serialize",
                               bandwidth_bits=budget)
        assert result.results[2] == [1, 3]


class TestProtocolEnforcement:
    def test_send_to_non_neighbor_rejected(self):
        class Bad(NodeAlgorithm):
            def program(self):
                if self.uid == 1:
                    self.send(3, Token())  # 1-2-3 path: 3 not adjacent
                yield
                return None

        with pytest.raises(ProtocolError):
            run_algorithm(path_graph(3), Bad)

    def test_send_non_message_rejected(self):
        class Bad(NodeAlgorithm):
            def program(self):
                self.send(2, "hello")
                yield
                return None

        with pytest.raises(ProtocolError):
            run_algorithm(path_graph(2), Bad)

    def test_non_generator_program_rejected(self):
        class Bad(NodeAlgorithm):
            def program(self):
                return 42

        with pytest.raises(ProtocolError):
            run_algorithm(path_graph(2), Bad)

    def test_bandwidth_overflow_raises_under_strict(self):
        class Chatty(NodeAlgorithm):
            def program(self):
                if self.uid == 1:
                    for _ in range(100):
                        self.send(2, ValueMessage(1))
                yield
                return None

        with pytest.raises(BandwidthExceededError):
            run_algorithm(path_graph(2), Chatty)

    def test_same_traffic_passes_under_serialize(self):
        class Chatty(NodeAlgorithm):
            def program(self):
                if self.uid == 1:
                    for i in range(20):
                        self.send(2, ValueMessage(i))
                    yield
                    return None
                got = []
                while len(got) < 20:
                    inbox = yield
                    got.extend(m.value for _, m in inbox.items())
                return got

        result = run_algorithm(path_graph(2), Chatty, policy="serialize")
        assert result.results[2] == list(range(20))
        assert result.rounds > 1  # forced to spread over rounds

    def test_round_limit_enforced(self):
        class Forever(NodeAlgorithm):
            def program(self):
                while True:
                    yield

        with pytest.raises(RoundLimitExceededError):
            run_algorithm(path_graph(2), Forever, max_rounds=10)


class TestMetrics:
    def test_counts_messages_and_bits(self):
        result = run_algorithm(path_graph(4), Flood)
        assert result.metrics.messages_total > 0
        assert result.metrics.bits_total > 0
        assert len(result.metrics.messages_per_round) == result.rounds
        assert sum(result.metrics.messages_per_round) == \
            result.metrics.messages_total

    def test_max_edge_bits_within_budget_under_strict(self):
        network = Network(star_graph(8), Flood)
        network.run()
        assert network.metrics.max_edge_bits_in_round <= \
            network.bandwidth_bits

    def test_edge_tracking_and_cut_audit(self):
        result = run_algorithm(path_graph(4), Flood, track_edges=True)
        cut = result.metrics.bits_across_cut(frozenset({1, 2}))
        assert cut > 0
        total = sum(result.metrics.edge_bits.values())
        assert total == result.metrics.bits_total

    def test_cut_audit_requires_tracking(self):
        result = run_algorithm(path_graph(4), Flood)
        with pytest.raises(ValueError):
            result.metrics.bits_across_cut(frozenset({1}))

    def test_inputs_reach_nodes(self):
        class Echo(NodeAlgorithm):
            def program(self):
                yield
                return self.ctx.input_value

        inputs = {1: "a", 2: "b", 3: "c"}
        result = run_algorithm(path_graph(3), Echo, inputs=inputs)
        assert result.results == inputs
