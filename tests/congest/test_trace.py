"""Tests for message traces of hand-built networks (and white-box
protocol checks), captured with :func:`repro.obs.capture`."""

from repro import obs
from repro.congest import Network
from repro.core.apsp import ApspNode
from repro.core.traversal import PebbleTraversalNode
from repro.graphs import path_graph, star_graph


def traced_run(graph, factory, **kwargs):
    with obs.capture() as session:
        result = Network(graph, factory, **kwargs).run()
    return session.trace, result


class TestRecorder:
    def test_counts_match_metrics(self):
        trace, result = traced_run(path_graph(8), ApspNode)
        assert len(trace.messages) == result.metrics.messages_total
        assert max(m.round_no for m in trace.messages) <= result.rounds

    def test_counts_by_kind(self):
        trace, _ = traced_run(path_graph(6), ApspNode)
        counts = trace.counts_by_kind()
        assert counts["BfsToken"] > 0
        assert counts["PebbleMsg"] > 0
        assert counts["JoinMsg"] == 5   # one per non-root node

    def test_filtering(self):
        trace, _ = traced_run(star_graph(5), ApspNode)
        from_center = [m for m in trace.messages if m.sender == 1]
        assert from_center
        assert all(m.sender == 1 for m in from_center)
        pebbles = [m for m in trace.messages if m.kind == "PebbleMsg"]
        assert all(m.kind == "PebbleMsg" for m in pebbles)

    def test_timeline_renders(self):
        trace, _ = traced_run(path_graph(4), ApspNode)
        text = obs.render_timeline(trace, kinds={"PebbleMsg"})
        assert "PebbleMsg" in text
        assert text.startswith("r")

    def test_timeline_truncation(self):
        trace, _ = traced_run(path_graph(6), ApspNode)
        text = obs.render_timeline(trace, max_rounds=3)
        assert "more rounds" in text


class TestProtocolWhiteBox:
    def test_pebble_moves_one_edge_per_round(self):
        """Remark 3: at most one pebble hop happens per round."""
        trace, _ = traced_run(path_graph(10), PebbleTraversalNode)
        pebbles = [m for m in trace.messages if m.kind == "PebbleMsg"]
        rounds = [m.round_no for m in pebbles]
        assert len(rounds) == len(set(rounds))  # one move per round
        # A DFS of a tree crosses each edge exactly twice.
        assert len(pebbles) == 2 * (10 - 1)

    def test_apsp_pebble_also_one_per_round(self):
        trace, _ = traced_run(path_graph(8), ApspNode)
        pebbles = [m for m in trace.messages if m.kind == "PebbleMsg"]
        rounds = [m.round_no for m in pebbles]
        assert len(rounds) == len(set(rounds))
        assert len(pebbles) == 2 * (8 - 1)

    def test_at_most_one_bfs_token_per_edge_round(self):
        """Lemma 1, observed on the wire: no directed edge ever carries
        two BFS tokens in the same round."""
        trace, _ = traced_run(star_graph(9), ApspNode)
        seen = set()
        for message in trace.messages:
            if message.kind != "BfsToken":
                continue
            key = (message.round_no, message.sender, message.receiver)
            assert key not in seen
            seen.add(key)
