"""Round-trip tests for the edge-list serialization."""

from hypothesis import given
from hypothesis import strategies as st

from repro.graphs import Graph, path_graph
from repro.graphs.io import dumps, load_edge_list, loads_edge_list, save
from tests.conftest import random_connected_graph


@given(st.integers(min_value=2, max_value=30),
       st.integers(min_value=0, max_value=10**6))
def test_roundtrip_random_graphs(n, seed):
    graph = random_connected_graph(n, seed)
    assert loads_edge_list(dumps(graph)) == graph


def test_roundtrip_with_isolated_nodes():
    graph = Graph([1, 2, 3, 9], [(1, 2)])
    assert loads_edge_list(dumps(graph)) == graph


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\nn 3\n1 2\n2 3\n"
    graph = loads_edge_list(text)
    assert graph == path_graph(3)


def test_file_roundtrip(tmp_path):
    graph = random_connected_graph(12, 5)
    target = tmp_path / "graph.txt"
    save(graph, target)
    assert load_edge_list(target) == graph

