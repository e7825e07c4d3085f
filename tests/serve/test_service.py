"""The serve query path: correctness, tiers, persistence, validation.

Every check goes through a live ``ServerThread`` and its HTTP routes,
the one implementation of ``/distance``, ``/eccentricity`` and
``/diameter`` that ``repro serve`` runs.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import protocols
from repro.graphs import analysis
from repro.graphs.specs import parse_graph
from repro.obs import tracing
from repro.serve import QueryError, ServerThread


class Client:
    """Point queries against a running server; answers as JSON dicts."""

    def __init__(self, handle):
        self.url = handle.url

    def get(self, path, **query):
        url = f"{self.url}{path}?{urllib.parse.urlencode(query)}"
        with urllib.request.urlopen(url, timeout=60) as response:
            return json.loads(response.read().decode("utf-8"))

    def distance(self, graph, source, target, *, protocol="apsp",
                 params=None):
        return self.get("/distance", graph=graph, source=source,
                        target=target, protocol=protocol, **(params or {}))

    def eccentricity(self, graph, node, *, protocol="apsp", params=None):
        return self.get("/eccentricity", graph=graph, node=node,
                        protocol=protocol, **(params or {}))

    def diameter(self, graph, *, protocol="apsp", params=None):
        return self.get("/diameter", graph=graph, protocol=protocol,
                        **(params or {}))

    def stats(self):
        return self.get("/stats")


def growth(before, after):
    """How far the tier and run counters moved between two /stats."""
    moved = {tier: after["cache"][tier] - before["cache"][tier]
             for tier in ("memory", "disk", "computed")}
    moved["protocol_runs"] = after["protocol_runs"] - before["protocol_runs"]
    return moved


@pytest.fixture(scope="module")
def client():
    # Tests share this server, so each uses its own graph family and
    # reads counters as growth over its own queries.
    with ServerThread(workers=1) as handle:
        yield Client(handle)


def test_distance_matches_bfs_and_warms_to_memory(client):
    graph = parse_graph("cycle:10")
    before = client.stats()
    first = client.distance("cycle:10", 1, 6)
    assert first["distance"] == analysis.bfs_distances(graph, 1)[6]
    assert first["tier"] == "computed"
    # Same row: memory.  Symmetric query: also memory (either row).
    assert client.distance("cycle:10", 1, 4)["tier"] == "memory"
    assert client.distance("cycle:10", 4, 1)["tier"] == "memory"
    assert growth(before, client.stats()) == {
        "memory": 2, "disk": 0, "computed": 1, "protocol_runs": 1,
    }


def test_eccentricity_and_diameter_match_oracle(client):
    graph = parse_graph("grid:3x4")
    ecc = client.eccentricity("grid:3x4", 1)
    assert ecc["eccentricity"] == analysis.eccentricity(graph, 1)
    diam = client.diameter("grid:3x4")
    assert diam["diameter"] == analysis.diameter(graph)
    # The full matrix now answers everything from memory.
    assert client.diameter("grid:3x4")["tier"] == "memory"
    assert client.distance("grid:3x4", 5, 9)["tier"] == "memory"


def test_weighted_backend_matches_direct_run(client):
    graph = parse_graph("path:6")
    before = client.stats()
    for params in ({"max_weight": 3, "weight_seed": 1},
                   {"max_weight": 5, "weight_seed": 2}):
        expected = protocols.run("weighted-apsp", graph, dict(params))
        got = client.distance("path:6", 1, 6, protocol="weighted-apsp",
                              params=params)
        assert got["distance"] == expected.summary.distances[1][6]
        # Each weighting is its own family: a fresh run, never a hit.
        assert got["tier"] == "computed"
    assert growth(before, client.stats())["protocol_runs"] == 2


def test_run_cache_survives_service_restart(tmp_path):
    with ServerThread(cache_dir=str(tmp_path), workers=1) as handle:
        first = Client(handle)
        assert first.diameter("path:9")["diameter"] == 8
        assert first.stats()["protocol_runs"] == 1
    # A fresh server over the same cache dir answers from disk
    # without re-running any simulation.
    with ServerThread(cache_dir=str(tmp_path), workers=1) as handle:
        second = Client(handle)
        answer = second.diameter("path:9")
        assert answer["tier"] == "disk"
        assert answer["diameter"] == 8
        assert second.stats()["protocol_runs"] == 0


def test_point_rows_persist_per_source(tmp_path):
    with ServerThread(cache_dir=str(tmp_path), workers=1) as handle:
        Client(handle).distance("cycle:12", 3, 9)
    with ServerThread(cache_dir=str(tmp_path), workers=1) as handle:
        second = Client(handle)
        assert second.distance("cycle:12", 3, 9)["tier"] == "disk"
        # A row never computed is still a cold miss.
        assert second.distance("cycle:12", 5, 6)["tier"] == "computed"


@pytest.mark.parametrize("call", [
    lambda c: c.distance("cycle:10", 0, 3),
    lambda c: c.distance("cycle:10", 1, 99),
    lambda c: c.eccentricity("cycle:10", -1),
    lambda c: c.distance("nope:10", 1, 2),
    lambda c: c.distance("file:/does/not/exist.txt", 1, 2),
    lambda c: c.distance("cycle:10", 1, 2, protocol="girth"),
    lambda c: c.distance("cycle:10", 1, 2, params={"max_weight": 3}),
])
def test_bad_queries_raise_query_error(client, call):
    # A QueryError answers 400 with the reason.
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        call(client)
    assert excinfo.value.code == 400
    assert "error" in json.loads(excinfo.value.read().decode("utf-8"))


def test_obs_span_wraps_protocol_runs(client):
    # The server emits one serve_pool_job span per pool job; a memory
    # hit submits no job, so it adds no span.
    with tracing() as tracer:
        client.distance("path:7", 1, 7)
        client.diameter("path:7")
        client.distance("path:7", 1, 7)
    spans = [span for span in tracer.finished_spans()
             if span.name == "serve_pool_job"]
    assert [span.attrs["kind"] for span in spans] == ["rows", "full"]
    for span in spans:
        assert span.attrs["graph"] == "path:7"
        assert span.attrs["rounds"] > 0


def test_unknown_policy_is_rejected_before_serving():
    with pytest.raises(QueryError, match="unknown bandwidth policy 'bogus'"):
        ServerThread(policy="bogus")


def test_vector_backend_rejects_non_strict_policy():
    pytest.importorskip("numpy")
    with pytest.raises(QueryError, match="only the 'strict' bandwidth"):
        ServerThread(backend="vector", policy="serialize")
