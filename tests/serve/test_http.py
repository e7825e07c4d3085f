"""End-to-end HTTP tests against a live server thread."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro import protocols
from repro.graphs import analysis
from repro.graphs.specs import parse_graph
from repro.serve import ServerThread


def get(url, path):
    with urllib.request.urlopen(url + path, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def get_status(url, path):
    try:
        with urllib.request.urlopen(url + path, timeout=30) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


@pytest.fixture(scope="module")
def server():
    with ServerThread(graphs=("cycle:12",)) as handle:
        yield handle


def test_healthz_and_graphs(server):
    assert get(server.url, "/healthz") == {"ok": True}
    graphs = get(server.url, "/graphs")["graphs"]
    assert {"spec": "cycle:12", "n": 12, "m": 12} in graphs


def test_post_graphs_preloads(server):
    body = json.dumps({"spec": "path:7"}).encode()
    request = urllib.request.Request(
        server.url + "/graphs", data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        payload = json.loads(response.read().decode())
    assert payload == {"spec": "path:7", "n": 7, "m": 6}


def test_distance_e2e_apsp_with_cache_hit(server):
    graph = parse_graph("cycle:12")
    expected = analysis.bfs_distances(graph, 2)[9]
    first = get(server.url, "/distance?graph=cycle:12&source=2&target=9")
    assert first["distance"] == expected
    assert first["tier"] == "computed"
    again = get(server.url, "/distance?graph=cycle:12&source=2&target=9")
    assert again["distance"] == expected
    assert again["tier"] == "memory"
    # The repeat shows up as a cache hit in /stats.
    stats = get(server.url, "/stats")
    assert stats["cache"]["memory"] >= 1
    assert stats["cache"]["hits"] >= 1
    assert stats["endpoints"]["/distance"]["count"] >= 2
    assert stats["endpoints"]["/distance"]["errors"] == 0


def test_distance_e2e_weighted_apsp(server):
    graph = parse_graph("cycle:12")
    expected = protocols.run(
        "weighted-apsp", graph, {"max_weight": 3, "weight_seed": 1}
    ).summary.distances[1][7]
    path = ("/distance?graph=cycle:12&source=1&target=7"
            "&protocol=weighted-apsp&max_weight=3&weight_seed=1")
    first = get(server.url, path)
    assert first["distance"] == expected
    assert first["tier"] == "computed"
    assert get(server.url, path)["tier"] == "memory"


def test_eccentricity_and_diameter_e2e(server):
    graph = parse_graph("cycle:12")
    ecc = get(server.url, "/eccentricity?graph=cycle:12&node=5")
    assert ecc["eccentricity"] == analysis.eccentricity(graph, 5)
    diam = get(server.url, "/diameter?graph=cycle:12")
    assert diam["diameter"] == analysis.diameter(graph)
    assert get(server.url, "/diameter?graph=cycle:12")["tier"] == "memory"


def test_error_statuses(server):
    for path, want in [
        ("/distance?graph=cycle:12&source=1", 400),     # missing target
        ("/distance?graph=cycle:12&source=1&target=99", 400),
        ("/distance?graph=cycle:12&source=x&target=2", 400),
        ("/distance?graph=bogus:3&source=1&target=2", 400),
        ("/distance?graph=cycle:12&source=1&target=2&protocol=nope", 400),
        ("/nope", 404),
    ]:
        status, payload = get_status(server.url, path)
        assert status == want, path
        assert "error" in payload


def test_batched_server_side_coalescing():
    """Concurrent cold HTTP queries coalesce into few S-SP runs."""
    import concurrent.futures

    with ServerThread(graphs=("er:32:p=0.12:seed=5",),
                      workers=1) as handle:
        paths = [
            f"/distance?graph=er:32:p=0.12:seed=5&source={s}&target=1"
            for s in range(2, 12)
        ]
        with concurrent.futures.ThreadPoolExecutor(10) as pool:
            results = list(pool.map(
                lambda p: get(handle.url, p), paths
            ))
        graph = parse_graph("er:32:p=0.12:seed=5")
        for path, result in zip(paths, results):
            source = int(path.split("source=")[1].split("&")[0])
            assert result["distance"] == \
                analysis.bfs_distances(graph, source)[1]
        snap = handle.service.stats.snapshot()["batches"]
        assert snap["sources"] == 10
        # Coalescing happened: far fewer runs than queries.
        assert snap["count"] < 10
        assert snap["max_size"] >= 2


def test_concurrent_cold_diameter_misses_share_one_job():
    """Concurrent misses for one family's full matrix share one run."""
    import concurrent.futures

    with ServerThread(
        workers=2,
        chaos={"mode": "hang", "seconds": 0.5,
               "kinds": ["full"], "jobs": 1},
    ) as handle:
        before = get(handle.url, "/stats")
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            results = list(pool.map(
                lambda _: get_status(handle.url, "/diameter?graph=cycle:12"),
                range(4),
            ))
        for status, payload in results:
            assert (status, payload["diameter"]) == (200, 6)
        after = get(handle.url, "/stats")
        assert (after["supervisor"]["submitted"]
                - before["supervisor"]["submitted"]) == 1
        assert after["protocol_runs"] - before["protocol_runs"] == 1
