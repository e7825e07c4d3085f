"""Full traces pinned by digest.

The golden fixtures pin metrics and results, but not the per-edge
message order or the order of span/event records.  These digests pin
both: each is the sha256 of a run's ``repro-trace/1`` JSONL export.
The first four fault-free ones were recorded before the engine fixed
inbox order at delivery and before ``apsp_phase`` read its inbox in a
single pass; ``apsp-faulty`` before the delivery hook moved into
``obs.capture``; the seven Algorithm 2 callers from ``ssp-id-rule`` on
before ``ssp_main_loop`` moved to per-edge heaps, idle-round skipping
and one shared offer per (source, distance).  ``ssp``, ``girth-approx``
and ``prt-diameter`` were re-recorded when Algorithm 2 stopped offering
a source back to its new parent (Line 22), which removed 1, 2 and 25 of
their messages and left their rounds and results unchanged.
"""

import hashlib

import pytest

from repro import core, obs
from repro.core.baselines import run_baseline_apsp
from repro.graphs.generators import cycle_graph
from repro.graphs.specs import parse_graph

CASES = {
    "apsp": (
        lambda: core.run_apsp(parse_graph("er:20:p=0.2:seed=5"), seed=0),
        "8f536a3bd6feced030446bdaa6ce58916c2f892af2f1cf85c20e32c441895025",
    ),
    "apsp-girth": (
        lambda: core.run_apsp(parse_graph("er:20:p=0.2:seed=5"),
                              collect_girth=True, seed=1),
        "8f536a3bd6feced030446bdaa6ce58916c2f892af2f1cf85c20e32c441895025",
    ),
    "sequential-bfs": (
        lambda: run_baseline_apsp(parse_graph("path:10"), "sequential-bfs"),
        "4ce1260feca683086e26108553203ee435b10dc6923a4e2710161ac42fddcbd6",
    ),
    "ssp": (
        lambda: core.run_ssp(parse_graph("er:24:p=0.15:seed=2"), [1, 4, 9]),
        "9caa68ce5d17a90c98ab3cf51adeb2f38180b87ba7dca4ed7a7ca2969a1e97d9",
    ),
    # 198 messages delivered, 2 dropped: pins that the trace lists only
    # delivered messages, in the delivery hook's order.
    "apsp-faulty": (
        lambda: core.run_apsp(parse_graph("er:20:p=0.2:seed=5"), seed=0,
                              faults={"drop_rate": 0.02, "seed": 7}),
        "2897911ae7e39aa2433e5493cbd38c04525d066576cb58e6dc1b2b0d3bd26577",
    ),
    # Every other caller of Algorithm 2's main loop: the paper's id rule,
    # a depth limit, cycle detection, multi-phase runs, a fault plan.
    "ssp-id-rule": (
        lambda: core.run_ssp(cycle_graph(9), [2, 3, 4, 5, 7, 8, 9],
                             priority="id"),
        "19d5ea6b2ef78f04faeb0ad9b07d6c651bd594942dbcc2bc4468ad3b6b4e2187",
    ),
    "k-bfs": (
        lambda: core.run_k_bfs(parse_graph("er:24:p=0.15:seed=2"),
                               [1, 4, 9], 2),
        "daa611c39406c555da247ec5715615f88b16785f478a6eab573d5e9151b98306",
    ),
    "girth-approx": (
        lambda: core.run_approx_girth(parse_graph("torus:6x6"), 0.5),
        "9635de6e2cdf15489028b2fb713b600a94858881570d9097cb78c730b4f5bb6b",
    ),
    "approx-properties": (
        lambda: core.run_approx_properties(parse_graph("torus:6x6"), 0.5),
        "340677d529e9c24746ca5744d7e73baee40cce0ae83100ebd85274a9c4c23008",
    ),
    "prt-diameter": (
        lambda: core.run_prt_diameter(parse_graph("er:40:p=0.08:seed=3")),
        "820175f6756231b11f8c68fc017c5f9bfc1cf4fc38f2ae4c52b352ab290f84d5",
    ),
    # |S| = 8.
    "two-vs-four": (
        lambda: core.run_two_vs_four(parse_graph("diameter2:32:seed=1")),
        "d9e572379f10e45d833ab0d3a59c545e9254aeded29a6b424b144e4e475f9e0c",
    ),
    "ssp-faulty": (
        lambda: core.run_ssp(parse_graph("er:24:p=0.15:seed=2"), [1, 4, 9],
                             faults={"drop_rate": 0.05, "seed": 7}),
        "a20c52c442be6238669bed94d21e3c795bdfa381d4ba450fbc7c0b890f77d9d4",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_digest_unchanged(name):
    run, expected = CASES[name]
    with obs.capture() as session:
        run()
    lines = obs.to_jsonl(session.trace)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == expected
