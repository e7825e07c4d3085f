"""Full traces pinned by digest.

The golden fixtures pin metrics and results, but not the per-edge
message order or the order of span/event records.  These digests pin
both: each is the sha256 of a run's ``repro-trace/1`` JSONL export.
The fault-free ones were recorded before the engine fixed inbox order
at delivery and before ``apsp_phase`` read its inbox in a single pass;
the faulty one before the delivery hook moved into ``obs.capture``.
"""

import hashlib

import pytest

from repro import core, obs
from repro.core.baselines import run_baseline_apsp
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
        "fd8da58b56c87ed934339d741914844e93228f33721965c2a4cf88674adb1e7a",
    ),
    # 198 messages delivered, 2 dropped: pins that the trace lists only
    # delivered messages, in the delivery hook's order.
    "apsp-faulty": (
        lambda: core.run_apsp(parse_graph("er:20:p=0.2:seed=5"), seed=0,
                              faults={"drop_rate": 0.02, "seed": 7}),
        "2897911ae7e39aa2433e5493cbd38c04525d066576cb58e6dc1b2b0d3bd26577",
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
