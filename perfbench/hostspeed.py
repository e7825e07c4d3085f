"""Reference kernels that measure the host's speed next to each workload.

On a shared virtual machine the same code runs at speeds that move in
plateaus lasting seconds to minutes: one object-engine APSP run took
anywhere from 0.42 s to 0.87 s within four minutes on a 2-vCPU host.
A fixed workload measured minutes apart therefore differs by more than
any useful regression bound.

The benchmark times a fixed kernel in the same process right after each
run and scales every run to the speed at which the kernel takes its
reference time:

    reported = measured * REFERENCE_S / median(the 3 nearest kernel times)

Scaling each run by its neighbours rather than the whole window by one
median matters when the speed changes within a window: with one factor,
the runs made at the slower speed inflated the tail.

The kernels belong to the benchmark, not to the program, so a change to
the program never moves them.  Each kernel resembles the code it
calibrates: a pure-Python BFS for the interpreter-bound object engine
and numpy array passes for the vector engine.  Only the run workloads
are scaled.  A kernel timed in the serve client did not track the
server's latency (scaling made serve spreads wider), and set-up times
are too short to pair with a kernel sample.
"""

from __future__ import annotations

import gc
import random
import statistics
from collections import deque
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: Kernel time (seconds) at which reported timings equal measured ones:
#: about the median of each kernel, timed between runs, on the 2-vCPU
#: host the benchmark was sized on.
REFERENCE_S = {"python": 0.016, "numpy": 0.070}

_state: Dict[str, object] = {}


def _adjacency() -> Dict[int, Tuple[int, ...]]:
    adjacency = _state.get("adjacency")
    if adjacency is None:
        rng = random.Random(7)
        sets = {u: set() for u in range(200)}
        for u in range(200):
            for v in range(u + 1, 200):
                if rng.random() < 0.05:
                    sets[u].add(v)
                    sets[v].add(u)
        adjacency = {u: tuple(sorted(vs)) for u, vs in sets.items()}
        _state["adjacency"] = adjacency
    return adjacency


def python_kernel() -> Tuple[float, int]:
    """All-pairs BFS on a fixed 200-node graph: (seconds, checksum)."""
    adjacency = _adjacency()
    start = perf_counter()
    total = 0
    for source in adjacency:
        dist = {source: 0}
        frontier = deque([source])
        while frontier:
            u = frontier.popleft()
            du = dist[u] + 1
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = du
                    frontier.append(v)
        total += sum(dist.values())
    return perf_counter() - start, total


def numpy_kernel() -> Tuple[float, int]:
    """Histogram, sort and scan passes over fixed arrays: (seconds, checksum)."""
    import numpy as np

    data = _state.get("array")
    if data is None:
        data = np.random.default_rng(7).integers(0, 1 << 20, size=1 << 20)
        _state["array"] = data
    start = perf_counter()
    checksum = 0
    for _ in range(3):
        counts = np.bincount(data & 0xFFFF, minlength=1 << 16)
        order = np.argsort(data[: 1 << 17], kind="stable")
        scan = np.cumsum((data * 3 + 1) >> 2)
        checksum = int(counts.max()) + int(order[0]) + int(scan[-1])
    return perf_counter() - start, checksum


KERNELS: Dict[str, Callable[[], Tuple[float, int]]] = {
    "python": python_kernel,
    "numpy": numpy_kernel,
}


class Speedometer:
    """Kernel samples of one window and the scale they imply."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.samples: List[float] = []

    def sample(self) -> None:
        """Time the kernel once on a collected heap, collector off.

        The kernel runs right after the program in the same process, so
        without this the garbage a run leaves behind would slow the
        kernel and move the scale against the program's own change.
        """
        gc.collect()
        gc.disable()
        try:
            self.samples.append(KERNELS[self.kind]()[0])
        finally:
            gc.enable()

    def scaled(self, times: List[float]) -> List[float]:
        """Each run time scaled by the kernel samples nearest to it.

        Sample ``i`` is timed right after run ``i``.  Run ``i`` is scaled
        by the median of samples ``i - 1``, ``i`` and ``i + 1``, so a
        host that changes speed within the window has each run scaled
        by the speed it ran at, and one disturbed sample cannot move it.
        """
        reference = REFERENCE_S[self.kind]
        return [
            t * reference / statistics.median(self.samples[max(0, i - 1):i + 2])
            for i, t in enumerate(times)
        ]
