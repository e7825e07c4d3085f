"""Host ``repro serve`` in this process with timing wrappers installed.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/serve_host.py --out layers.json --compute-dir DIR \\
        [--cache-dir DIR]

The server runs through ``repro.serve.server.run_server`` at the same
defaults as ``repro serve``.  The wrappers go in before the worker pool
forks, so the workers inherit the ``repro.protocols.run`` timer; each
worker appends its compute times to ``DIR/compute-<pid>.txt`` because
its memory never returns to this process.  SIGUSR1 forgets everything
measured so far (the warm-up), and touches ``DIR/reset`` when done.
After SIGTERM drains the server, the per-layer summary goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from time import perf_counter
from typing import List

from layers import Tracer


def install_serve_layers(tracer: Tracer, compute_dir: str) -> None:
    """Wrap the public calls a served request goes through."""
    from repro import protocols
    from repro.harness.cache import RunCache
    from repro.serve import server
    from repro.serve.batch import SourceBatcher
    from repro.serve.cache import MatrixCache
    from repro.serve.service import DistanceService
    from repro.serve.stats import ServeStats
    from repro.serve.supervisor import Supervisor

    parse = tracer.sink("serve.server.read_request")
    read_request = server.read_request

    async def timed_read(reader, **kwargs):
        clock = _HeadClock(reader)
        request = await read_request(clock, **kwargs)
        if request is not None and clock.head_at is not None:
            parse.append(perf_counter() - clock.head_at)
        return request

    tracer.swap(server, "read_request", timed_read)
    tracer.wrap(server, "encode_response", "serve.server.encode_response")

    dispatch = tracer.sink("serve.dispatch")
    observe_request = ServeStats.observe_request

    def observe(self, endpoint, seconds, **kwargs):
        dispatch.append(seconds)
        return observe_request(self, endpoint, seconds, **kwargs)

    tracer.swap(ServeStats, "observe_request", observe)
    for attr in ("family_for", "lookup_row", "lookup_full", "matrix"):
        tracer.wrap(DistanceService, attr, "serve.service.lookup")
    tracer.wrap(SourceBatcher, "row", "serve.batch.row")
    tracer.wrap(Supervisor, "rows", "serve.supervisor.rows")
    tracer.wrap(Supervisor, "submit", "serve.supervisor.submit")
    tracer.wrap(MatrixCache, "store_rows", "serve.cache.store_rows")
    tracer.wrap(RunCache, "put", "harness.cache.put")

    run = protocols.run

    def timed_run(*args, **kwargs):
        start = perf_counter()
        try:
            return run(*args, **kwargs)
        finally:
            path = os.path.join(compute_dir, f"compute-{os.getpid()}.txt")
            with open(path, "a", encoding="ascii") as handle:
                handle.write(f"{perf_counter() - start!r}\n")

    tracer.swap(protocols, "run", timed_run)


class _HeadClock:
    """A reader proxy stamping when the request head has arrived.

    ``read_request`` awaits the head first and parses after, so timing
    from the stamp leaves out the wait for the client's next request.
    """

    def __init__(self, reader) -> None:
        self._reader = reader
        self.head_at = None

    async def readuntil(self, separator: bytes) -> bytes:
        data = await self._reader.readuntil(separator)
        self.head_at = perf_counter()
        return data

    def __getattr__(self, name):
        return getattr(self._reader, name)


def compute_samples(compute_dir: str) -> List[float]:
    """Every compute time the workers appended."""
    samples: List[float] = []
    for name in sorted(os.listdir(compute_dir)):
        if name.startswith("compute-"):
            with open(os.path.join(compute_dir, name), encoding="ascii") as handle:
                samples.extend(float(line) for line in handle if line.strip())
    return samples


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--compute-dir", required=True)
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args(argv)

    from repro.serve.server import ServerConfig, run_server

    tracer = Tracer()
    install_serve_layers(tracer, args.compute_dir)
    installed = tracer.installed

    def reset(signum, frame) -> None:
        tracer.reset()
        for name in os.listdir(args.compute_dir):
            if name.startswith("compute-"):
                os.remove(os.path.join(args.compute_dir, name))
        open(os.path.join(args.compute_dir, "reset"), "w").close()

    signal.signal(signal.SIGUSR1, reset)
    code = run_server(ServerConfig(port=0, cache_dir=args.cache_dir))
    tracer.remove()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({
            "installed": installed,
            "leftovers": tracer.leftovers(),
            "layers": tracer.summary(),
        }, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
