"""``repro.serve`` — the persistent distance-query service.

Production framing of the paper's query-shaped algorithms: a
long-running asyncio HTTP+JSON server that loads graphs once, runs
registered protocols on demand through :func:`repro.protocols.run`,
memoizes distance matrices in the content-addressed run cache, and
answers point ``distance`` / ``eccentricity`` / ``diameter`` queries
from resident matrices at memory speed.  Cold queries against one
graph that arrive while every worker is busy coalesce into a single
Algorithm 2 (S-SP) run — ``O(|S| + D)`` rounds for the whole batch.
See ``docs/serving.md``.

Layering (transport-independent core first):

* :mod:`~repro.serve.matrix` — query families and distance matrices;
* :mod:`~repro.serve.cache` — in-memory LRU over the on-disk RunCache;
* :mod:`~repro.serve.service` — graphs, validation, lookups, compute jobs;
* :mod:`~repro.serve.batch` — the source batcher: a cold miss runs at
  once on an idle worker, and misses coalesce while the pool is busy;
* :mod:`~repro.serve.stats` — the ``/stats`` counters;
* :mod:`~repro.serve.supervisor` — cold computes on the supervised
  worker-process pool of :mod:`repro.harness.pool` (deadlines, crash
  retry, respawn), plus chaos injection;
* :mod:`~repro.serve.server` — the HTTP front end, the failing-family
  rule + shutdown;
* :mod:`~repro.serve.loadgen` — the ``repro serve-bench`` harness;
* :mod:`~repro.serve.chaos` — the ``repro serve-chaos`` harness.
"""

from .batch import DEFAULT_MAX_BATCH, SourceBatcher
from .cache import DEFAULT_MAX_BYTES, MatrixCache
from .chaos import (
    SCHEMA as CHAOS_SCHEMA,
    ChaosOptions,
    run_chaos,
)
from .loadgen import (
    SCHEMA as LOADGEN_SCHEMA,
    LoadgenOptions,
    render_summary,
    run_loadgen,
    write_artifact,
)
from .matrix import DistanceMatrix, QueryFamily
from .server import (
    DistanceServer,
    HttpProtocolError,
    ServerConfig,
    ServerThread,
    run_server,
)
from .service import DistanceService, QueryError
from .stats import ServeStats
from .supervisor import (
    ChaosPlan,
    ComputeFailed,
    DeadlineExceeded,
    PoolSaturated,
    Supervisor,
    SupervisorError,
)

__all__ = [
    "CHAOS_SCHEMA",
    "ChaosOptions",
    "ChaosPlan",
    "ComputeFailed",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_BYTES",
    "DeadlineExceeded",
    "DistanceMatrix",
    "DistanceServer",
    "DistanceService",
    "HttpProtocolError",
    "LOADGEN_SCHEMA",
    "LoadgenOptions",
    "MatrixCache",
    "PoolSaturated",
    "QueryError",
    "QueryFamily",
    "ServeStats",
    "ServerConfig",
    "ServerThread",
    "SourceBatcher",
    "Supervisor",
    "SupervisorError",
    "render_summary",
    "run_chaos",
    "run_loadgen",
    "run_server",
    "write_artifact",
]
