"""Campaign harness: parallel, cached parameter sweeps over the simulator.

Sweeping the paper's algorithms over graph family × size × seed means
running many independent, deterministic simulations — (graph spec ×
algorithm × params × seed) — and ``repro campaign`` runs them all
through this subsystem, which makes those sweeps cheap and repeatable:

* :mod:`~repro.harness.spec` — declarative sweep specs and their
  expansion into independent, picklable :class:`~repro.harness.spec.Task`
  descriptors.
* :mod:`~repro.harness.runner` — the per-task executor mapping an
  algorithm name onto the :mod:`repro.core` entry points, producing a
  deterministic result record.
* :mod:`~repro.harness.hashing` — canonical JSON hashing; every task has
  a stable content address incorporating a code-version salt.
* :mod:`~repro.harness.cache` — a content-addressed on-disk run cache
  keyed by those hashes, so a sweep is only ever computed once.
* :mod:`~repro.harness.store` — an append-only JSONL result store with a
  query/aggregation API for reading a campaign's records back.
* :mod:`~repro.harness.campaign` — the orchestrator: expand, consult the
  cache, shard misses across worker processes, emit records in
  deterministic task order.
* :mod:`~repro.harness.pool` — the supervised worker-process pool
  (deadlines, crash retry with exact blame, respawn) that campaigns
  and ``repro serve`` both run on; imported only when needed.
* :mod:`~repro.harness.progress` — terminal progress reporting.

Quickstart::

    from repro.harness import CampaignSpec, run_campaign

    spec = CampaignSpec.from_dict({
        "name": "apsp-sweep",
        "graphs": ["path:{n}", "torus:6x6"],
        "sizes": [20, 40],
        "seeds": [0, 1],
        "algorithms": ["apsp"],
    })
    summary = run_campaign(spec, jobs=4, cache_dir=".repro-cache")
    for record in summary.records:
        print(record["task"]["graph"], record["metrics"]["rounds"])

See ``docs/harness.md`` for the spec format and cache layout.
"""

from .cache import RunCache
from .campaign import CampaignSummary, run_campaign, run_tasks
from .hashing import CODE_VERSION, canonical_json, task_key
from .progress import ProgressReporter
from .runner import execute_task
from .spec import CampaignSpec, SpecError, Task, load_spec
from .store import ResultStore, strip_timing

__all__ = [
    "CODE_VERSION",
    "CampaignSpec",
    "CampaignSummary",
    "ProgressReporter",
    "ResultStore",
    "RunCache",
    "SpecError",
    "Task",
    "canonical_json",
    "execute_task",
    "load_spec",
    "run_campaign",
    "run_tasks",
    "strip_timing",
    "task_key",
]
