"""Stable content hashing for run tasks.

A task's *content address* is the SHA-256 of its canonical JSON
rendering plus a code-version salt.  Canonical means: sorted keys, no
insignificant whitespace, and no reliance on dict insertion order — two
semantically identical tasks hash identically regardless of how their
payload dicts were built, in which process, or on which platform.

The salt exists because cached records embed *outputs* (round counts,
bit totals).  Whenever an algorithm or the simulator changes observable
behaviour, bump :data:`CODE_VERSION`; every existing cache entry then
misses and is transparently recomputed.  Sweep specs can add their own
``salt`` on top (e.g. to segregate scratch experiments).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

#: Invalidation salt for the run cache.  Bump on any change that can
#: alter the outputs of a simulation (round counts, metrics, results).
CODE_VERSION = "hw12-harness-3"


def canonical_json(payload: Any) -> str:
    """Render ``payload`` as canonical JSON (sorted keys, tight format).

    ``allow_nan`` stays on: girth records legitimately carry
    ``Infinity`` for acyclic graphs, and Python's reader round-trips it.
    """
    return json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )


def content_hash(payload: Any) -> str:
    """Hex SHA-256 of the canonical JSON rendering of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()


def task_key(task_payload: Mapping[str, Any], *, salt: str = "") -> str:
    """Content address of one run task.

    ``task_payload`` is the deterministic task description (graph spec,
    algorithm, params); the key folds in :data:`CODE_VERSION` and any
    campaign-level ``salt``.
    """
    return content_hash(
        {
            "code_version": CODE_VERSION,
            "salt": salt,
            "task": task_payload,
        }
    )
