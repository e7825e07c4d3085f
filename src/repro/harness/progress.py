"""Terminal progress reporting for campaign runs.

A tiny single-line reporter: no dependencies, carriage-return updates
on TTYs, plain incremental lines otherwise (so CI logs stay readable).
The campaign driver calls :meth:`ProgressReporter.task_done` from the
main process only — worker processes never print.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO


class ProgressReporter:
    """Running ``done/total`` tally with cache-hit and failure counts."""

    def __init__(
        self,
        total: int,
        *,
        label: str = "campaign",
        stream: Optional[TextIO] = None,
        min_interval_s: float = 0.1,
    ) -> None:
        self.total = total
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.done = 0
        self.cache_hits = 0
        self.failures = 0
        self._started = time.monotonic()
        self._last_emit = 0.0
        self._min_interval_s = min_interval_s
        self._dirty = False

    def task_done(self, *, cache_hit: bool = False,
                  failed: bool = False) -> None:
        """Record one finished task and maybe redraw the status line."""
        self.done += 1
        if cache_hit:
            self.cache_hits += 1
        if failed:
            self.failures += 1
        self._dirty = True
        now = time.monotonic()
        throttled = (now - self._last_emit) < self._min_interval_s
        if not throttled or self.done == self.total:
            self._emit(now)

    def status(self) -> str:
        """The current one-line status text."""
        elapsed = time.monotonic() - self._started
        parts = [
            f"{self.label}: {self.done}/{self.total} tasks",
            f"{self.cache_hits} cached",
        ]
        if self.failures:
            parts.append(f"{self.failures} failed")
        parts.append(f"{elapsed:.1f}s")
        return " · ".join(parts)

    def close(self) -> None:
        """Emit the final status (if anything changed) and end the line."""
        if self._dirty:
            self._emit(time.monotonic())
        if self._interactive():
            self.stream.write("\n")
            self.stream.flush()

    # -- internals ---------------------------------------------------------

    def _interactive(self) -> bool:
        return bool(getattr(self.stream, "isatty", lambda: False)())

    def _emit(self, now: float) -> None:
        text = self.status()
        if self._interactive():
            self.stream.write(f"\r\x1b[2K{text}")
        else:
            self.stream.write(text + "\n")
        self.stream.flush()
        self._last_emit = now
        self._dirty = False
