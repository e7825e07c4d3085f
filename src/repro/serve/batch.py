"""The request batcher: concurrent queries → one Algorithm 2 run.

Algorithm 2 computes S-shortest-paths for an *arbitrary* source set in
``O(|S| + D)`` rounds — it is a batch API by construction.  The
batcher exploits that: cold row requests arriving within one
*simulation tick* against the same :class:`~repro.serve.matrix.
QueryFamily` are coalesced into a single source set and answered by
one S-SP run, so ``k`` concurrent misses cost ``|S| + D + O(1)``
rounds instead of ``k`` separate ``D + O(1)``-round runs.

Mechanics:

* the first request for a family opens a *window*; requests landing
  during the window (``tick_s`` seconds) join its source set, with
  duplicate sources sharing one future;
* when the window closes, the batch runs through the ``run_rows``
  runner — in ``repro serve`` the supervised worker pool
  (:meth:`repro.serve.supervisor.Supervisor.rows`, wrapped with
  circuit-breaker bookkeeping), so a crashed or slow run costs a
  worker process, not the server;
* oversize windows split: at most ``max_batch`` sources per run, the
  remainder reopens a window immediately.

Runner failures (worker crash budget spent, deadline exceeded, pool
saturated) propagate to every waiter in the window; the HTTP layer
maps them onto the 429/503/degraded contract (docs/serving.md).

:meth:`drain` waits for every open window and in-flight run — the
graceful-shutdown path, so SIGINT never drops an accepted query.
"""

from __future__ import annotations

import asyncio
from typing import Awaitable, Callable, Dict, List, Optional, Set

from .matrix import QueryFamily

#: Default coalescing window: long enough for concurrent clients to
#: pile onto one batch, short enough to be invisible next to a run.
DEFAULT_TICK_S = 0.005

#: Algorithm 2's round cost is linear in |S|; cap a single batch so one
#: huge window cannot monopolize the simulation worker.
DEFAULT_MAX_BATCH = 64

#: A compute runner for batched rows: ``await run_rows(family, sources)``.
RowsRunner = Callable[[QueryFamily, List[int]], Awaitable[None]]

#: A compute runner for full matrices: ``await run_full(family)``.
FullRunner = Callable[[QueryFamily], Awaitable[None]]


class _Window:
    """One open coalescing window for a family."""

    __slots__ = ("sources", "waiters", "task")

    def __init__(self) -> None:
        self.sources: List[int] = []
        self.waiters: Dict[int, asyncio.Future] = {}
        self.task: Optional[asyncio.Task] = None


class SourceBatcher:
    """Coalesces per-source row requests into batched S-SP runs."""

    def __init__(
        self,
        run_rows: RowsRunner,
        run_full: FullRunner,
        *,
        tick_s: float = DEFAULT_TICK_S,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        self.tick_s = tick_s
        self.max_batch = max(1, int(max_batch))
        self._windows: Dict[QueryFamily, _Window] = {}
        self._inflight: Set[asyncio.Task] = set()
        self._run_rows = run_rows
        self._run_full = run_full
        self._closed = False

    # -- request side ------------------------------------------------------

    async def row(self, family: QueryFamily, source: int) -> None:
        """Ensure ``source``'s row is cached, batching with neighbors.

        Returns once the row is resident; raises whatever the
        underlying run raised.
        """
        if self._closed:
            raise RuntimeError("batcher is shut down")
        window = self._windows.get(family)
        if window is None or len(window.sources) >= self.max_batch:
            window = _Window()
            self._windows[family] = window
            window.task = asyncio.ensure_future(
                self._flush_after_tick(family, window)
            )
            self._track(window.task)
        future = window.waiters.get(source)
        if future is None:
            future = asyncio.get_running_loop().create_future()
            window.waiters[source] = future
            window.sources.append(source)
        await asyncio.shield(future)

    async def full(self, family: QueryFamily) -> None:
        """Ensure the complete matrix is cached (no coalescing axis)."""
        task = asyncio.ensure_future(self._run_full(family))
        self._track(task)
        await asyncio.shield(task)

    # -- flush side --------------------------------------------------------

    def _track(self, task: asyncio.Task) -> None:
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _flush_after_tick(
        self, family: QueryFamily, window: _Window
    ) -> None:
        await asyncio.sleep(self.tick_s)
        if self._windows.get(family) is window:
            del self._windows[family]
        try:
            await self._run_rows(family, list(window.sources))
        except BaseException as exc:  # propagate to every waiter
            for future in window.waiters.values():
                if not future.done():
                    future.set_exception(exc)
            return
        for future in window.waiters.values():
            if not future.done():
                future.set_result(None)

    # -- lifecycle ---------------------------------------------------------

    async def drain(self) -> int:
        """Flush every open window and wait out in-flight runs.

        Returns the number of tasks awaited; used by graceful shutdown
        so accepted queries are answered before the process exits.
        """
        self._closed = True
        drained = 0
        while self._inflight or self._windows:
            pending = list(self._inflight)
            if not pending:
                await asyncio.sleep(0)
                continue
            drained += len(pending)
            await asyncio.gather(*pending, return_exceptions=True)
        return drained
