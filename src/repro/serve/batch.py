"""The request batcher: concurrent queries → one Algorithm 2 run.

Algorithm 2 computes S-shortest-paths for an *arbitrary* source set in
``O(|S| + D)`` rounds — it is a batch API by construction.  Cold row
misses against one :class:`~repro.serve.matrix.QueryFamily` that
arrive while every pool worker is busy are coalesced into one source
set and answered by one S-SP run, so ``k`` overlapping misses cost
``|S| + D + O(1)`` rounds instead of ``k · (D + O(1))``.  Coalescing
saves worker time only when a miss would otherwise wait for a worker,
so an idle worker takes a miss at once.

Mechanics:

* the first miss for a family opens a *window*.  It yields one
  event-loop turn, so misses that arrive together share it, then waits
  on :meth:`repro.harness.pool.Pool.idle` unless it already holds
  ``max_batch`` sources (a new window takes the next miss).  Each
  settled job wakes the waiting windows in the order they opened, so
  the freed worker goes to the earliest, and a window whose compute is
  refused passes it on;
* a miss whose source is already pending, in an open window or an
  in-flight run, joins that source's future;
* the wait counts against the pool's ``deadline_s``: the run gets what
  is left, and a window still waiting when it runs out is refused with
  :class:`DeadlineExceeded`;
* the run goes through ``run_rows`` — in ``repro serve``
  :meth:`repro.serve.supervisor.Supervisor.rows` under the server's
  failing-family rule;
* concurrent full-matrix requests for one family share its run.

Runner failures propagate to every waiter in the window; the HTTP
layer maps them onto the 429/503/degraded contract (docs/serving.md).
Shutdown calls :meth:`close` as it begins, so a row miss from then on
is refused with :class:`Draining`, and :meth:`drain` waits for every
open window and in-flight run, so SIGINT never drops an accepted
query.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, Dict, List, Optional, Set

from ..harness.pool import DeadlineExceeded, Pool
from .matrix import QueryFamily

#: Algorithm 2's round cost is linear in |S|; cap a single batch so one
#: huge window cannot monopolize the simulation worker.
DEFAULT_MAX_BATCH = 64

#: A compute runner for batched rows:
#: ``await run_rows(family, sources, deadline_s)``, where ``deadline_s``
#: is the wall-clock budget left for the run (``None``: unbounded).
RowsRunner = Callable[
    [QueryFamily, List[int], Optional[float]], Awaitable[None]
]

#: A compute runner for full matrices: ``await run_full(family)``.
FullRunner = Callable[[QueryFamily], Awaitable[None]]


class Draining(RuntimeError):
    """A cold row miss refused because shutdown has begun."""


class SourceBatcher:
    """Coalesces per-source row requests into batched S-SP runs.

    ``pool`` is the worker pool the runners submit to: its occupancy
    closes windows and its ``deadline_s`` bounds each window from
    opening to answer.
    """

    def __init__(
        self,
        run_rows: RowsRunner,
        run_full: FullRunner,
        *,
        pool: Pool,
        max_batch: int = DEFAULT_MAX_BATCH,
    ) -> None:
        self.max_batch = max(1, int(max_batch))
        self._pool = pool
        #: The open (still growing) window of each family: its sources.
        self._windows: Dict[QueryFamily, List[int]] = {}
        #: Per family, every source pending in an open window or an
        #: in-flight run, and the future its waiters share.
        self._pending: Dict[QueryFamily, Dict[int, asyncio.Future]] = {}
        self._full: Dict[QueryFamily, asyncio.Task] = {}
        self._inflight: Set[asyncio.Task] = set()
        self._run_rows = run_rows
        self._run_full = run_full
        self._closed = False

    # -- request side ------------------------------------------------------

    async def row(self, family: QueryFamily, source: int) -> None:
        """Ensure ``source``'s row is cached, batching with neighbors.

        Returns once the row is resident; raises whatever the
        underlying run raised, or :class:`Draining` after shutdown
        began.
        """
        if self._closed:
            raise Draining("the server is shutting down; retry shortly")
        pending = self._pending.setdefault(family, {})
        future = pending.get(source)
        if future is None:
            window = self._windows.get(family)
            if window is None or len(window) >= self.max_batch:
                window = []
                self._windows[family] = window
                self._track(asyncio.ensure_future(
                    self._flush(family, window)
                ))
            window.append(source)
            future = asyncio.get_running_loop().create_future()
            pending[source] = future
        await asyncio.shield(future)

    async def full(self, family: QueryFamily) -> None:
        """Ensure the complete matrix is cached.

        Concurrent calls for one family await the same run.
        """
        task = self._full.get(family)
        if task is None:
            task = asyncio.ensure_future(self._run_full(family))
            self._full[family] = task
            task.add_done_callback(lambda _: self._full.pop(family, None))
            self._track(task)
        await asyncio.shield(task)

    # -- flush side --------------------------------------------------------

    def _track(self, task: asyncio.Task) -> None:
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    def _seal(self, family: QueryFamily, window: List[int]) -> None:
        """Stop ``window`` growing: the family's next miss opens anew."""
        if self._windows.get(family) is window:
            del self._windows[family]

    async def _flush(self, family: QueryFamily, window: List[int]) -> None:
        """Run ``window`` once a worker is idle; settle its waiters.

        Created as the window opens, so it starts within a turn of the
        first miss; the wait for a worker counts against the pool's
        deadline, and the run gets the rest.
        """
        budget = self._pool.deadline_s
        opened = time.monotonic()
        try:
            # One turn first, so misses that arrive together share it.
            await asyncio.sleep(0)
            if len(window) < self.max_batch:
                if not await self._pool.idle(budget):
                    raise DeadlineExceeded(
                        "the query spent its deadline waiting for a "
                        "free worker"
                    )
            self._seal(family, window)
            if budget is not None:
                budget -= time.monotonic() - opened
            await self._run_rows(family, window, budget)
        except BaseException as exc:  # every waiter sees the failure
            self._settle(family, window, exc)
            if not isinstance(exc, Exception):
                raise
        else:
            self._settle(family, window, None)

    def _settle(
        self,
        family: QueryFamily,
        window: List[int],
        error: Optional[BaseException],
    ) -> None:
        """Seal ``window`` and hand its outcome to every waiter."""
        self._seal(family, window)
        pending = self._pending[family]
        for source in window:
            future = pending.pop(source)
            if error is None:
                future.set_result(None)
            else:
                future.set_exception(error)
        if not pending:
            del self._pending[family]

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Refuse every row miss from now on with :class:`Draining`."""
        self._closed = True

    async def drain(self) -> int:
        """Close, then wait out open windows and in-flight runs.

        Returns the number of tasks awaited; used by graceful shutdown
        so accepted queries are answered before the process exits.
        """
        self.close()
        drained = 0
        while self._inflight:
            pending = list(self._inflight)
            drained += len(pending)
            await asyncio.gather(*pending, return_exceptions=True)
        return drained
