"""The supervised worker-process pool: the one place repro forks.

Both process-parallel subsystems run on it: the campaign harness
(:func:`repro.harness.campaign.run_tasks`) and the serve compute pool
(:class:`repro.serve.supervisor.Supervisor`).  ``await
pool.submit(payload)`` runs the pool's picklable ``fn(payload,
attempt)`` in a worker process and returns its result.

Every worker is a child process on its own duplex pipe, so the pool
always knows which job a dead worker was carrying: blame is exact, and
a failure costs that one worker, never its siblings.  Contract per job:

* a **deadline** bounds wall clock from submission; an overdue job's
  worker is SIGKILLed and respawned, and the waiter gets
  :class:`DeadlineExceeded` (never retried);
* a **crash** (the worker died: SIGKILL, segfault, ``os._exit``)
  requeues the job with exponential backoff up to ``retries`` times,
  then fails it with :class:`WorkerCrashed`;
* an **exception raised by** ``fn`` is deterministic — rerunning
  cannot help — and fails the job at once with :class:`ComputeFailed`;
* **admission** is bounded: with ``queue_depth`` jobs pending,
  :meth:`Pool.submit` raises :class:`PoolSaturated`.

A heartbeat respawns workers that die while idle (an external SIGKILL
between jobs).  :meth:`Pool.close` kills every worker, busy ones
included, fails whatever has not settled, and never respawns.

The pool lives on one asyncio event loop: construct it, ``await
start()``, submit from that loop, then ``await drain()`` and ``await
close()``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Set

#: Max jobs pending (queued + running) before submission sheds.
DEFAULT_QUEUE_DEPTH = 128

#: How often the heartbeat respawns workers that died while idle.
HEARTBEAT_S = 0.25

#: Name prefix of worker processes and the pipe-reading threads.
WORKER_NAME = "repro-worker"


class PoolError(RuntimeError):
    """Base class of pool-level failures (also: the pool is not running)."""


class PoolSaturated(PoolError):
    """Admission control: the job queue is full."""

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DeadlineExceeded(PoolError):
    """The job missed its wall-clock deadline."""


class ComputeFailed(PoolError):
    """The job failed: ``fn`` raised, or its crash retries ran out."""


class WorkerCrashed(ComputeFailed):
    """Every attempt at the job died with its worker process."""


def _worker_main(conn, fn: Callable[[Any, int], Any]) -> None:
    """The worker-process loop: recv ``(payload, attempt)`` → reply."""
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        try:
            reply = (True, fn(*job))
        except Exception as exc:  # noqa: BLE001 — reported per job
            reply = (False, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


def _retrieve(future) -> None:
    """Done-callback marking an abandoned future's outcome as read."""
    if not future.cancelled():
        future.exception()


def _mp_context():
    """Prefer fork: workers inherit the parent's imports and respawn fast."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class _WorkerHandle:
    """One live worker process plus its parent pipe end."""

    __slots__ = ("process", "conn", "busy")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.busy = False


class _Job:
    """One accepted job and its waiter."""

    __slots__ = ("payload", "future", "attempt", "budget_s", "deadline")

    def __init__(self, payload, future, budget_s: Optional[float]) -> None:
        self.payload = payload
        self.future = future
        self.attempt = 0
        self.budget_s = budget_s
        self.deadline = (
            None if budget_s is None else time.monotonic() + budget_s
        )


class Pool:
    """Supervised worker processes: deadlines, crash retry, respawn."""

    def __init__(
        self,
        fn: Callable[[Any, int], Any],
        *,
        workers: int,
        deadline_s: Optional[float] = None,
        retries: int = 0,
        backoff_s: float = 0.0,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        heartbeat_s: float = HEARTBEAT_S,
    ) -> None:
        self.fn = fn
        self.workers = max(1, int(workers))
        self.deadline_s = deadline_s
        self.retries = max(0, int(retries))
        self.backoff_s = max(0.0, backoff_s)
        self.queue_depth = max(1, int(queue_depth))
        self.heartbeat_s = heartbeat_s
        self._mp = _mp_context()
        self._handles: Dict[int, _WorkerHandle] = {}
        self._tasks: List[asyncio.Task] = []
        #: Every accepted job that has not settled yet.
        self._jobs: Set[_Job] = set()
        self._queue: Optional[asyncio.Queue] = None
        #: Resolved, then replaced, by every settlement; wakes
        #: :meth:`idle` waiters.
        self._settled: Optional[asyncio.Future] = None
        self._recv_pool: Optional[ThreadPoolExecutor] = None
        self._started = False
        self._closed = False
        self.last_respawn_at: Optional[float] = None
        # Counters (single-threaded on the loop; read by snapshot()).
        self.spawned = 0
        self.respawns = 0
        self.crashes = 0
        self.deadline_misses = 0
        self.requeues = 0
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.shed = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Spawn the workers, their dispatch loops and the heartbeat."""
        if self._started:
            return
        self._started = True
        self._queue = asyncio.Queue()
        self._settled = asyncio.get_running_loop().create_future()
        self._recv_pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix=WORKER_NAME
        )
        for wid in range(self.workers):
            self._handles[wid] = self._spawn(wid)
        self._tasks = [
            asyncio.ensure_future(self._worker_loop(wid))
            for wid in range(self.workers)
        ]
        self._tasks.append(asyncio.ensure_future(self._heartbeat()))

    async def drain(self) -> None:
        """Wait until every accepted job has settled."""
        while self._jobs:
            await asyncio.sleep(0.01)

    async def close(self) -> None:
        """Kill every worker and fail every unsettled job; no respawns.

        Busy workers die mid-job, so closing never waits out a running
        job's deadline.
        """
        if self._closed:
            return
        self._closed = True
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        for handle in self._handles.values():
            self._kill(handle)
            handle.process.join(timeout=1.0)
        if self._recv_pool is not None:
            # Every pending recv has hit EOF from its killed worker.
            self._recv_pool.shutdown(wait=True)
        for job in list(self._jobs):
            self._finish(job, error=PoolError(
                "the pool closed before the job finished"
            ))

    # -- worker management -------------------------------------------------

    def _spawn(self, wid: int) -> _WorkerHandle:
        parent, child = self._mp.Pipe()
        process = self._mp.Process(
            target=_worker_main, args=(child, self.fn),
            name=f"{WORKER_NAME}-{wid}", daemon=True,
        )
        process.start()
        child.close()
        self.spawned += 1
        return _WorkerHandle(process, parent)

    @staticmethod
    def _kill(handle: _WorkerHandle) -> None:
        try:
            if handle.process.is_alive():
                handle.process.kill()
        except (OSError, ValueError):
            pass
        try:
            handle.conn.close()
        except OSError:
            pass

    def _respawn(self, wid: int) -> None:
        self._kill(self._handles[wid])
        self._handles[wid] = self._spawn(wid)
        self.respawns += 1
        self.last_respawn_at = time.monotonic()

    def respawn_age_s(self) -> Optional[float]:
        """Seconds since the last respawn (``None`` if never)."""
        if self.last_respawn_at is None:
            return None
        return time.monotonic() - self.last_respawn_at

    async def _heartbeat(self) -> None:
        """Respawn workers that died while idle (external SIGKILL)."""
        while True:
            await asyncio.sleep(self.heartbeat_s)
            for wid, handle in list(self._handles.items()):
                if not handle.busy and not handle.process.is_alive():
                    self.crashes += 1
                    self._respawn(wid)

    def live_workers(self) -> int:
        """Workers whose processes are currently alive."""
        return len(self.worker_pids())

    def worker_pids(self) -> List[int]:
        """PIDs of live workers."""
        return [
            handle.process.pid
            for handle in self._handles.values()
            if handle.process.is_alive() and handle.process.pid
        ]

    # -- submission --------------------------------------------------------

    async def idle(self, timeout_s: Optional[float] = None) -> bool:
        """Wait until a job submitted now would start at once.

        That is, until fewer jobs are unsettled than there are workers,
        or the pool has closed (a submission then raises).  Returns
        ``False`` if ``timeout_s`` runs out first.  Each settled job
        wakes every waiter in the order they began waiting, and each
        re-checks, so a caller that submits as soon as this returns
        takes the idle worker; one that does not leaves it to the next.
        """
        give_up = None if timeout_s is None else time.monotonic() + timeout_s
        while not self._closed and len(self._jobs) >= self.workers:
            remaining = (
                None if give_up is None else give_up - time.monotonic()
            )
            # asyncio.wait registers on the future in this step, with no
            # wrapper task, so no settlement can fall between the check
            # and the wait; and the wake-up resumes this task itself,
            # so its re-check runs after any earlier waiter submitted.
            done, _ = await asyncio.wait((self._settled,), timeout=remaining)
            if not done:
                return False
        return True

    async def submit(
        self, payload: Any, *, deadline_s: Optional[float] = None
    ) -> Any:
        """Run ``fn(payload, attempt)`` in a worker; returns its result.

        ``deadline_s`` overrides the pool's default budget for this
        job.  Raises :class:`PoolSaturated`, :class:`DeadlineExceeded`,
        :class:`WorkerCrashed` or :class:`ComputeFailed` (see the
        module docstring), or :class:`PoolError` when not running.
        """
        self._admit()
        return await self._run(payload, deadline_s)

    def _admit(self) -> None:
        """Admission control: raise unless a new job may be queued."""
        if not self._started or self._closed:
            raise PoolError("the pool is not running")
        if len(self._jobs) >= self.queue_depth:
            self.shed += 1
            raise PoolSaturated(
                f"compute pool is saturated ({len(self._jobs)} jobs "
                f"pending, cap {self.queue_depth})",
                retry_after_s=1.0,
            )

    async def _run(self, payload: Any, deadline_s: Optional[float]) -> Any:
        """Queue an admitted job and await its settlement."""
        budget = self.deadline_s if deadline_s is None else deadline_s
        job = _Job(
            payload, asyncio.get_running_loop().create_future(), budget
        )
        # Shielded: a cancelled waiter abandons the job, which still
        # runs; nobody else reads its outcome, so mark it retrieved.
        job.future.add_done_callback(_retrieve)
        self._jobs.add(job)
        self.submitted += 1
        self._queue.put_nowait(job)
        return await asyncio.shield(job.future)

    # -- the dispatch loops ------------------------------------------------

    def _finish(
        self,
        job: _Job,
        *,
        result: Any = None,
        error: Optional[BaseException] = None,
    ) -> None:
        self._jobs.remove(job)
        if error is None:
            self.completed += 1
            job.future.set_result(result)
        else:
            self.failed += 1
            job.future.set_exception(error)
        # Wake every idle() waiter; each re-checks the occupancy.
        self._settled.set_result(None)
        self._settled = self._settled.get_loop().create_future()

    def _retry_or_fail(self, job: _Job) -> None:
        """Crash path: requeue after a backoff, or fail when spent."""
        if job.attempt < self.retries:
            job.attempt += 1
            self.requeues += 1
            asyncio.get_running_loop().call_later(
                self.backoff_s * 2 ** (job.attempt - 1),
                self._queue.put_nowait, job,
            )
        else:
            self._finish(job, error=WorkerCrashed(
                f"the worker process running this job died "
                f"({job.attempt + 1} attempt(s))"
            ))

    async def _worker_loop(self, wid: int) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = await self._queue.get()
            if job.deadline is not None and time.monotonic() >= job.deadline:
                self.deadline_misses += 1
                self._finish(job, error=DeadlineExceeded(
                    "job spent its deadline waiting in the queue"
                ))
                continue
            if not self._handles[wid].process.is_alive():
                self._respawn(wid)
            handle = self._handles[wid]
            handle.busy = True
            try:
                handle.conn.send((job.payload, job.attempt))
                timeout = None
                if job.deadline is not None:
                    timeout = max(0.0, job.deadline - time.monotonic())
                reply = await asyncio.wait_for(
                    loop.run_in_executor(self._recv_pool, handle.conn.recv),
                    timeout,
                )
            except asyncio.TimeoutError:
                # Exact blame: only the overdue job's worker dies.
                self.deadline_misses += 1
                self._respawn(wid)
                self._finish(job, error=DeadlineExceeded(
                    f"job exceeded its {job.budget_s:g}s deadline"
                ))
                continue
            except (EOFError, OSError, ValueError):
                # The pipe broke on send or hit EOF on recv: it died.
                self.crashes += 1
                self._respawn(wid)
                self._retry_or_fail(job)
                continue
            finally:
                handle.busy = False
            ok, value = reply
            if ok:
                self._finish(job, result=value)
            else:
                self._finish(job, error=ComputeFailed(value))

    # -- observability -----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-pure configuration and counters."""
        return {
            "workers": self.workers,
            "alive": self.live_workers(),
            "pids": self.worker_pids(),
            "pending": len(self._jobs),
            "queue_depth": self.queue_depth,
            "deadline_s": self.deadline_s,
            "retries": self.retries,
            "spawned": self.spawned,
            "respawns": self.respawns,
            "crashes": self.crashes,
            "deadline_misses": self.deadline_misses,
            "requeues": self.requeues,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
        }
