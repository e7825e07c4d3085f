"""The asyncio HTTP+JSON front end of the distance-query service.

Stdlib only: a hand-rolled HTTP/1.1 layer over ``asyncio.start_server``
with keep-alive, because the service's job — parse a query string,
answer from a resident matrix — needs nothing more.  Endpoints:

====================  ======================================================
``GET /healthz``      liveness probe (200 while the process runs)
``GET /readyz``       readiness: 200 only with a full worker complement
``GET /graphs``       loaded graphs (spec, n, m)
``POST /graphs``      ``{"spec": "er:64:p=0.1:seed=1"}`` — preload a graph
``GET /distance``     ``?graph=SPEC&source=U&target=V[&protocol=P…]``
``GET /eccentricity`` ``?graph=SPEC&node=U[&protocol=P…]``
``GET /diameter``     ``?graph=SPEC[&protocol=P…]``
``GET /stats``        the :class:`~repro.serve.stats.ServeStats` snapshot
====================  ======================================================

Query answers carry the serving ``tier`` (``memory`` / ``disk`` /
``computed``) so clients — and the CI smoke job — can verify that
repeats never re-run a simulation.  Cold misses are routed through the
:class:`~repro.serve.batch.SourceBatcher`, so concurrent misses against
one graph coalesce into a single Algorithm 2 run.

Robustness contract (docs/serving.md "Failure modes"):

* cold computes run in the supervised worker-process pool
  (:mod:`repro.serve.supervisor`, at least one worker) — the one
  compute path: per-request deadlines, crash retries, automatic
  respawn;
* admission control sheds with ``429 Retry-After`` — both the HTTP
  in-flight cap (``max_inflight``) and pool-queue saturation; cache
  hits (memory or disk tier) keep being served while the pool is full;
* a per-family circuit breaker (:mod:`repro.serve.breaker`) trips
  after repeated compute failures and answers ``503 Retry-After``;
* an exact ``/diameter`` that misses its deadline degrades to the
  paper's 2-vs-4 classification (Algorithm 3) — the answer carries
  ``degraded: true`` and the approximation metadata;
* malformed ``Content-Length`` gets ``400``, oversize bodies ``413``,
  and a stalled body read is dropped after ``read_timeout_s`` without
  leaking the in-flight counter.

Shutdown is drain-first: SIGINT/SIGTERM (or
:meth:`DistanceServer.shutdown`) stops accepting connections, flushes
every open batch window, answers in-flight requests, drains the worker
pool, then flushes the stats snapshot.  ``repro serve`` exits 0 on a
drained shutdown.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .batch import DEFAULT_MAX_BATCH, DEFAULT_TICK_S, SourceBatcher
from .breaker import (
    DEFAULT_RESET_S,
    DEFAULT_THRESHOLD,
    BreakerBoard,
    BreakerOpen,
)
from .matrix import QueryFamily
from .service import DistanceService, QueryError
from .supervisor import (
    DEFAULT_DEADLINE_S,
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_RETRIES,
    DEFAULT_WORKERS,
    ComputeFailed,
    DeadlineExceeded,
    PoolSaturated,
    Supervisor,
    retry_after_header,
)

#: Seconds shutdown waits for in-flight request handlers after the
#: batcher drained before force-closing connections.
DRAIN_GRACE_S = 10.0

#: Default cap on request body size (satellite of ISSUE 7: a huge
#: ``Content-Length`` must not buffer unboundedly).
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: Default budget for reading one request's body off the socket.
DEFAULT_READ_TIMEOUT_S = 30.0

#: Default cap on concurrently handled requests (0 disables).
DEFAULT_MAX_INFLIGHT = 256

#: Seconds ``/readyz`` stays not-ready after a crash respawn.
READY_SETTLE_S = 0.25

#: Endpoints exempt from admission control: probes and observability
#: must answer even when the server is shedding query load.
_ADMISSION_EXEMPT = frozenset({"/healthz", "/readyz", "/stats"})

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpProtocolError(Exception):
    """A request the HTTP layer rejects before routing (400/413)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 default: persistent unless ``Connection: close``."""
        return self.headers.get("connection", "").lower() != "close"


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    read_timeout_s: Optional[float] = None,
) -> Optional[Request]:
    """Parse one request off the stream.

    Returns ``None`` on EOF/reset or when the body stalls past
    ``read_timeout_s`` (the caller drops the connection).  Raises
    :class:`HttpProtocolError` for requests that deserve an explicit
    rejection: a malformed ``Content-Length`` (400) or a declared body
    over ``max_body_bytes`` (413) — neither may crash the handler or
    buffer unboundedly.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
            ConnectionError):
        return None
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        return None
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if ":" in line:
            key, value = line.split(":", 1)
            headers[key.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "").strip()
    try:
        length = int(raw_length) if raw_length else 0
    except ValueError:
        raise HttpProtocolError(
            400, f"invalid Content-Length header {raw_length!r}"
        )
    if length < 0:
        raise HttpProtocolError(
            400, f"invalid Content-Length header {raw_length!r}"
        )
    if length > max_body_bytes:
        raise HttpProtocolError(
            413,
            f"request body of {length} bytes exceeds the "
            f"{max_body_bytes}-byte limit",
        )
    body = b""
    if length:
        try:
            read = reader.readexactly(length)
            if read_timeout_s is not None:
                body = await asyncio.wait_for(read, read_timeout_s)
            else:
                body = await read
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.TimeoutError):
            return None
    split = urlsplit(target)
    query = {
        key: values[-1]
        for key, values in parse_qs(split.query).items()
    }
    return Request(
        method=method.upper(), path=split.path, query=query,
        headers=headers, body=body,
    )


def encode_response(
    status: int,
    payload: Any,
    *,
    keep_alive: bool,
    headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    """Serialize one JSON response (plus optional extra headers)."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"{extra}"
        f"\r\n"
    ).encode("latin-1")
    return head + body


class DistanceServer:
    """The HTTP front end over one :class:`DistanceService`."""

    def __init__(
        self,
        service: Optional[DistanceService] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_s: float = DEFAULT_TICK_S,
        max_batch: int = DEFAULT_MAX_BATCH,
        stats_path: Optional[str] = None,
        workers: int = DEFAULT_WORKERS,
        deadline_s: Optional[float] = DEFAULT_DEADLINE_S,
        retries: int = DEFAULT_RETRIES,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        chaos: Optional[Mapping[str, Any]] = None,
        breaker_threshold: int = DEFAULT_THRESHOLD,
        breaker_reset_s: float = DEFAULT_RESET_S,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        read_timeout_s: Optional[float] = DEFAULT_READ_TIMEOUT_S,
        log=None,
    ) -> None:
        self.service = service if service is not None else DistanceService()
        self.host = host
        self._requested_port = port
        self.port: Optional[int] = None
        self.stats_path = stats_path
        self.max_inflight = max(0, int(max_inflight))
        self.max_body_bytes = max_body_bytes
        self.read_timeout_s = read_timeout_s
        self.supervisor = Supervisor(
            self.service,
            workers=workers,
            deadline_s=deadline_s,
            retries=retries,
            queue_depth=queue_depth,
            chaos=chaos,
        )
        self.batcher = SourceBatcher(
            self._pool_rows, self._pool_full,
            tick_s=tick_s, max_batch=max_batch,
        )
        self.breakers = (
            BreakerBoard(
                threshold=breaker_threshold, reset_s=breaker_reset_s
            )
            if breaker_threshold > 0 else None
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._log = log or (lambda msg: print(msg, file=sys.stderr))
        self._stopping = False
        self._active_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._connections: set = set()
        self._shed = 0
        self._protocol_errors = 0
        self._degraded = 0
        stats = self.service.stats
        stats.set_section("admission", self._admission_snapshot)
        stats.set_section("supervisor", self.supervisor.snapshot)
        if self.breakers is not None:
            stats.set_section("breakers", self.breakers.snapshot)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start the worker pool, bind, and accept."""
        await self.supervisor.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def shutdown(self) -> Dict[str, Any]:
        """Drain-first shutdown; returns a JSON-pure summary.

        Order matters: stop accepting, flush open batch windows (so
        every accepted query can be answered), wait for in-flight
        handlers, drain and stop the worker pool, then close lingering
        keep-alive connections and flush the stats snapshot.
        """
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        drained = await self.batcher.drain()
        try:
            await asyncio.wait_for(self._idle.wait(), DRAIN_GRACE_S)
            forced = 0
        except asyncio.TimeoutError:
            forced = self._active_requests
        await self.supervisor.drain()
        await self.supervisor.close()
        for writer in list(self._connections):
            writer.close()
        snapshot = self.service.stats.snapshot()
        if self.stats_path:
            with open(self.stats_path, "w", encoding="utf-8") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
                handle.write("\n")
        return {
            "drained_batches": drained,
            "forced_connections": forced,
            "stats": snapshot,
        }

    # -- pool-backed compute runners (breaker recording per run) -----------

    @staticmethod
    def _breaker_key(family: QueryFamily) -> str:
        return f"{family.graph_spec}|{family.protocol}"

    async def _pool_rows(
        self, family: QueryFamily, sources: List[int]
    ) -> None:
        await self._recorded(family, self.supervisor.rows(family, sources))

    async def _pool_full(self, family: QueryFamily) -> None:
        await self._recorded(family, self.supervisor.full(family))

    async def _recorded(self, family: QueryFamily, compute) -> None:
        """Await a pool compute, recording its outcome on the breaker."""
        if self.breakers is None:
            return await compute
        key = self._breaker_key(family)
        try:
            await compute
        except (DeadlineExceeded, ComputeFailed):
            self.breakers.record_failure(key)
            raise
        self.breakers.record_success(key)

    # -- readiness / admission snapshots -----------------------------------

    def readiness(self) -> Tuple[bool, Dict[str, Any]]:
        """Readiness verdict plus its JSON-pure evidence.

        Liveness (``/healthz``) answers "is the process up"; readiness
        answers "can it take full query load": not stopping, and every
        configured worker alive.  A killed worker flips this false
        until the respawn lands.
        """
        detail: Dict[str, Any] = {"stopping": self._stopping}
        if self._stopping:
            return False, detail
        alive = self.supervisor.live_workers()
        detail["workers"] = {
            "alive": alive, "configured": self.supervisor.workers,
        }
        if alive < self.supervisor.workers:
            return False, detail
        # Settle window: a crash respawn keeps readiness false briefly
        # so the disruption is observable (respawning is near-instant).
        age = self.supervisor.respawn_age_s()
        if age is not None and age < READY_SETTLE_S:
            detail["settling"] = True
            return False, detail
        return True, detail

    def _admission_snapshot(self) -> Dict[str, Any]:
        return {
            "max_inflight": self.max_inflight,
            "in_flight": self._active_requests,
            "shed": self._shed,
            "protocol_errors": self._protocol_errors,
            "degraded_answers": self._degraded,
        }

    # -- connection handling -----------------------------------------------

    def _request_started(self) -> None:
        self._active_requests += 1
        self._idle.clear()

    def _request_finished(self) -> None:
        self._active_requests -= 1
        if self._active_requests == 0:
            self._idle.set()

    def _shed_response(self, request: Request) -> Tuple[int, Any, Dict]:
        self._shed += 1
        retry_s = 1.0
        return (
            429,
            {
                "error": "server is at its in-flight request cap; "
                         "retry shortly",
                "retry_after_s": retry_s,
            },
            {"Retry-After": retry_after_header(retry_s)},
        )

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await read_request(
                        reader,
                        max_body_bytes=self.max_body_bytes,
                        read_timeout_s=self.read_timeout_s,
                    )
                except HttpProtocolError as exc:
                    # Reject explicitly, then drop the connection: the
                    # unread body bytes would desynchronize keep-alive.
                    self._protocol_errors += 1
                    writer.write(encode_response(
                        exc.status, {"error": exc.message},
                        keep_alive=False,
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive and not self._stopping
                shed = (
                    self.max_inflight
                    and request.path not in _ADMISSION_EXEMPT
                    and self._active_requests >= self.max_inflight
                )
                started = time.perf_counter()
                if shed:
                    status, payload, headers = self._shed_response(request)
                else:
                    self._request_started()
                    try:
                        status, payload, headers = await self._dispatch(
                            request
                        )
                    finally:
                        self._request_finished()
                elapsed = time.perf_counter() - started
                self.service.stats.observe_request(
                    request.path, elapsed, ok=status < 400
                )
                writer.write(encode_response(
                    status, payload,
                    keep_alive=keep_alive, headers=headers,
                ))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- routing -----------------------------------------------------------

    async def _dispatch(
        self, request: Request
    ) -> Tuple[int, Any, Optional[Dict[str, str]]]:
        try:
            if request.path == "/healthz":
                return 200, {"ok": True}, None
            if request.path == "/readyz":
                ready, detail = self.readiness()
                return (
                    200 if ready else 503,
                    {"ready": ready, **detail},
                    None,
                )
            if request.path == "/stats":
                return 200, self.service.stats.snapshot(), None
            if request.path == "/graphs":
                status, payload = await self._route_graphs(request)
                return status, payload, None
            if request.path == "/distance":
                status, payload = await self._route_distance(request)
                return status, payload, None
            if request.path == "/eccentricity":
                status, payload = await self._route_eccentricity(request)
                return status, payload, None
            if request.path == "/diameter":
                status, payload = await self._route_diameter(request)
                return status, payload, None
            return 404, {"error": f"no such endpoint {request.path!r}"}, None
        except QueryError as exc:
            return 400, {"error": str(exc)}, None
        except PoolSaturated as exc:
            return (
                429,
                {"error": str(exc), "retry_after_s": exc.retry_after_s},
                {"Retry-After": retry_after_header(exc.retry_after_s)},
            )
        except BreakerOpen as exc:
            return (
                503,
                {
                    "error": str(exc),
                    "retry_after_s": round(exc.retry_after_s, 3),
                },
                {"Retry-After": retry_after_header(exc.retry_after_s)},
            )
        except DeadlineExceeded as exc:
            return (
                503,
                {"error": f"deadline exceeded: {exc}"},
                {"Retry-After": "1"},
            )
        except ComputeFailed as exc:
            return 500, {"error": f"compute failed: {exc}"}, None
        except Exception as exc:  # defensive: a 500 must not kill the loop
            self._log(
                f"repro-serve: internal error on {request.path}: "
                f"{exc}\n{traceback.format_exc()}"
            )
            return 500, {"error": f"internal error: {exc}"}, None

    # -- endpoint helpers --------------------------------------------------

    @staticmethod
    def _required(request: Request, name: str) -> str:
        value = request.query.get(name)
        if value is None:
            raise QueryError(f"missing query parameter {name!r}")
        return value

    @staticmethod
    def _int_param(request: Request, name: str) -> int:
        text = DistanceServer._required(request, name)
        try:
            return int(text)
        except ValueError:
            raise QueryError(f"parameter {name!r} must be an int, "
                             f"got {text!r}")

    def _family(self, request: Request):
        protocol = request.query.get("protocol", "apsp")
        params: Dict[str, Any] = {}
        for name in ("max_weight", "weight_seed"):
            if name in request.query:
                params[name] = self._int_param(request, name)
        return self.service.family_for(
            self._required(request, "graph"), protocol, params
        )

    def _check_breaker(self, family: QueryFamily) -> None:
        if self.breakers is not None:
            self.breakers.check(self._breaker_key(family))

    async def _ensure_row(self, family, node: int) -> str:
        """Async row materialization: cache tiers, then the batcher.

        Cache hits (memory or disk) bypass admission and the breaker
        entirely — a saturated pool or a tripped family still serves
        everything the two cache tiers hold.
        """
        tier = self.service.lookup_row(family, node)
        if tier is None:
            self._check_breaker(family)
            await self.batcher.row(family, node)
            tier = "computed"
        self.service.stats.observe_tier(tier)
        return tier

    async def _route_graphs(self, request: Request) -> Tuple[int, Any]:
        if request.method == "GET":
            return 200, {"graphs": self.service.graphs()}
        if request.method == "POST":
            try:
                payload = json.loads(request.body.decode("utf-8") or "{}")
            except ValueError as exc:
                raise QueryError(f"invalid JSON body: {exc}")
            spec = payload.get("spec")
            if not isinstance(spec, str):
                raise QueryError('body must be {"spec": "<graph spec>"}')
            graph = self.service.load_graph(spec)
            return 200, {"spec": spec, "n": graph.n, "m": graph.m}
        return 405, {"error": "use GET or POST"}

    async def _route_distance(self, request: Request) -> Tuple[int, Any]:
        family = self._family(request)
        source = self._int_param(request, "source")
        target = self._int_param(request, "target")
        graph = self.service.load_graph(family.graph_spec)
        for name, node in (("source", source), ("target", target)):
            self.service._check_node(graph, node, name)
        matrix = self.service.matrix(family)
        value = matrix.distance(source, target)
        if value is not None or matrix.has_row(source):
            tier = "memory"
            self.service.stats.observe_tier(tier)
        else:
            tier = await self._ensure_row(family, source)
            value = self.service.matrix(family).distance(source, target)
        return 200, {
            "graph": family.graph_spec, "protocol": family.protocol,
            "source": source, "target": target,
            "distance": value, "tier": tier,
        }

    async def _route_eccentricity(
        self, request: Request
    ) -> Tuple[int, Any]:
        family = self._family(request)
        node = self._int_param(request, "node")
        graph = self.service.load_graph(family.graph_spec)
        self.service._check_node(graph, node, "node")
        matrix = self.service.matrix(family)
        if matrix.has_row(node):
            tier = "memory"
            self.service.stats.observe_tier(tier)
        else:
            tier = await self._ensure_row(family, node)
        value = self.service.matrix(family).eccentricity(node)
        return 200, {
            "graph": family.graph_spec, "protocol": family.protocol,
            "node": node, "eccentricity": value, "tier": tier,
        }

    async def _route_diameter(self, request: Request) -> Tuple[int, Any]:
        family = self._family(request)
        tier = self.service.lookup_full(family)
        if tier is None:
            self._check_breaker(family)
            try:
                await self.batcher.full(family)
            except DeadlineExceeded:
                return await self._degraded_diameter(family)
            tier = "computed"
        self.service.stats.observe_tier(tier)
        value = self.service.matrix(family).diameter()
        return 200, {
            "graph": family.graph_spec, "protocol": family.protocol,
            "diameter": value, "tier": tier, "degraded": False,
        }

    async def _degraded_diameter(self, family) -> Tuple[int, Any]:
        """Deadline-missed fallback: the 2-vs-4 classification.

        Algorithm 3 answers in Õ(√n) rounds instead of Algorithm 1's
        O(n), so it fits a deadline the exact run missed.  The verdict
        is exact on diameter-{2,4} promise graphs; in general ``2``
        certifies diameter ≤ 2 and ``4`` certifies diameter ≥ 3 —
        a factor-2 classification, flagged ``degraded`` so clients can
        retry for the exact answer later.
        """
        verdict = await self.supervisor.approx_diameter(family)
        self._degraded += 1
        return 200, {
            "graph": family.graph_spec, "protocol": family.protocol,
            "diameter": verdict, "tier": "degraded",
            "degraded": True,
            "approximation": "two-vs-four",
            "approximation_factor": 2,
        }


# ---------------------------------------------------------------------------
# Blocking entry point (the ``repro serve`` subcommand).
# ---------------------------------------------------------------------------


@dataclass
class ServerConfig:
    """Everything ``repro serve`` passes down."""

    host: str = "127.0.0.1"
    port: int = 8972
    graphs: Tuple[str, ...] = ()
    cache_dir: Optional[str] = None
    max_matrix_bytes: int = 64 * 1024 * 1024
    seed: int = 0
    policy: str = "strict"
    #: Execution engine for on-demand runs (``object`` or ``vector``).
    backend: str = "object"
    tick_s: float = DEFAULT_TICK_S
    max_batch: int = DEFAULT_MAX_BATCH
    stats_path: Optional[str] = None
    #: Extra graph specs to warm (full APSP matrix) before serving.
    warm: Tuple[str, ...] = ()
    #: Supervised compute worker processes (at least 1).
    workers: int = DEFAULT_WORKERS
    deadline_s: Optional[float] = DEFAULT_DEADLINE_S
    retries: int = DEFAULT_RETRIES
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    breaker_threshold: int = DEFAULT_THRESHOLD
    breaker_reset_s: float = DEFAULT_RESET_S
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    read_timeout_s: Optional[float] = DEFAULT_READ_TIMEOUT_S
    #: Chaos-injection plan (tests / the serve-chaos harness only).
    chaos: Optional[Dict[str, Any]] = None


def _server_kwargs(config: ServerConfig) -> Dict[str, Any]:
    return dict(
        host=config.host,
        port=config.port,
        tick_s=config.tick_s,
        max_batch=config.max_batch,
        stats_path=config.stats_path,
        workers=config.workers,
        deadline_s=config.deadline_s,
        retries=config.retries,
        queue_depth=config.queue_depth,
        breaker_threshold=config.breaker_threshold,
        breaker_reset_s=config.breaker_reset_s,
        max_inflight=config.max_inflight,
        max_body_bytes=config.max_body_bytes,
        read_timeout_s=config.read_timeout_s,
        chaos=config.chaos,
    )


async def _serve_main(config: ServerConfig) -> int:
    service = DistanceService(
        cache_dir=config.cache_dir,
        max_matrix_bytes=config.max_matrix_bytes,
        seed=config.seed,
        policy=config.policy,
        backend=config.backend,
    )
    for spec in config.graphs:
        service.load_graph(spec)
    server = DistanceServer(service, **_server_kwargs(config))
    await server.start()
    for spec in config.warm:
        family = service.family_for(spec)
        if service.lookup_full(family) is None:
            await server.batcher.full(family)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    print(
        f"repro-serve: ready on http://{server.host}:{server.port} "
        f"({len(config.graphs)} graph(s) preloaded, "
        f"{config.workers} worker(s))",
        flush=True,
    )
    await stop.wait()
    summary = await server.shutdown()
    stats = summary["stats"]
    rate = stats["cache"]["hit_rate"]
    print(
        f"repro-serve: drained {summary['drained_batches']} batch "
        f"task(s), {stats['cache']['lookups']} lookups, hit rate "
        f"{'n/a' if rate is None else f'{rate:.0%}'}; stats flushed",
        flush=True,
    )
    return 0


def run_server(config: ServerConfig) -> int:
    """Run the server until SIGINT/SIGTERM; returns the exit code."""
    return asyncio.run(_serve_main(config))


class ServerThread:
    """A server on a background thread (tests, docs, self-benchmarks).

    Context-manager: binds an ephemeral port by default, exposes
    ``.port`` and ``.service``, and drain-shuts-down on exit::

        with ServerThread(graphs=["path:16"]) as handle:
            urllib.request.urlopen(
                f"http://127.0.0.1:{handle.port}/healthz")

    Extra keyword arguments (``workers``, ``deadline_s``, ``chaos``,
    ``max_inflight``, …) pass through to :class:`DistanceServer`, so
    tests can shape the worker pool and the admission limits.
    """

    def __init__(
        self,
        service: Optional[DistanceService] = None,
        *,
        graphs: Tuple[str, ...] = (),
        host: str = "127.0.0.1",
        port: int = 0,
        tick_s: float = DEFAULT_TICK_S,
        max_batch: int = DEFAULT_MAX_BATCH,
        stats_path: Optional[str] = None,
        **server_kwargs: Any,
    ) -> None:
        self.service = service if service is not None else DistanceService()
        for spec in graphs:
            self.service.load_graph(spec)
        self._kwargs = dict(
            host=host, port=port, tick_s=tick_s, max_batch=max_batch,
            stats_path=stats_path, **server_kwargs,
        )
        self.server: Optional[DistanceServer] = None
        self.port: Optional[int] = None
        self.shutdown_summary: Optional[Dict[str, Any]] = None
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )

    def start(self) -> "ServerThread":
        """Start the thread and block until the server is bound."""
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread did not become ready")
        if self._failure is not None:
            raise RuntimeError(
                f"server thread failed to start: {self._failure}"
            )
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # startup failures surface in start()
            self._failure = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = DistanceServer(self.service, **self._kwargs)
        await self.server.start()
        self.port = self.server.port
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        self.shutdown_summary = await self.server.shutdown()

    def stop(self) -> None:
        """Drain-shutdown the server and join the thread."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)

    @property
    def url(self) -> str:
        """Base URL of the bound server (valid after :meth:`start`)."""
        return f"http://{self._kwargs['host']}:{self.port}"

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
