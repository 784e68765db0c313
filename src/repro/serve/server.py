"""The asyncio HTTP/JSON front-end over a resident :class:`CountingService`.

``CountingServer`` binds the v1 wire API (:mod:`repro.serve.schema`) to a
long-lived service instance — the shape of the bluesky exemplar: one
stateful core, many concurrent clients reading live state.

Endpoints::

    POST /v1/count      one CountRequest -> CountResult (coalesced)
    POST /v1/batch      BatchRequest -> BatchReport
    GET  /v1/plan       ?query=...[&method=...] -> QueryPlan
    GET  /v1/stats      service + serve statistics
    GET  /v1/metrics    Prometheus text exposition (repro.obs)
    GET  /v1/subscribe  ?query=... -> SSE stream of live counts
    POST /v1/facts      mutate the resident database (feeds subscriptions)

The systems contract, in order of interest:

* **Coalescing** — identical in-flight ``/v1/count`` requests (same
  canonical form, restricted fingerprint, epsilon/delta, seed, method,
  latency budget — see :func:`repro.serve.coalesce.coalescing_key`) share
  one execution; followers' responses carry ``coalesced: true`` and bump the
  ``serve.coalesced`` metric.  A herd of N identical requests costs one
  count (the result cache covers stragglers arriving after it finishes).
* **Admission control** — every endpoint that runs service work (count,
  batch, plan, facts, and the creation of a subscription) takes one path,
  ``CountingServer._admitted``, in one order: per-tenant token buckets
  (:mod:`repro.serve.admission`, 401/429 + ``Retry-After``; a batch costs
  one token per entry), the bounded in-flight queue (``max_pending``, 429
  on overflow), decoding and query parsing (400), the route's gate, the
  pool.  Nothing is parsed before admission: backpressure instead of
  collapse.  Stats, metrics and health stay open, so scrapers need no key.
* **Deadlines** — a request's ``deadline_seconds`` (or the server default)
  rides the resilience path into every task; expiry answers 504.
* **Consistency** — counting requests hold a shared read gate and
  ``/v1/facts`` mutations an exclusive write gate, so a count never
  observes a half-applied mutation; each mutation wakes the SSE
  subscriptions, whose next read serves the new count through the PR-4
  subscription layer (delta-patched, re-estimated, or fingerprint-free —
  sharded databases included).
* **Connections** — HTTP/1.1 keep-alive: a connection serves requests
  until the client closes it, asks to (``Connection: close``), or leaves
  it idle past the read deadline (408).  Every response the server closes
  after says ``Connection: close``; the ``serve.connections`` gauge counts
  open connections, and :meth:`CountingServer.stop` cancels and awaits
  their tasks.

Blocking service work runs on a small thread pool; the event loop itself
only parses, routes, admits, and coalesces.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Awaitable, Callable, Dict, Optional, Set, Tuple

from repro.queries import parse_query
from repro.resilience.retry import DeadlineExceeded, RetriesExhausted
from repro.serve import http, schema
from repro.serve.admission import AdmissionController, TenantSpec
from repro.serve.coalesce import Coalescer, coalescing_key
from repro.service.service import CountingService, CountRequest

#: Idle SSE streams emit a comment frame this often (seconds).
SSE_HEARTBEAT_SECONDS = 15.0


@dataclass(frozen=True)
class ServeConfig:
    """Server-side knobs (the service brings its own :class:`ServiceConfig`)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``CountingServer.port``).
    port: int = 0
    #: Per-tenant API keys and quotas; empty means open access (dev mode).
    tenants: Tuple[TenantSpec, ...] = ()
    #: The bounded request queue: admitted requests (count, batch, plan,
    #: facts, subscription creation) in flight beyond this are answered
    #: 429 + Retry-After (backpressure).
    max_pending: int = 64
    #: Threads executing blocking service calls (counts, plans, refreshes).
    worker_threads: int = 4
    #: Default hard deadline stamped on wire requests that carry none.
    default_deadline_seconds: Optional[float] = None
    #: Retry-After hint (seconds) for queue-full rejections.
    queue_retry_after: float = 0.1
    #: Refuse ``POST /v1/facts`` (immutable serving snapshots).
    allow_mutations: bool = True

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if self.worker_threads < 1:
            raise ValueError("worker_threads must be at least 1")


class _ReadWriteGate:
    """An asyncio readers-writer gate: counts share, mutations exclude.

    Loop-confined (created and used on the server's event loop); writers
    wait for in-flight readers to drain, new readers wait out the writer.
    """

    def __init__(self) -> None:
        self._cond = asyncio.Condition()
        self._readers = 0
        self._writing = False

    @contextlib.asynccontextmanager
    async def read(self):
        async with self._cond:
            while self._writing:
                await self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            async with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @contextlib.asynccontextmanager
    async def write(self):
        async with self._cond:
            while self._writing or self._readers:
                await self._cond.wait()
            self._writing = True
        try:
            yield
        finally:
            async with self._cond:
                self._writing = False
                self._cond.notify_all()


class CountingServer:
    """One resident service behind the v1 wire API.  Construct on (or run
    into) the event loop that will serve it; see :func:`start_in_thread`
    for the blocking-world helper."""

    def __init__(
        self, service: CountingService, config: Optional[ServeConfig] = None
    ) -> None:
        if service.default_database is None:
            raise ValueError(
                "the server needs a resident database "
                "(CountingService(database, ...))"
            )
        self.service = service
        self.config = config or ServeConfig()
        self.admission = AdmissionController(self.config.tenants)
        self.coalescer = Coalescer()
        self.metrics = service.metrics
        self._gate = _ReadWriteGate()
        self._mutated = asyncio.Condition()
        self._db_version = 0
        self._pool: Optional[Any] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        self._inflight = 0
        self._subscribers = 0
        self._closing = False
        self.port: Optional[int] = None
        self._routes: Dict[Tuple[str, str], Callable[..., Awaitable]] = {
            ("POST", "/v1/count"): self._handle_count,
            ("POST", "/v1/batch"): self._handle_batch,
            ("GET", "/v1/plan"): self._handle_plan,
            ("GET", "/v1/stats"): self._handle_stats,
            ("GET", "/v1/metrics"): self._handle_metrics,
            ("GET", "/v1/healthz"): self._handle_health,
            ("POST", "/v1/facts"): self._handle_facts,
        }
        self._route_paths = {path for _, path in self._routes} | {"/v1/subscribe"}

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> int:
        """Bind and start accepting; returns the (possibly ephemeral) port."""
        from concurrent.futures import ThreadPoolExecutor

        self._pool = ThreadPoolExecutor(
            max_workers=self.config.worker_threads,
            thread_name_prefix="repro-serve",
        )
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        """Stop accepting, cancel and await every connection task (each
        closes its own socket, and an SSE stream its subscription), then
        drain the pool.  Keep-alive clients hold idle connections, so
        without the await their tasks would be destroyed while pending."""
        self._closing = True
        if self._server is not None:
            self._server.close()
        tasks = list(self._connections)
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        if self._pool is not None:
            self._pool.shutdown(wait=False)

    # -------------------------------------------------------------- plumbing
    async def _run_blocking(self, fn: Callable[[], Any]) -> Any:
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, fn
        )

    def _json_response(
        self,
        message: Dict[str, Any],
        status: int = 200,
        headers: Optional[Dict[str, str]] = None,
    ) -> http.Reply:
        return http.Reply(status, json.dumps(message).encode("utf-8"), headers=headers)

    def _error_response(
        self, status: int, message: str, retry_after: Optional[float] = None
    ) -> http.Reply:
        headers = None
        if retry_after is not None:
            # Retry-After is an integer header; keep sub-second precision in
            # the JSON payload for clients that can honor it.
            headers = {"Retry-After": str(max(1, int(retry_after + 0.999)))}
        return self._json_response(
            schema.encode(
                schema.ServeError(status=status, error=message, retry_after=retry_after)
            ),
            status=status,
            headers=headers,
        )

    def _with_default_deadline(self, request: CountRequest) -> CountRequest:
        default = self.config.default_deadline_seconds
        if request.deadline_seconds is None and default is not None:
            return replace(request, deadline_seconds=default)
        return request

    # ------------------------------------------------------------ connection
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        connections = self.metrics.gauge("serve.connections")
        connections.inc()
        try:
            while not self._closing:
                try:
                    request = await asyncio.wait_for(
                        http.read_request(reader), http.READ_DEADLINE_SECONDS
                    )
                except asyncio.TimeoutError:
                    await _send_final(
                        writer,
                        self._error_response(
                            408,
                            f"request not received within "
                            f"{http.READ_DEADLINE_SECONDS:g} s",
                        ),
                    )
                    break
                except http.HTTPError as error:
                    await _send_final(
                        writer, self._error_response(error.status, error.message)
                    )
                    break
                if request is None or not await self._dispatch(request, writer):
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        except asyncio.CancelledError:
            # stop() cancelled this task: end it normally, because Python
            # 3.11's StreamReaderProtocol reads task.exception() when the
            # task finishes and would log a cancelled one as an error.
            if not self._closing:
                raise
        finally:
            self._connections.discard(task)
            connections.dec()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(
        self, request: http.Request, writer: asyncio.StreamWriter
    ) -> bool:
        """Route one request; returns whether the connection stays open."""
        started = time.perf_counter()
        # Metric series are labelled by route, never by the client's path:
        # unknown paths share one "other" series (bounded cardinality).
        endpoint = request.path if request.path in self._route_paths else "other"
        status = 200
        try:
            if request.path == "/v1/subscribe" and request.method == "GET":
                status = await self._handle_subscribe(request, writer)
                return False
            handler = self._routes.get((request.method, request.path))
            if handler is None:
                if request.path.startswith("/v1/"):
                    reply = self._error_response(
                        404, f"no such endpoint {request.path!r}"
                    )
                elif request.path.startswith("/v"):
                    reply = self._error_response(
                        404,
                        f"unsupported API version in {request.path!r}; "
                        f"this server speaks {schema.API_VERSION!r} under /v1/",
                    )
                else:
                    reply = self._error_response(404, f"not found: {request.path!r}")
            else:
                try:
                    reply = await handler(request)
                except _Refusal as refusal:
                    reply = self._error_response(*refusal.args)
            status = reply.status
            writer.write(reply.render(keep_alive=request.keep_alive))
            await writer.drain()
            return request.keep_alive
        except (ConnectionResetError, BrokenPipeError):
            status = 499  # client went away; nothing to write
            return False
        except Exception as error:  # noqa: BLE001 - last-resort 500
            status = 500
            with contextlib.suppress(Exception):
                await _send_final(
                    writer, self._error_response(500, f"internal error: {error!r}")
                )
            return False
        finally:
            self.metrics.counter(
                "serve.requests", endpoint=endpoint, status=str(status)
            ).inc()
            self.metrics.histogram(
                "serve.request_seconds", endpoint=endpoint
            ).observe(time.perf_counter() - started)

    # ------------------------------------------------------------- endpoints
    async def _admitted(
        self,
        request: http.Request,
        gate: Callable[[], Any],
        decode: Callable[[http.Request], Any],
        run: Optional[Callable[[Any], Awaitable[Any]]] = None,
        cost: float = 1.0,
    ) -> Any:
        """The one path of every endpoint that runs service work, in order:
        admission (401/429), the in-flight bound (429), ``decode`` of the
        body or query string, the route's ``gate``, and the pool, where
        ``run`` (by default, the pool itself) takes what ``decode`` made.
        Returns what ``run`` returns; any other outcome raises
        :class:`_Refusal`, service errors mapped to 504 (deadline), 503
        (retries exhausted) or 400 (bad input)."""
        api_key = request.header("x-api-key") or request.params.get("api_key")
        decision = self.admission.admit(api_key, cost=cost)
        if not decision.admitted:
            reason = "auth" if decision.status == 401 else "quota"
            self.metrics.counter("serve.rejections", reason=reason).inc()
            raise _Refusal(decision.status, decision.reason, decision.retry_after)
        if self._inflight >= self.config.max_pending:
            self.metrics.counter("serve.rejections", reason="queue_full").inc()
            raise _Refusal(
                429,
                f"request queue full ({self.config.max_pending} in flight); "
                "retry shortly",
                self.config.queue_retry_after,
            )
        self._inflight += 1
        try:
            work = decode(request)
            async with gate():
                return await (run or self._run_blocking)(work)
        except DeadlineExceeded as error:
            raise _Refusal(504, f"deadline exceeded: {error}")
        except RetriesExhausted as error:
            raise _Refusal(503, f"retries exhausted: {error}")
        except (ValueError, KeyError) as error:  # WireError is a ValueError
            raise _Refusal(400, str(error))
        finally:
            self._inflight -= 1

    async def _handle_count(self, request: http.Request) -> http.Reply:
        def decode(request):
            count_request = schema.decode(_json_body(request), expect="count_request")
            return self._with_default_deadline(count_request)

        async def run(count_request):
            submit = functools.partial(self.service.submit, request=count_request)
            return await self.coalescer.fetch(
                coalescing_key(self.service, count_request),
                functools.partial(self._run_blocking, submit),
            )

        result, coalesced = await self._admitted(request, self._gate.read, decode, run)
        if coalesced:
            self.metrics.counter("serve.coalesced").inc()
            result = replace(result, coalesced=True)
        else:
            self.metrics.counter("serve.led").inc()
        return self._json_response(schema.encode(result))

    async def _handle_batch(self, request: http.Request) -> http.Reply:
        # Admission charges one token per entry, counted off the raw JSON
        # before any query is parsed; a body that is not JSON costs one and
        # gets its 400 from decode, after admission.
        try:
            message = _json_body(request)
        except schema.WireError as error:
            message = error
        entries = message.get("requests") if isinstance(message, dict) else None
        cost = float(max(1, len(entries))) if isinstance(entries, list) else 1.0

        def decode(request):
            if isinstance(message, schema.WireError):
                raise message
            batch = schema.decode(message, expect="batch_request")
            # A process pool forks all its workers up front, so a client may
            # ask for at most the operator's --workers.
            workers, cap = batch.max_workers, self.service.config.resolved_workers()
            if workers is not None and not 1 <= workers <= cap:
                raise ValueError(f"max_workers must be between 1 and {cap}, got {workers}")
            return functools.partial(
                self.service.count_batch,
                [self._with_default_deadline(entry) for entry in batch.requests],
                seed=batch.seed,
                executor=batch.executor,
                max_workers=workers,
                deadline_seconds=batch.deadline_seconds,
            )

        report = await self._admitted(request, self._gate.read, decode, cost=cost)
        return self._json_response(schema.encode(report))

    async def _handle_plan(self, request: http.Request) -> http.Reply:
        def decode(request):
            return functools.partial(
                self.service.plan,
                _query_param(request, "plan"),
                method=request.params.get("method") or None,
                latency_budget_seconds=_opt_param(
                    request.params, "latency_budget_seconds", float
                ),
            )

        plan = await self._admitted(request, self._gate.read, decode)
        return self._json_response(schema.encode(plan))

    async def _handle_stats(self, request: http.Request) -> http.Reply:
        stats = await self._run_blocking(self.service.stats)
        return self._json_response(
            schema.envelope("stats", {"service": stats, "serve": self.serve_stats()})
        )

    async def _handle_metrics(self, request: http.Request) -> http.Reply:
        text = await self._run_blocking(self.metrics.render_prometheus)
        return http.Reply(
            200, text.encode("utf-8"), content_type="text/plain; version=0.0.4"
        )

    async def _handle_health(self, request: http.Request) -> http.Reply:
        return self._json_response(
            schema.envelope(
                "health", {"status": "ok", "database_size": self.service.default_database.size()}
            )
        )

    async def _handle_facts(self, request: http.Request) -> http.Reply:
        if not self.config.allow_mutations:
            raise _Refusal(403, "this server's database is immutable (--no-mutations)")
        applied = await self._admitted(
            request,
            self._gate.write,
            lambda request: functools.partial(
                self._apply_facts, schema.decode(_json_body(request), expect="facts_update")
            ),
        )
        self._db_version += 1
        async with self._mutated:
            self._mutated.notify_all()
        return self._json_response(schema.envelope("facts_applied", applied))

    def _apply_facts(self, update: schema.FactsUpdate) -> Dict[str, int]:
        database = self.service.default_database
        for name, values in update.adds:
            database.add_fact(name, values)
        for name, values in update.removes:
            database.remove_fact(name, values)
        return {
            "added": len(update.adds),
            "removed": len(update.removes),
            "database_size": database.size(),
        }

    # -------------------------------------------------------------------- SSE
    async def _handle_subscribe(
        self, request: http.Request, writer: asyncio.StreamWriter
    ) -> int:
        def decode(request):
            params = request.params
            count_request = CountRequest(
                query=_query_param(request, "subscribe"),
                epsilon=_opt_param(params, "epsilon", float),
                delta=_opt_param(params, "delta", float),
                seed=_opt_param(params, "seed", int),
                method=params.get("method") or None,
            )
            # Only the policy knobs the request sent: subscribe() owns the
            # defaults and rejects bad values (a ValueError -> 400).
            policy = {
                name: _opt_param(params, name, kind)
                for name, kind in (
                    ("refresh", str),
                    ("debounce_ticks", int),
                    ("budget_seconds", float),
                )
                if params.get(name)
            }
            subscribe = functools.partial(self.service.subscribe, count_request, **policy)
            max_events = _opt_param(params, "max_events", int)
            return lambda: (max_events, subscribe())

        # subscribe() mutates shared stream state (change-log observers, the
        # subscription list), so creation takes the exclusive gate.
        try:
            max_events, subscription = await self._admitted(
                request, self._gate.write, decode
            )
        except _Refusal as refusal:
            return await _send_final(writer, self._error_response(*refusal.args))

        self._subscribers += 1
        self.metrics.counter("serve.subscriptions").inc()
        try:
            writer.write(http.sse_preamble())
            await writer.drain()
            sent = 0
            seen_version = self._db_version
            while not self._closing:
                async with self._gate.read():
                    live = await self._run_blocking(subscription.read)
                payload = schema.encode(live)
                writer.write(
                    http.sse_event(json.dumps(payload), event="count", event_id=sent)
                )
                await writer.drain()
                sent += 1
                if max_events is not None and sent >= max_events:
                    break
                # Wait for the next mutation (or emit a heartbeat comment).
                while not self._closing and self._db_version == seen_version:
                    try:
                        async with self._mutated:
                            if self._db_version == seen_version:
                                await asyncio.wait_for(
                                    self._mutated.wait(),
                                    timeout=SSE_HEARTBEAT_SECONDS,
                                )
                    except asyncio.TimeoutError:
                        writer.write(http.sse_comment("heartbeat"))
                        await writer.drain()
                seen_version = self._db_version
            return 200
        except (ConnectionResetError, BrokenPipeError):
            return 499
        finally:
            self._subscribers -= 1
            with contextlib.suppress(Exception):
                async with self._gate.write():
                    await self._run_blocking(subscription.close)

    # ------------------------------------------------------------------ stats
    def serve_stats(self) -> Dict[str, Any]:
        return {
            "inflight": self._inflight,
            "subscribers": self._subscribers,
            "max_pending": self.config.max_pending,
            "coalesced": int(self.metrics.counter("serve.coalesced").value),
            "led": int(self.metrics.counter("serve.led").value),
            "admission": self.admission.stats(),
        }


class _Refusal(Exception):
    """An early answer to a request (mostly from the admitted path):
    ``(status, message[, retry_after])``, the arguments of
    ``CountingServer._error_response``."""


def _json_body(request: http.Request) -> Any:
    try:
        return json.loads(request.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        raise schema.WireError(f"invalid JSON body: {error}")


async def _send_final(writer: asyncio.StreamWriter, reply: http.Reply) -> int:
    """Send the last response of a connection the server closes after it,
    saying so in its ``Connection`` header; returns its status."""
    writer.write(reply.render(keep_alive=False))
    await writer.drain()
    return reply.status


def _query_param(request: http.Request, route: str) -> Any:
    text = request.params.get("query")
    if not text:
        raise ValueError(f"{route} needs ?query=...")
    return parse_query(text)


def _opt_param(params: Dict[str, str], key: str, cast) -> Optional[Any]:
    value = params.get(key)
    if value is None or value == "":
        return None
    try:
        return cast(value)
    except (TypeError, ValueError):
        raise ValueError(f"bad query parameter {key}={value!r}")


# ---------------------------------------------------------------- runners
class ServerHandle:
    """A server running on a background thread's event loop (tests, the
    sync client's world).  Use as a context manager or call :meth:`stop`."""

    def __init__(
        self,
        server: CountingServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.config.host

    def stop(self) -> None:
        if not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop).result(
            timeout=10
        )
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False


def start_in_thread(
    service: CountingService, config: Optional[ServeConfig] = None
) -> ServerHandle:
    """Start a server on a fresh daemon-thread event loop and return once
    it is accepting connections."""
    loop = asyncio.new_event_loop()
    started = threading.Event()
    holder: Dict[str, Any] = {}

    def run() -> None:
        asyncio.set_event_loop(loop)

        async def boot() -> None:
            # Constructed on the loop so its Conditions bind to it.
            server = CountingServer(service, config)
            await server.start()
            holder["server"] = server

        try:
            loop.run_until_complete(boot())
        except BaseException as error:  # noqa: BLE001 - reported to starter
            holder["error"] = error
            started.set()
            return
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, name="repro-serve-loop", daemon=True)
    thread.start()
    started.wait(timeout=10)
    if "error" in holder:
        raise holder["error"]
    if "server" not in holder:
        raise RuntimeError("server failed to start within 10s")
    return ServerHandle(holder["server"], loop, thread)


def run_server(
    service: CountingService,
    config: Optional[ServeConfig] = None,
    on_started: Optional[Callable[[CountingServer], None]] = None,
) -> None:
    """Run a server on the current thread until interrupted (the CLI's
    ``serve`` subcommand)."""

    async def main() -> None:
        server = CountingServer(service, config)
        await server.start()
        if on_started is not None:
            on_started(server)
        try:
            await asyncio.Event().wait()  # until cancelled
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
