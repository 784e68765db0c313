"""The threaded HTTP/JSON front-end over a resident :class:`CountingService`.

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
  on overflow), decoding and query parsing (400), the route's gate, one
  of ``worker_threads`` permits.  Nothing is parsed before admission:
  backpressure instead of collapse.  Stats, metrics and health stay open,
  so scrapers need no key.
* **Deadlines** — a request's ``deadline_seconds`` (or the server default)
  rides the resilience path into every task; expiry answers 504.
* **Consistency** — counting requests hold a shared read gate and
  ``/v1/facts`` mutations an exclusive write gate, so a count never
  observes a half-applied mutation; each mutation wakes the SSE
  subscriptions, whose next read serves the new count through the PR-4
  subscription layer (delta-patched, re-estimated, or fingerprint-free —
  sharded databases included).
* **Connections** — HTTP/1.1 keep-alive: a connection serves requests
  until the client closes it, asks to (``Connection: close``; an HTTP/1.0
  client must ask for ``keep-alive``), or leaves it idle past the read
  deadline (408).  Every response the server closes after says
  ``Connection: close``; the ``serve.connections`` gauge counts open
  connections, at most :data:`~repro.serve.http.MAX_CONNECTIONS` (503
  beyond), and :meth:`CountingServer.stop` ends them and joins their threads.

One thread accepts; each connection has its own thread, which reads a
request, runs it (service work holding one of ``worker_threads`` permits)
and writes the reply itself, so a round trip crosses no thread handoff.
"""

from __future__ import annotations

import contextlib
import functools
import json
import selectors
import socket
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional, Tuple

from repro.queries import parse_query
from repro.resilience.retry import DeadlineExceeded, RetriesExhausted
from repro.serve import http, schema
from repro.serve.admission import AdmissionController, TenantSpec
from repro.serve.coalesce import Coalescer, coalescing_key
from repro.service.service import CountingService, CountRequest

#: Idle SSE streams emit a comment frame this often (seconds).
SSE_HEARTBEAT_SECONDS = 15.0

#: Retry-After hint (seconds) for queue-full rejections.
QUEUE_RETRY_AFTER_SECONDS = 0.1

#: After its last reply a connection discards what the client still sends
#: for up to this long before closing, so the close does not reset the
#: connection under a reply the client has not read yet.
_LINGER_SECONDS = 1.0

#: ``stop()`` waits this long in all for the server's threads to end.
_STOP_SECONDS = 10.0


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
    #: Service calls (counts, plans, refreshes) that run at once; the
    #: connections beyond wait for a permit.
    worker_threads: int = 4
    #: Default hard deadline stamped on wire requests that carry none.
    default_deadline_seconds: Optional[float] = None
    #: Refuse ``POST /v1/facts`` (immutable serving snapshots).
    allow_mutations: bool = True

    def __post_init__(self) -> None:
        if self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if self.worker_threads < 1:
            raise ValueError("worker_threads must be at least 1")


class _ReadWriteGate:
    """A readers-writer gate across connection threads: counts share,
    mutations exclude.  Writers wait for in-flight readers to drain, new
    readers wait out the writer."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False

    @contextlib.contextmanager
    def read(self):
        with self._cond:
            self._cond.wait_for(lambda: not self._writing)
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @contextlib.contextmanager
    def write(self):
        with self._cond:
            self._cond.wait_for(lambda: not (self._writing or self._readers))
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


class CountingServer:
    """One resident service behind the v1 wire API.  :meth:`start` binds and
    returns; the server runs on its own threads until :meth:`stop`."""

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
        self._workers = threading.BoundedSemaphore(self.config.worker_threads)
        # Guards _db_version; notified on each mutation and on stop().
        self._mutated = threading.Condition()
        self._db_version = 0
        # Guards _connections, _inflight, _subscribers and _closing.
        self._lock = threading.Lock()
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._inflight = 0
        self._subscribers = 0
        self._closing = False
        self._listener: Optional[socket.socket] = None
        self._waker: Optional[Tuple[socket.socket, socket.socket]] = None
        self._acceptor: Optional[threading.Thread] = None
        self.port: Optional[int] = None
        self._routes: Dict[Tuple[str, str], Callable[[http.Request], http.Reply]] = {
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
    def start(self) -> int:
        """Bind, start the accept thread, and return the (possibly
        ephemeral) port."""
        host = self.config.host
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.create_server(
            (host, self.config.port), family=family, backlog=100
        )
        self.port = self._listener.getsockname()[1]
        # stop() writes to this pair to wake the accept thread: closing the
        # listener from another thread does not wake accept() on Linux.
        self._waker = socket.socketpair()
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._acceptor.start()
        return self.port

    def stop(self) -> None:
        """Stop accepting, shut down every connection's socket (which ends
        its thread; an SSE stream closes its subscription), wake the SSE
        streams, and join every server thread.  A thread still inside a
        service call ends when the call returns; the wait for it is capped
        at ``_STOP_SECONDS``."""
        with self._lock:
            if self._closing or self._acceptor is None:
                return
            self._closing = True
        self._waker[1].send(b"\0")
        deadline = time.monotonic() + _STOP_SECONDS
        self._acceptor.join(timeout=_STOP_SECONDS)
        self._listener.close()
        for end in self._waker:
            end.close()
        with self._mutated:
            self._mutated.notify_all()
        with self._lock:
            connections = dict(self._connections)
        for sock in connections:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
        for thread in connections.values():
            thread.join(timeout=max(0.0, deadline - time.monotonic()))

    def _accept_loop(self) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self._listener, selectors.EVENT_READ)
            selector.register(self._waker[0], selectors.EVENT_READ)
            while not self._closing:
                for key, _ in selector.select():
                    if key.fileobj is self._listener:
                        self._accept()

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:  # the client gave up first, or out of descriptors
            return
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self._lock:
            admitted = len(self._connections) < http.MAX_CONNECTIONS
            if admitted:
                thread = threading.Thread(
                    target=self._serve_connection,
                    args=(sock,),
                    name="repro-serve-connection",
                    daemon=True,
                )
                self._connections[sock] = thread
        if not admitted:
            self.metrics.counter("serve.rejections", reason="connections").inc()
            with contextlib.suppress(OSError):
                _send_final(
                    sock,
                    self._error_response(
                        503,
                        f"too many open connections ({http.MAX_CONNECTIONS}); "
                        "retry shortly",
                    ),
                )
            # No wait here: the accept thread must not block on one client.
            _close(sock, linger=0.0)
            return
        self.metrics.gauge("serve.connections").inc()
        try:
            thread.start()
        except RuntimeError:  # no thread to be had: drop this one, keep accepting
            self._forget(sock)

    def _forget(self, sock: socket.socket) -> None:
        """Close an admitted connection and stop counting it."""
        _close(sock, linger=_LINGER_SECONDS)
        with self._lock:
            del self._connections[sock]
        self.metrics.gauge("serve.connections").dec()

    # -------------------------------------------------------------- plumbing
    def _work(self, fn: Callable[[], Any]) -> Any:
        """Run one service call holding one of ``worker_threads`` permits."""
        with self._workers:
            return fn()

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
    def _serve_connection(self, sock: socket.socket) -> None:
        """The connection's thread: read, dispatch and answer its requests
        in turn until it closes."""
        reader = http.SocketReader(sock)
        try:
            while not self._closing:
                try:
                    request = http.read_request(reader)
                except http.HTTPError as error:
                    _send_final(sock, self._error_response(error.status, error.message))
                    break
                if request is None or not self._dispatch(request, sock):
                    break
        except OSError:  # reset, broken pipe, or shut down by stop()
            pass
        finally:
            self._forget(sock)

    def _dispatch(self, request: http.Request, sock: socket.socket) -> bool:
        """Route one request; returns whether the connection stays open.
        The request is counted (``serve.requests``, ``serve.request_seconds``)
        before its reply goes out, so a client holding the reply reads
        metrics that include it."""
        started = time.perf_counter()
        # Metric series are labelled by route, never by the client's path:
        # unknown paths share one "other" series (bounded cardinality).
        endpoint = request.path if request.path in self._route_paths else "other"
        keep_alive = request.keep_alive
        try:
            if request.path == "/v1/subscribe" and request.method == "GET":
                # A stream is counted when it ends, with its final status.
                status = self._handle_subscribe(request, sock)
                self._count_request(endpoint, status, started)
                return False
            reply = self._reply(request)
        except ConnectionError:
            # The client went away; nothing to write.
            self._count_request(endpoint, 499, started)
            return False
        except Exception as error:  # noqa: BLE001 - last-resort 500
            reply = self._error_response(500, f"internal error: {error!r}")
            keep_alive = False
        self._count_request(endpoint, reply.status, started)
        _send(sock, reply.render(keep_alive=keep_alive))
        return keep_alive

    def _reply(self, request: http.Request) -> http.Reply:
        """The reply of a routed endpoint, a refusal, or a 404."""
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            if request.path.startswith("/v1/"):
                return self._error_response(404, f"no such endpoint {request.path!r}")
            if request.path.startswith("/v"):
                return self._error_response(
                    404,
                    f"unsupported API version in {request.path!r}; "
                    f"this server speaks {schema.API_VERSION!r} under /v1/",
                )
            return self._error_response(404, f"not found: {request.path!r}")
        try:
            return handler(request)
        except _Refusal as refusal:
            return self._error_response(*refusal.args)

    def _count_request(self, endpoint: str, status: int, started: float) -> None:
        self.metrics.counter(
            "serve.requests", endpoint=endpoint, status=str(status)
        ).inc()
        self.metrics.histogram("serve.request_seconds", endpoint=endpoint).observe(
            time.perf_counter() - started
        )

    # ------------------------------------------------------------- endpoints
    def _admitted(
        self,
        request: http.Request,
        gate: Callable[[], Any],
        decode: Callable[[http.Request], Any],
        run: Optional[Callable[[Any], Any]] = None,
        cost: float = 1.0,
    ) -> Any:
        """The one path of every endpoint that runs service work, in order:
        admission (401/429), the in-flight bound (429), ``decode`` of the
        body or query string, the route's ``gate``, and a worker permit,
        where ``run`` (by default, :meth:`_work` itself) takes what
        ``decode`` made.  Returns what ``run`` returns; any other outcome
        raises :class:`_Refusal`, service errors mapped to 504 (deadline),
        503 (retries exhausted) or 400 (bad input)."""
        api_key = request.header("x-api-key") or request.params.get("api_key")
        decision = self.admission.admit(api_key, cost=cost)
        if not decision.admitted:
            reason = "auth" if decision.status == 401 else "quota"
            self.metrics.counter("serve.rejections", reason=reason).inc()
            raise _Refusal(decision.status, decision.reason, decision.retry_after)
        with self._lock:
            full = self._inflight >= self.config.max_pending
            if not full:
                self._inflight += 1
        if full:
            self.metrics.counter("serve.rejections", reason="queue_full").inc()
            raise _Refusal(
                429,
                f"request queue full ({self.config.max_pending} in flight); "
                "retry shortly",
                QUEUE_RETRY_AFTER_SECONDS,
            )
        try:
            work = decode(request)
            with gate():
                return (run or self._work)(work)
        except DeadlineExceeded as error:
            raise _Refusal(504, f"deadline exceeded: {error}")
        except RetriesExhausted as error:
            raise _Refusal(503, f"retries exhausted: {error}")
        except (ValueError, KeyError) as error:  # WireError is a ValueError
            raise _Refusal(400, str(error))
        finally:
            with self._lock:
                self._inflight -= 1

    def _handle_count(self, request: http.Request) -> http.Reply:
        def decode(request):
            count_request = schema.decode(_json_body(request), expect="count_request")
            return self._with_default_deadline(count_request)

        def run(count_request):
            submit = functools.partial(self.service.submit, request=count_request)
            return self.coalescer.fetch(
                coalescing_key(self.service, count_request),
                functools.partial(self._work, submit),
            )

        result, coalesced = self._admitted(request, self._gate.read, decode, run)
        if coalesced:
            self.metrics.counter("serve.coalesced").inc()
            result = replace(result, coalesced=True)
        else:
            self.metrics.counter("serve.led").inc()
        return self._json_response(schema.encode(result))

    def _handle_batch(self, request: http.Request) -> http.Reply:
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

        report = self._admitted(request, self._gate.read, decode, cost=cost)
        return self._json_response(schema.encode(report))

    def _handle_plan(self, request: http.Request) -> http.Reply:
        def decode(request):
            return functools.partial(
                self.service.plan,
                _query_param(request, "plan"),
                method=request.params.get("method") or None,
                latency_budget_seconds=_opt_param(
                    request.params, "latency_budget_seconds", float
                ),
            )

        plan = self._admitted(request, self._gate.read, decode)
        return self._json_response(schema.encode(plan))

    def _handle_stats(self, request: http.Request) -> http.Reply:
        return self._json_response(
            schema.envelope(
                "stats", {"service": self.service.stats(), "serve": self.serve_stats()}
            )
        )

    def _handle_metrics(self, request: http.Request) -> http.Reply:
        text = self.metrics.render_prometheus()
        return http.Reply(
            200, text.encode("utf-8"), content_type="text/plain; version=0.0.4"
        )

    def _handle_health(self, request: http.Request) -> http.Reply:
        return self._json_response(
            schema.envelope(
                "health", {"status": "ok", "database_size": self.service.default_database.size()}
            )
        )

    def _handle_facts(self, request: http.Request) -> http.Reply:
        if not self.config.allow_mutations:
            raise _Refusal(403, "this server's database is immutable (--no-mutations)")
        applied = self._admitted(
            request,
            self._gate.write,
            lambda request: functools.partial(
                self._apply_facts, schema.decode(_json_body(request), expect="facts_update")
            ),
        )
        with self._mutated:
            self._db_version += 1
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
    def _handle_subscribe(self, request: http.Request, sock: socket.socket) -> int:
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
            max_events, subscription = self._admitted(request, self._gate.write, decode)
        except _Refusal as refusal:
            return _send_final(sock, self._error_response(*refusal.args))

        with self._lock:
            self._subscribers += 1
        self.metrics.counter("serve.subscriptions").inc()
        try:
            _send(sock, http.sse_preamble())
            sent = 0
            while not self._closing:
                seen_version = self._db_version
                with self._gate.read():
                    live = self._work(subscription.read)
                payload = schema.encode(live)
                _send(
                    sock,
                    http.sse_event(json.dumps(payload), event="count", event_id=sent),
                )
                sent += 1
                if max_events is not None and sent >= max_events:
                    break
                # Wait for the next mutation (or emit a heartbeat comment).
                while True:
                    with self._mutated:
                        woken = self._mutated.wait_for(
                            lambda: self._closing or self._db_version != seen_version,
                            timeout=SSE_HEARTBEAT_SECONDS,
                        )
                    if woken:
                        break
                    _send(sock, http.sse_comment("heartbeat"))
            return 200
        except ConnectionError:
            return 499
        finally:
            with self._lock:
                self._subscribers -= 1
            with contextlib.suppress(Exception):
                with self._gate.write():
                    self._work(subscription.close)

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


def _send_final(sock: socket.socket, reply: http.Reply) -> int:
    """Send the last response of a connection the server closes after it,
    saying so in its ``Connection`` header; returns its status."""
    _send(sock, reply.render(keep_alive=False))
    return reply.status


def _send(sock: socket.socket, data: bytes) -> None:
    """Write all of ``data``, waiting as long as the client takes to read
    (``stop()`` shuts the socket down to end the wait)."""
    sock.settimeout(None)
    sock.sendall(data)


def _close(sock: socket.socket, linger: float) -> None:
    """Close after the last reply: send FIN, then discard what the client
    still sends for up to ``linger`` seconds (0: only what has arrived), so
    that unread request bytes do not turn the close into a reset."""
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_WR)
        sock.settimeout(linger)
        deadline = time.monotonic() + linger
        while sock.recv(65536) and time.monotonic() < deadline:
            pass
    sock.close()


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
    """A started server (tests, the sync client's world).  Use as a context
    manager or call :meth:`stop`."""

    def __init__(self, server: CountingServer) -> None:
        self.server = server

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.config.host

    def stop(self) -> None:
        self.server.stop()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False


def start_in_thread(
    service: CountingService, config: Optional[ServeConfig] = None
) -> ServerHandle:
    """Start a server on its own background threads and return once it is
    accepting connections."""
    server = CountingServer(service, config)
    server.start()
    return ServerHandle(server)


def run_server(
    service: CountingService,
    config: Optional[ServeConfig] = None,
    on_started: Optional[Callable[[CountingServer], None]] = None,
) -> None:
    """Run a server until interrupted (the CLI's ``serve`` subcommand)."""
    server = CountingServer(service, config)
    server.start()
    try:
        if on_started is not None:
            on_started(server)
        threading.Event().wait()  # until Ctrl-C
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
