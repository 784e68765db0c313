"""A blocking v1 wire client on :mod:`http.client` — the CLI's and the
benchmarks' view of a running :class:`~repro.serve.server.CountingServer`.

Each thread that calls a client holds one persistent (keep-alive)
connection to the server, so the client is thread-safe and a closed-loop
caller pays for a TCP connection once, not per call.  Before reusing a
connection the client checks that its socket is not readable: an idle
keep-alive socket has nothing to read unless the server closed it (its
read deadline answered 408, or it stopped), and then the client connects
afresh.  A request is never replayed: a call that fails on the wire
raises, so a ``POST /v1/facts`` is applied at most once.  SSE
subscriptions hold a dedicated connection and iterate frames.  Every
response is decoded through :mod:`repro.serve.schema`, so a server-side
:class:`CountResult` arrives bit-identical to one produced by an
in-process :meth:`~repro.service.service.CountingService.submit`.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import weakref
from typing import Any, Dict, Iterator, Optional, Sequence, Union

from repro.queries import ConjunctiveQuery, parse_query
from repro.serve import schema
from repro.service.plan import QueryPlan
from repro.service.service import BatchReport, CountRequest, CountResult
from repro.stream.live import LiveCount


class ServeError(Exception):
    """An error response from the server (or a wire-protocol failure).

    Carries the HTTP ``status`` and, for 429s, the server's ``retry_after``
    hint in seconds.
    """

    def __init__(
        self,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.error = message
        self.retry_after = retry_after


class _Connection(http.client.HTTPConnection):
    """One thread's keep-alive connection.  It closes its socket when the
    thread, or the client, that holds it goes away without close()."""

    def __del__(self) -> None:
        self.close()


class ServeClient:
    """A synchronous client for one server address, holding one keep-alive
    connection per calling thread until :meth:`close` (or a ``with`` block's
    end).

    >>> with ServeClient("127.0.0.1", 8000, api_key="s3cret") as client:
    ...     client.count("Q() :- E(x, y)").estimate
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8000,
        api_key: Optional[str] = None,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.api_key = api_key
        self.timeout = timeout
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Every live thread's connection, so that close() reaches them all.
        self._connections: weakref.WeakSet[_Connection] = weakref.WeakSet()

    def close(self) -> None:
        """Close every thread's connection.  Call it with no call in
        flight; a later call connects afresh."""
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------- plumbing
    def _headers(self) -> Dict[str, str]:
        headers = {"Accept": "application/json"}
        if self.api_key is not None:
            headers["X-API-Key"] = self.api_key
        return headers

    def _connection(self) -> _Connection:
        """This thread's connection, its socket dropped first if the server
        has closed it (``http.client`` reconnects a dropped socket)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = _Connection(self.host, self.port, timeout=self.timeout)
            self._local.connection = connection
            with self._lock:
                self._connections.add(connection)
        elif connection.sock is not None and select.select(
            [connection.sock], [], [], 0
        )[0]:
            # Between responses the server sends nothing, so a readable
            # socket holds its EOF (or the 408 that came before it).
            connection.close()
        return connection

    def _raise_for_error(self, status: int, body: bytes) -> None:
        if status < 400:
            return
        message, retry_after = body.decode("utf-8", "replace"), None
        try:
            error = schema.from_json(message, expect="error")
            message, retry_after = error.error, error.retry_after
        except schema.WireError:
            pass
        raise ServeError(status, message, retry_after)

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        expect: Optional[str] = None,
        raw: bool = False,
        envelope_only: bool = False,
    ) -> Any:
        """One round trip.  ``raw`` returns the body text verbatim;
        ``envelope_only`` validates the envelope and returns the payload
        dict (for kinds without a dataclass, like ``stats``); otherwise the
        body decodes through the schema registry."""
        payload = None
        headers = self._headers()
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connection()
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            data = response.read()
        except BaseException:
            # Never replayed: the request may have reached the server.
            connection.close()
            raise
        if response.will_close:
            connection.close()
        self._raise_for_error(response.status, data)
        if raw:
            return data.decode("utf-8")
        try:
            if envelope_only:
                message = json.loads(data.decode("utf-8"))
                schema.open_envelope(message, expect=expect)
                return {
                    key: value
                    for key, value in message.items()
                    if key not in ("api", "kind")
                }
            return schema.from_json(data.decode("utf-8"), expect=expect)
        except (schema.WireError, json.JSONDecodeError) as error:
            raise ServeError(response.status, f"bad server reply: {error}")

    @staticmethod
    def _as_request(
        query: Union[str, ConjunctiveQuery, CountRequest], **options: Any
    ) -> CountRequest:
        if isinstance(query, CountRequest):
            if options and any(value is not None for value in options.values()):
                raise ValueError(
                    "pass either a CountRequest or per-field options, not both"
                )
            return query
        if isinstance(query, str):
            query = parse_query(query)
        return CountRequest(query=query, **options)

    # ------------------------------------------------------------ endpoints
    def count(
        self,
        query: Union[str, ConjunctiveQuery, CountRequest],
        epsilon: Optional[float] = None,
        delta: Optional[float] = None,
        seed: Optional[int] = None,
        method: Optional[str] = None,
        deadline_seconds: Optional[float] = None,
    ) -> CountResult:
        """``POST /v1/count`` — one request, one (possibly coalesced) result."""
        request = self._as_request(
            query,
            epsilon=epsilon,
            delta=delta,
            seed=seed,
            method=method,
            deadline_seconds=deadline_seconds,
        )
        return self._request(
            "POST",
            "/v1/count",
            body=schema.encode(request),
            expect="count_result",
        )

    def count_batch(
        self,
        queries: Sequence[Union[str, ConjunctiveQuery, CountRequest]],
        seed: Optional[int] = None,
        executor: Optional[str] = None,
        max_workers: Optional[int] = None,
        deadline_seconds: Optional[float] = None,
    ) -> BatchReport:
        """``POST /v1/batch`` — many requests under one batch seed."""
        batch = schema.BatchRequest(
            requests=tuple(self._as_request(entry) for entry in queries),
            seed=seed,
            executor=executor,
            max_workers=max_workers,
            deadline_seconds=deadline_seconds,
        )
        return self._request(
            "POST", "/v1/batch", body=schema.encode(batch), expect="batch_report"
        )

    def plan(
        self,
        query: Union[str, ConjunctiveQuery],
        method: Optional[str] = None,
        latency_budget_seconds: Optional[float] = None,
    ) -> QueryPlan:
        """``GET /v1/plan`` — plan without executing."""
        params = {"query": str(query)}
        if method is not None:
            params["method"] = method
        if latency_budget_seconds is not None:
            params["latency_budget_seconds"] = repr(latency_budget_seconds)
        return self._request(
            "GET", "/v1/plan?" + _urlencode(params), expect="query_plan"
        )

    def stats(self) -> Dict[str, Any]:
        """``GET /v1/stats`` — the service + serve statistics dicts."""
        return self._request("GET", "/v1/stats", expect="stats", envelope_only=True)

    def metrics_text(self) -> str:
        """``GET /v1/metrics`` — Prometheus text exposition."""
        return self._request("GET", "/v1/metrics", raw=True)

    def health(self) -> Dict[str, Any]:
        """``GET /v1/healthz`` — liveness plus the resident database size."""
        return self._request(
            "GET", "/v1/healthz", expect="health", envelope_only=True
        )

    def add_facts(
        self,
        adds: Sequence = (),
        removes: Sequence = (),
    ) -> Dict[str, Any]:
        """``POST /v1/facts`` — mutate the resident database.  Entries are
        ``(relation, values)`` pairs."""
        update = schema.FactsUpdate(
            adds=tuple((name, tuple(values)) for name, values in adds),
            removes=tuple((name, tuple(values)) for name, values in removes),
        )
        return self._request(
            "POST",
            "/v1/facts",
            body=schema.encode(update),
            expect="facts_applied",
            envelope_only=True,
        )

    def subscribe(
        self,
        query: Union[str, ConjunctiveQuery],
        refresh: str = "eager",
        epsilon: Optional[float] = None,
        delta: Optional[float] = None,
        seed: Optional[int] = None,
        method: Optional[str] = None,
        max_events: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Iterator[LiveCount]:
        """``GET /v1/subscribe`` — iterate live counts off the SSE stream.

        Yields one :class:`LiveCount` per ``count`` event (the first
        immediately, then one after every server-side mutation).  With
        ``max_events`` the server ends the stream after that many events —
        the deterministic shape tests and the CLI use.
        """
        params = {"query": str(query), "refresh": refresh}
        for key, value in (
            ("epsilon", epsilon),
            ("delta", delta),
            ("seed", seed),
            ("method", method),
            ("max_events", max_events),
        ):
            if value is not None:
                params[key] = str(value)
        connection = http.client.HTTPConnection(
            self.host,
            self.port,
            timeout=timeout if timeout is not None else self.timeout,
        )
        try:
            connection.request(
                "GET",
                "/v1/subscribe?" + _urlencode(params),
                headers=self._headers(),
            )
            response = connection.getresponse()
            if response.status >= 400:
                self._raise_for_error(response.status, response.read())
            for line in _sse_data_lines(response):
                message = json.loads(line)
                yield schema.decode(message, expect="live_count")
        finally:
            connection.close()


def _sse_data_lines(response: http.client.HTTPResponse) -> Iterator[str]:
    """Yield the ``data:`` payloads off an SSE response, skipping comments
    (heartbeats), ``event:``/``id:`` fields, and frame separators."""
    while True:
        raw = response.readline()
        if not raw:
            return
        line = raw.decode("utf-8").rstrip("\r\n")
        if line.startswith("data:"):
            yield line[len("data:") :].strip()


def _urlencode(params: Dict[str, str]) -> str:
    import urllib.parse

    return urllib.parse.urlencode(params)
