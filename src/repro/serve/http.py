"""A minimal HTTP/1.1 layer over blocking sockets — no frameworks, stdlib only.

Just enough protocol for the v1 wire API: request-line + header parsing,
Content-Length bodies, keep-alive, JSON and Server-Sent-Event responses.
Deliberately *not* general: no chunked transfer, no multipart, no TLS —
the serve layer sits behind whatever terminates those in production.
:func:`read_request` parses off a :class:`SocketReader`, which buffers one
connection's bytes and bounds each request's read by one deadline.
"""

from __future__ import annotations

import socket
import time
import urllib.parse
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional

#: Reason phrases for every status the serve layer emits.
REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Refuse request bodies beyond this (a count request is a few hundred bytes;
#: even a large batch is kilobytes).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Refuse requests with more header lines than this (the v1 clients send a
#: handful; ``http.client`` caps responses at the same 100).
MAX_HEADER_LINES = 100

#: Refuse a request line or header line longer than this (400 and 431).
MAX_LINE_BYTES = 64 * 1024

#: Answer 408 and close a connection whose next request has not fully
#: arrived within this many seconds (a half-sent request, or a keep-alive
#: connection left idle), so no client can hold a connection thread forever.
READ_DEADLINE_SECONDS = 30.0

#: Answer 503 and close a connection accepted while this many are open:
#: each open connection, idle keep-alive ones included, holds a thread.
MAX_CONNECTIONS = 256


class HTTPError(Exception):
    """A protocol-level failure answered with ``status`` and closed."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    params: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 persists unless told ``close``; HTTP/1.0 only when
        told ``keep-alive`` (RFC 9112 section 9.3)."""
        options = {
            option.strip().lower()
            for option in self.headers.get("connection", "").split(",")
        }
        if self.version == "HTTP/1.0":
            return "keep-alive" in options
        return "close" not in options

    def header(self, name: str) -> Optional[str]:
        return self.headers.get(name.lower())


class SocketReader:
    """Buffered reads off one blocking socket.  Every ``recv`` waits at most
    until :attr:`deadline` (a ``time.monotonic()`` instant), so a deadline
    bounds a whole request however slowly its bytes trickle in; past it a
    read raises ``TimeoutError``."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = bytearray()
        self.deadline = 0.0  # set by read_request for each request

    def _fill(self) -> bool:
        """Receive what has arrived (waiting for some); False at EOF."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("read deadline passed")
        self._sock.settimeout(remaining)
        chunk = self._sock.recv(65536)
        self._buffer += chunk
        return bool(chunk)

    def _take(self, size: int) -> bytes:
        data = bytes(self._buffer[:size])
        del self._buffer[:size]
        return data

    def readline(self, limit: int = MAX_LINE_BYTES) -> bytes:
        """One line with its newline, or what is left at EOF; ``ValueError``
        when the line runs past ``limit`` bytes."""
        scanned = 0
        while True:
            end = self._buffer.find(b"\n", scanned)
            if end >= 0 or len(self._buffer) > limit:
                break
            scanned = len(self._buffer)
            if not self._fill():
                return self._take(len(self._buffer))
        if end < 0 or end >= limit:
            raise ValueError(f"line over {limit} bytes")
        return self._take(end + 1)

    def read(self, size: int) -> bytes:
        """``size`` bytes, or fewer if the peer closes first."""
        while len(self._buffer) < size and self._fill():
            pass
        return self._take(size)


def read_request(
    reader: SocketReader, max_body_bytes: int = MAX_BODY_BYTES
) -> Optional[Request]:
    """Parse one request off the connection within ``READ_DEADLINE_SECONDS``
    (408 past it); ``None`` on a clean EOF (the client closed a keep-alive
    connection between requests)."""
    reader.deadline = time.monotonic() + READ_DEADLINE_SECONDS
    try:
        return _parse_request(reader, max_body_bytes)
    except TimeoutError:
        raise HTTPError(
            408, f"request not received within {READ_DEADLINE_SECONDS:g} s"
        )


def _parse_request(reader: SocketReader, max_body_bytes: int) -> Optional[Request]:
    try:
        request_line = reader.readline()
    except ConnectionResetError:
        return None
    except ValueError:
        raise HTTPError(400, "request line too long")
    if not request_line or request_line in (b"\r\n", b"\n"):
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise HTTPError(400, f"malformed request line {request_line!r}")
    method, target, version = parts

    headers: Dict[str, str] = {}
    header_lines = 0
    while True:
        try:
            line = reader.readline()
        except ValueError:
            raise HTTPError(431, "header line too long")
        if not line:
            raise HTTPError(400, "connection closed mid-headers")
        if line in (b"\r\n", b"\n"):
            break
        header_lines += 1
        if header_lines > MAX_HEADER_LINES:
            raise HTTPError(431, f"more than {MAX_HEADER_LINES} header lines")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HTTPError(400, f"malformed header line {line!r}")
        name, value = name.strip().lower(), value.strip()
        # Two different lengths leave the body's end ambiguous: invalid
        # framing (RFC 9112 section 6.3).  Identical repeats are harmless.
        if name == "content-length" and headers.get(name, value) != value:
            raise HTTPError(400, "conflicting Content-Length headers")
        headers[name] = value

    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise HTTPError(400, "malformed Content-Length")
    if length < 0:
        raise HTTPError(400, "negative Content-Length")
    if length > max_body_bytes:
        raise HTTPError(413, f"request body over {max_body_bytes} bytes")
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HTTPError(400, "chunked request bodies are not supported")
    body = reader.read(length)
    if len(body) < length:
        raise HTTPError(400, "connection closed mid-body")

    path, _, query_string = target.partition("?")
    params = {
        key: values[0]
        for key, values in urllib.parse.parse_qs(query_string).items()
    }
    return Request(
        method=method.upper(),
        path=urllib.parse.unquote(path),
        params=params,
        headers=headers,
        body=body,
        version=version,
    )


class Reply(NamedTuple):
    """One response before it is rendered: the connection thread, which knows
    whether the connection outlives it, picks its ``Connection`` header."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Optional[Dict[str, str]] = None

    def render(self, keep_alive: bool) -> bytes:
        """The full response with Content-Length; ``keep_alive=False`` says
        ``Connection: close`` because the server closes after it."""
        lines = [
            f"HTTP/1.1 {self.status} {REASONS.get(self.status, 'Unknown')}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (self.headers or {}).items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + self.body


def sse_preamble(headers: Optional[Dict[str, str]] = None) -> bytes:
    """The header block opening a Server-Sent-Events stream (no
    Content-Length — the stream ends when the connection closes)."""
    lines = [
        "HTTP/1.1 200 OK",
        "Content-Type: text/event-stream",
        "Cache-Control: no-store",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def sse_event(
    data: str, event: Optional[str] = None, event_id: Optional[int] = None
) -> bytes:
    """One SSE frame (``data`` must not contain newlines; the wire API
    sends compact single-line JSON)."""
    lines = []
    if event is not None:
        lines.append(f"event: {event}")
    if event_id is not None:
        lines.append(f"id: {event_id}")
    lines.append(f"data: {data}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


def sse_comment(text: str) -> bytes:
    """An SSE comment frame (the heartbeat keeping idle streams alive)."""
    return f": {text}\n\n".encode("utf-8")
