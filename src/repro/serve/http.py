"""A minimal HTTP/1.1 layer over asyncio streams — no frameworks, stdlib only.

Just enough protocol for the v1 wire API: request-line + header parsing,
Content-Length bodies, keep-alive, JSON and Server-Sent-Event responses.
Deliberately *not* general: no chunked transfer, no multipart, no TLS —
the serve layer sits behind whatever terminates those in production.
"""

from __future__ import annotations

import asyncio
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

#: Answer 408 and close a connection whose next request has not fully
#: arrived within this many seconds (a half-sent request, or a keep-alive
#: connection left idle), so no client can hold a connection task forever.
READ_DEADLINE_SECONDS = 30.0


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

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"

    def header(self, name: str) -> Optional[str]:
        return self.headers.get(name.lower())


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int = MAX_BODY_BYTES
) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on a clean EOF (the client
    closed a keep-alive connection between requests)."""
    # A line longer than the reader's limit makes ``readline`` raise
    # ``ValueError`` (it converts ``LimitOverrunError``): answer it, never let
    # it kill the connection task.
    try:
        request_line = await reader.readline()
    except ConnectionResetError:
        return None
    except ValueError:
        raise HTTPError(400, "request line too long")
    if not request_line or request_line in (b"\r\n", b"\n"):
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise HTTPError(400, f"malformed request line {request_line!r}")
    method, target, _version = parts

    headers: Dict[str, str] = {}
    header_lines = 0
    while True:
        try:
            line = await reader.readline()
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
        headers[name.strip().lower()] = value.strip()

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
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
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
    )


class Reply(NamedTuple):
    """One response before it is rendered: the connection loop, which knows
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
