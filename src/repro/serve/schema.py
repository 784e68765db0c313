"""The versioned (v1) JSON wire schema: the one public request/response
contract, shared by the server, the client, the CLI's ``--json`` and
in-process callers.  Every message is a flat envelope, the payload plus two
reserved keys::

    {"api": "repro.v1", "kind": "count_result", "estimate": 42.0, ...}

Queries cross as text (``str(query)`` and ``parse_query`` round-trip
exactly); databases never cross.  ``from_json(to_json(obj)) == obj`` field
for field.  Decoders ignore unknown fields, so a newer producer may add some;
another ``api`` version or a field of the wrong JSON type raises
:class:`WireError`.

**Field tables.**  :func:`_register` declares each of the eight kinds once,
as rows in wire order.  A flat row ``(name, type[, default])`` gives the JSON
type, as the Python type the decoder returns (``tuple``/``list``: of
strings), and the default a missing or null field reads as (``_REQUIRED``:
it must be present); the generic encoder :func:`to_payload` and the
type-directed :func:`_reader` serve every flat row.  Hand-written rows
``(name, encode[, decode])`` serve the query text, facts, the plan in a
result, the results and requests in a batch, and the encode-only display
fields ``count``, ``throughput_qps`` and ``num_queries``.  Registration
refuses a row named like a reserved envelope key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.queries import parse_query
from repro.relational.csp import DEFAULT_ENGINE
from repro.service.plan import QueryPlan
from repro.service.service import BatchReport, CountRequest, CountResult
from repro.stream.live import LiveCount

#: The protocol identifier every envelope carries.  Bump only with a new,
#: incompatible payload shape; additive payload fields do NOT bump it.
API_VERSION = "repro.v1"

#: Reserved envelope keys; payload dictionaries must not use them.
_RESERVED = ("api", "kind")

Message = Dict[str, Any]


class WireError(ValueError):
    """A malformed or protocol-incompatible wire message."""


# --------------------------------------------------------------- envelopes
def envelope(kind: str, payload: Message) -> Message:
    """Wrap an ad-hoc ``payload`` (the server's ``stats``, ``health``, ...)
    in the flat v1 envelope; the registered kinds go through :func:`encode`."""
    for key in _RESERVED:
        if key in payload:
            raise WireError(f"payload must not use the reserved key {key!r}")
    return {"api": API_VERSION, "kind": kind, **payload}


def open_envelope(message: Message, expect: Optional[str] = None) -> Tuple[str, Message]:
    """Validate an envelope and return ``(kind, message)``: a non-dict,
    another protocol version, a missing kind or (with ``expect``) the wrong
    kind raises :class:`WireError`."""
    if not isinstance(message, dict):
        raise WireError(f"expected a JSON object, got {type(message).__name__}")
    api = message.get("api")
    if api != API_VERSION:
        raise WireError(f"unsupported protocol {api!r}; this build speaks {API_VERSION!r}")
    kind = message.get("kind")
    if not isinstance(kind, str):
        raise WireError("envelope has no 'kind'")
    if expect is not None and kind != expect:
        raise WireError(f"expected kind {expect!r}, got {kind!r}")
    return kind, message


# --------------------------------------------------------- wire-only shapes
@dataclass(frozen=True)
class BatchRequest:
    """The ``POST /v1/batch`` body: independent requests plus the knobs of
    :meth:`~repro.service.service.CountingService.count_batch` (``seed`` is
    the batch master seed; ``deadline_seconds`` stamps the whole batch)."""

    requests: Tuple[CountRequest, ...]
    seed: Optional[int] = None
    executor: Optional[str] = None
    max_workers: Optional[int] = None
    deadline_seconds: Optional[float] = None


@dataclass(frozen=True)
class FactsUpdate:
    """The ``POST /v1/facts`` body: facts to add to / remove from the
    server's resident database (each entry is ``(relation, values)``)."""

    adds: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    removes: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()


@dataclass(frozen=True)
class ServeError:
    """A wire-level error: HTTP status, message, optional Retry-After."""

    status: int
    error: str
    retry_after: Optional[float] = None


# ------------------------------------------------------------ field tables
def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_strings(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


#: A flat row's type -> (its JSON check, what an error calls it, conversion).
_JSON_TYPES: Dict[type, Tuple[Callable[[Any], bool], str, Optional[type]]] = {
    float: (_is_number, "a number", float),
    int: (lambda value: _is_number(value) and isinstance(value, int), "an integer", None),
    str: (lambda value: isinstance(value, str), "a string", None),
    bool: (lambda value: isinstance(value, bool), "a boolean", None),
    dict: (lambda value: isinstance(value, dict), "an object", None),
    tuple: (_is_strings, "a list of strings", tuple),
    list: (_is_strings, "a list of strings", list),
}
_REQUIRED = object()  # the wire default of a field that must be present
_OMIT = object()  # an encoded value that leaves its key out of the message


def _reader(name: str, json_type: type, default: Any = None) -> Callable[[Message], Any]:
    """The one type-directed reader: a missing or null field reads as its
    default, a value of the wrong JSON type raises :class:`WireError`."""
    check, noun, convert = _JSON_TYPES[json_type]
    exact = None if json_type in (tuple, list) else json_type  # needs no check

    def read(payload: Message) -> Any:
        value = payload.get(name)
        if type(value) is exact:
            return value
        if value is None:
            if default is _REQUIRED:
                raise WireError(f"missing required field {name!r}")
            return list(default) if json_type is list else default
        if not check(value):
            raise WireError(f"{name} must be {noun}, got {value!r}")
        if convert is None:
            return value
        try:
            return convert(value)
        except OverflowError:  # a JSON integer beyond float range
            raise WireError(f"{name} must be {noun} within float range")

    return read


class _Kind(NamedTuple):
    name: str
    writers: Tuple[Tuple[str, Callable[[Any], Any]], ...]
    decode: Callable[[Message], Any]


#: The one type -> kind table behind :func:`encode` and :func:`decode`.
_KINDS: Dict[type, _Kind] = {}


def _register(kind: str, cls: type, *rows: Tuple[Any, ...]) -> None:
    """Declare ``kind``'s field table, its rows in wire order."""
    writers, readers = [], {}
    for name, *rest in rows:
        if name in _RESERVED:
            raise WireError(f"{kind} must not use the reserved key {name!r}")
        if isinstance(rest[0], type):
            get = attrgetter(name)
            listed = rest[0] in (tuple, list)
            writers.append((name, (lambda obj, get=get: list(get(obj))) if listed else get))
            readers[name] = _reader(name, *rest)
        else:  # hand-written: (encode[, decode])
            writers.append((name, rest[0]))
            if len(rest) > 1:
                readers[name] = rest[1]
    # Construct positionally; a field off the wire (a request's database)
    # keeps its default.
    ordered = [
        readers.get(field.name, lambda payload, default=field.default: default)
        for field in fields(cls)
    ]

    def decode(payload: Message) -> Any:
        return cls(*[read(payload) for read in ordered])

    _KINDS[cls] = _Kind(kind, tuple(writers), decode)


def _kind_of(obj: Any) -> _Kind:
    kind = _KINDS.get(type(obj))
    if kind is None:
        raise WireError(f"{type(obj).__name__} is not a v1 wire type")
    return kind


# ---------------------------------------------------- hand-written shapes
def _encode_query(request: CountRequest) -> str:
    if request.database is not None:
        raise WireError(
            "databases do not cross the wire; the server counts against its "
            "resident database (send the request with database=None)"
        )
    return str(request.query)


def _decode_query(payload: Message) -> Any:
    text = payload.get("query")
    if not isinstance(text, str):
        raise WireError("count_request needs a 'query' string")
    try:
        return parse_query(text)
    except ValueError as error:
        raise WireError(f"bad query: {error}")


def _decode_plan(payload: Message) -> QueryPlan:
    plan = payload.get("plan")
    if not isinstance(plan, dict):
        raise WireError("count_result needs a 'plan' object")
    return _KINDS[QueryPlan].decode(plan)


def _entries(name: str, cls: type, container: type, required: bool) -> Tuple[Any, ...]:
    """A row for a list of ``cls`` messages (``required``: and non-empty)."""

    def decode(payload: Message) -> Any:
        entries = payload.get(name, None if required else [])
        if not isinstance(entries, list) or (required and not entries) or not all(
            isinstance(entry, dict) for entry in entries
        ):
            raise WireError(f"{name!r} must be a list of {_KINDS[cls].name} objects")
        return container(_KINDS[cls].decode(entry) for entry in entries)

    return name, lambda obj: [to_payload(entry) for entry in getattr(obj, name)], decode


def _facts(name: str) -> Tuple[Any, ...]:
    """A row for a list of ``[relation, [values]]`` facts."""

    def decode(payload: Message) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
        entries = payload.get(name, ())
        if not isinstance(entries, (list, tuple)):
            raise WireError(f"facts must be a list of [relation, [values]], got {entries!r}")
        for entry in entries:
            if not (
                isinstance(entry, (list, tuple)) and len(entry) == 2
                and isinstance(entry[0], str) and isinstance(entry[1], (list, tuple))
            ):
                raise WireError(f"bad fact entry {entry!r}; expected [relation, [values]]")
        try:
            return tuple((rel, tuple(_normalise(v) for v in values)) for rel, values in entries)
        except RecursionError:
            raise WireError(f"a fact value in {name} is nested too deeply")

    return name, lambda obj: [[rel, list(values)] for rel, values in getattr(obj, name)], decode


def _normalise(value: Any) -> Any:
    """JSON turns tuples into lists; keep decoded fact values hashable."""
    if isinstance(value, list):
        return tuple(_normalise(item) for item in value)
    if not isinstance(value, (str, int, float, bool, type(None))):
        raise WireError(f"a fact value must be a scalar or a list, got {value!r}")
    return value


# ------------------------------------------------------------- the tables
_register(
    "count_request", CountRequest, ("query", _encode_query, _decode_query),
    ("epsilon", float), ("delta", float), ("seed", int), ("method", str),
    ("latency_budget_seconds", float), ("deadline_seconds", float),
)
_register(
    "query_plan", QueryPlan,
    ("scheme", str, ""), ("reference", str, ""), ("query_class", str, ""),
    ("engine", str, DEFAULT_ENGINE), ("database_size", int, 0), ("size_class", str, "large"),
    ("treewidth", int), ("fractional_hypertreewidth", float), ("adaptive_width_upper", float),
    ("arity", int), ("override", str), ("trace", tuple, ()), ("observed", dict),
    ("predicted", dict),
)
_register(
    "count_result", CountResult,
    ("index", int, 0), ("estimate", float, _REQUIRED), ("count", attrgetter("count")),
    ("scheme", str, ""), ("query_class", str, ""),
    ("plan", lambda result: to_payload(result.plan), _decode_plan),
    ("seed", int), ("epsilon", float, 0.0), ("delta", float, 0.0), ("cache", str, "miss"),
    ("plan_seconds", float, 0.0), ("execute_seconds", float, 0.0), ("widths", dict),
    ("shard_strategy", str), ("degradations", tuple, ()), ("coalesced", bool, False),
)
_register(
    "batch_request", BatchRequest, _entries("requests", CountRequest, tuple, required=True),
    ("seed", int), ("executor", str), ("max_workers", int), ("deadline_seconds", float),
)
_register(
    "batch_report", BatchReport, ("num_queries", lambda report: len(report.results)),
    _entries("results", CountResult, list, required=False),
    ("wall_seconds", float, 0.0), ("throughput_qps", attrgetter("throughput_qps")),
    ("requested_executor", str, ""), ("executed_executor", str, ""), ("max_workers", int, 0),
    ("cache_hits", int, 0), ("cache_misses", int, 0), ("degradations", list, ()),
    ("retries", int, 0),
)
_register(
    "live_count", LiveCount,
    ("estimate", float, _REQUIRED), ("count", attrgetter("count")),
    ("scheme", str, ""), ("query_class", str, ""), ("fresh", bool, True),
    ("refreshed", bool, False), ("mode", str, "initial"), ("pending_ticks", int, 0),
    ("refresh_count", int, 0), ("seed", int), ("epsilon", float, 0.0), ("delta", float, 0.0),
    ("degradations", tuple, ()), ("gap_recounts", int, 0), ("replans", int, 0),
    ("replan_events", tuple, ()),
)
_register("facts_update", FactsUpdate, _facts("adds"), _facts("removes"))
_register(
    "error", ServeError, ("status", int, 500), ("error", str, ""),
    (  # left out of the message when None
        "retry_after",
        lambda error: _OMIT if error.retry_after is None else error.retry_after,
        _reader("retry_after", float),
    ),
)
_BY_NAME = {kind.name: kind for kind in _KINDS.values()}


# ------------------------------------------------------- one-call json API
def to_payload(obj: Any, message: Optional[Message] = None) -> Message:
    """The generic encoder: a schema object's payload, written into
    ``message`` when given (:func:`encode` passes the envelope)."""
    message = {} if message is None else message
    for name, write in _kind_of(obj).writers:
        value = write(obj)
        if value is not _OMIT:
            message[name] = value
    return message


def encode(obj: Any) -> Message:
    """Envelope a schema object (dispatching on its type)."""
    return to_payload(obj, {"api": API_VERSION, "kind": _kind_of(obj).name})


def decode(message: Message, expect: Optional[str] = None) -> Any:
    """Decode an enveloped message back into its schema object."""
    kind, payload = open_envelope(message, expect=expect)
    entry = _BY_NAME.get(kind)
    if entry is None:
        raise WireError(f"unknown message kind {kind!r}")
    return entry.decode(payload)


def to_json(obj: Any, indent: Optional[int] = None) -> str:
    """Serialize a schema object to enveloped JSON text."""
    return json.dumps(encode(obj), indent=indent)


def from_json(text: str, expect: Optional[str] = None) -> Any:
    """Parse enveloped JSON text back into its schema object (the strict
    round-trip inverse of :func:`to_json`)."""
    try:
        message = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as error:
        raise WireError(f"invalid JSON: {error}")
    return decode(message, expect=expect)
