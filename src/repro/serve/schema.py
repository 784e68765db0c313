"""The versioned (v1) JSON wire schema — the one public request/response
contract.

Every message the server emits, the client consumes, and the CLI prints with
``--json`` is a **flat envelope**: the payload dictionary plus two reserved
keys naming the protocol::

    {"api": "repro.v1", "kind": "count_result", "estimate": 42.0, ...}

The schema is the *single* serializer for the service-layer dataclasses —
:class:`~repro.service.service.CountRequest`,
:class:`~repro.service.service.CountResult`,
:class:`~repro.service.service.BatchReport`,
:class:`~repro.service.plan.QueryPlan` and
:class:`~repro.stream.live.LiveCount` — so the server, the sync client, the
CLI and in-process callers all speak the same envelope instead of hand-rolled
dicts.  Queries cross the wire in their Datalog-ish text form (``str(query)``
and :func:`repro.queries.parse_query` round-trip exactly, canonical forms
included); databases never cross the wire — the server holds one resident
database and requests count against it.

Contracts:

* **Strict round-trip** — ``from_json(to_json(obj)) == obj`` for every
  schema type, field for field (floats serialize via ``repr`` and survive
  exactly; tuples come back as tuples).
* **Unknown-field tolerance** — decoders read the fields they know and
  ignore the rest, so a v1 consumer keeps working when a newer producer
  adds payload fields.  The ``api`` string itself is strict: a different
  protocol version raises :class:`WireError` rather than guessing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.queries import parse_query
from repro.service.plan import QueryPlan
from repro.service.service import BatchReport, CountRequest, CountResult
from repro.stream.live import LiveCount

#: The protocol identifier every envelope carries.  Bump only with a new,
#: incompatible payload shape; additive payload fields do NOT bump it
#: (decoders tolerate unknown fields).
API_VERSION = "repro.v1"

#: Reserved envelope keys; payload dictionaries must not use them.
_RESERVED = ("api", "kind")


class WireError(ValueError):
    """A malformed or protocol-incompatible wire message."""


# --------------------------------------------------------------- envelopes
def envelope(kind: str, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Wrap ``payload`` in the flat v1 envelope."""
    for key in _RESERVED:
        if key in payload:
            raise WireError(f"payload must not use the reserved key {key!r}")
    return {"api": API_VERSION, "kind": kind, **payload}


def open_envelope(
    message: Dict[str, Any], expect: Optional[str] = None
) -> Tuple[str, Dict[str, Any]]:
    """Validate an envelope and return ``(kind, message)``.

    Raises :class:`WireError` when the message is not a dict, names a
    different protocol version, lacks a kind, or (with ``expect``) carries
    the wrong kind.
    """
    if not isinstance(message, dict):
        raise WireError(f"expected a JSON object, got {type(message).__name__}")
    api = message.get("api")
    if api != API_VERSION:
        raise WireError(
            f"unsupported protocol {api!r}; this build speaks {API_VERSION!r}"
        )
    kind = message.get("kind")
    if not isinstance(kind, str):
        raise WireError("envelope has no 'kind'")
    if expect is not None and kind != expect:
        raise WireError(f"expected kind {expect!r}, got {kind!r}")
    return kind, message


# --------------------------------------------------------- wire-only shapes
@dataclass(frozen=True)
class BatchRequest:
    """The ``POST /v1/batch`` body: independent requests plus batch knobs.

    ``seed`` is the batch master seed (request ``i`` without its own seed
    counts with ``derive_seed(seed, i)``, exactly as
    :meth:`~repro.service.service.CountingService.count_batch`); ``executor``
    / ``max_workers`` override the server's execution back-end, and
    ``deadline_seconds`` stamps the whole batch.
    """

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


# ----------------------------------------------------------------- payloads
def count_request_payload(request: CountRequest) -> Dict[str, Any]:
    if request.database is not None:
        raise WireError(
            "databases do not cross the wire; the server counts against its "
            "resident database (send the request with database=None)"
        )
    return {
        "query": str(request.query),
        "epsilon": request.epsilon,
        "delta": request.delta,
        "seed": request.seed,
        "method": request.method,
        "latency_budget_seconds": request.latency_budget_seconds,
        "deadline_seconds": request.deadline_seconds,
    }


def count_request_from_payload(payload: Dict[str, Any]) -> CountRequest:
    query_text = payload.get("query")
    if not isinstance(query_text, str):
        raise WireError("count_request needs a 'query' string")
    try:
        query = parse_query(query_text)
    except ValueError as error:
        raise WireError(f"bad query: {error}")
    return CountRequest(
        query=query,
        epsilon=_opt_float(payload, "epsilon"),
        delta=_opt_float(payload, "delta"),
        seed=_opt_int(payload, "seed"),
        method=_opt_str(payload, "method"),
        latency_budget_seconds=_opt_float(payload, "latency_budget_seconds"),
        deadline_seconds=_opt_float(payload, "deadline_seconds"),
    )


# Field readers: each returns ``default`` for a missing or null field and
# raises WireError for a value of the wrong JSON type.
def _opt_float(payload: Dict[str, Any], key: str, default: Any = None) -> Any:
    value = payload.get(key)
    if value is None:
        return default
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise WireError(f"{key} must be a number, got {value!r}")
    return float(value)


def _opt_int(payload: Dict[str, Any], key: str, default: Any = None) -> Any:
    value = payload.get(key)
    if value is None:
        return default
    if not isinstance(value, int) or isinstance(value, bool):
        raise WireError(f"{key} must be an integer, got {value!r}")
    return value


def _opt_str(payload: Dict[str, Any], key: str, default: Any = None) -> Any:
    value = payload.get(key)
    if value is None:
        return default
    if not isinstance(value, str):
        raise WireError(f"{key} must be a string, got {value!r}")
    return value


def _opt_bool(payload: Dict[str, Any], key: str, default: bool) -> bool:
    value = payload.get(key)
    if value is None:
        return default
    if not isinstance(value, bool):
        raise WireError(f"{key} must be a boolean, got {value!r}")
    return value


def _opt_dict(payload: Dict[str, Any], key: str) -> Optional[Dict[str, Any]]:
    value = payload.get(key)
    if value is not None and not isinstance(value, dict):
        raise WireError(f"{key} must be an object, got {value!r}")
    return value


def _str_tuple(payload: Dict[str, Any], key: str) -> Tuple[str, ...]:
    value = payload.get(key)
    if value is None:
        return ()
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise WireError(f"{key} must be a list of strings, got {value!r}")
    return tuple(value)


def _number(payload: Dict[str, Any], key: str) -> float:
    value = _opt_float(payload, key)
    if value is None:
        raise WireError(f"missing number {key!r}")
    return value


def query_plan_payload(plan: QueryPlan) -> Dict[str, Any]:
    return plan.to_dict()


def query_plan_from_payload(payload: Dict[str, Any]) -> QueryPlan:
    # Type-check every field QueryPlan.from_dict reads, so a malformed plan
    # is a WireError rather than whatever the constructor trips over.
    for key in ("scheme", "query_class", "engine", "size_class", "reference", "override"):
        _opt_str(payload, key)
    for key in ("database_size", "treewidth", "arity"):
        _opt_int(payload, key)
    for key in ("fractional_hypertreewidth", "adaptive_width_upper"):
        _opt_float(payload, key)
    for key in ("observed", "predicted"):
        _opt_dict(payload, key)
    _str_tuple(payload, "trace")
    return QueryPlan.from_dict(payload)


def count_result_payload(result: CountResult) -> Dict[str, Any]:
    return {
        "index": result.index,
        "estimate": result.estimate,
        "count": result.count,  # display convenience; decoders recompute it
        "scheme": result.scheme,
        "query_class": result.query_class,
        "plan": query_plan_payload(result.plan),
        "seed": result.seed,
        "epsilon": result.epsilon,
        "delta": result.delta,
        "cache": result.cache,
        "plan_seconds": result.plan_seconds,
        "execute_seconds": result.execute_seconds,
        "widths": _jsonable(result.widths),
        "shard_strategy": result.shard_strategy,
        "degradations": list(result.degradations),
        "coalesced": result.coalesced,
    }


def count_result_from_payload(payload: Dict[str, Any]) -> CountResult:
    plan_payload = payload.get("plan")
    if not isinstance(plan_payload, dict):
        raise WireError("count_result needs a 'plan' object")
    return CountResult(
        index=_opt_int(payload, "index", 0),
        estimate=_number(payload, "estimate"),
        scheme=_opt_str(payload, "scheme", ""),
        query_class=_opt_str(payload, "query_class", ""),
        plan=query_plan_from_payload(plan_payload),
        seed=_opt_int(payload, "seed"),
        epsilon=_opt_float(payload, "epsilon", 0.0),
        delta=_opt_float(payload, "delta", 0.0),
        cache=_opt_str(payload, "cache", "miss"),
        plan_seconds=_opt_float(payload, "plan_seconds", 0.0),
        execute_seconds=_opt_float(payload, "execute_seconds", 0.0),
        widths=_opt_dict(payload, "widths"),
        shard_strategy=_opt_str(payload, "shard_strategy"),
        degradations=_str_tuple(payload, "degradations"),
        coalesced=_opt_bool(payload, "coalesced", False),
    )


def batch_report_payload(report: BatchReport) -> Dict[str, Any]:
    return {
        "num_queries": len(report.results),
        "results": [count_result_payload(result) for result in report.results],
        "wall_seconds": report.wall_seconds,
        "throughput_qps": report.throughput_qps,  # display convenience
        "requested_executor": report.requested_executor,
        "executed_executor": report.executed_executor,
        "max_workers": report.max_workers,
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "degradations": list(report.degradations),
        "retries": report.retries,
    }


def batch_report_from_payload(payload: Dict[str, Any]) -> BatchReport:
    entries = payload.get("results", [])
    if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
        raise WireError("batch_report 'results' must be a list of count_result objects")
    return BatchReport(
        results=[count_result_from_payload(entry) for entry in entries],
        wall_seconds=_opt_float(payload, "wall_seconds", 0.0),
        requested_executor=_opt_str(payload, "requested_executor", ""),
        executed_executor=_opt_str(payload, "executed_executor", ""),
        max_workers=_opt_int(payload, "max_workers", 0),
        cache_hits=_opt_int(payload, "cache_hits", 0),
        cache_misses=_opt_int(payload, "cache_misses", 0),
        degradations=list(_str_tuple(payload, "degradations")),
        retries=_opt_int(payload, "retries", 0),
    )


def batch_request_payload(request: BatchRequest) -> Dict[str, Any]:
    return {
        "requests": [count_request_payload(entry) for entry in request.requests],
        "seed": request.seed,
        "executor": request.executor,
        "max_workers": request.max_workers,
        "deadline_seconds": request.deadline_seconds,
    }


def batch_request_from_payload(payload: Dict[str, Any]) -> BatchRequest:
    entries = payload.get("requests")
    if not isinstance(entries, list) or not entries:
        raise WireError("batch_request needs a non-empty 'requests' list")
    if not all(isinstance(entry, dict) for entry in entries):
        raise WireError("every batch_request entry must be a count_request object")
    return BatchRequest(
        requests=tuple(count_request_from_payload(entry) for entry in entries),
        seed=_opt_int(payload, "seed"),
        executor=_opt_str(payload, "executor"),
        max_workers=_opt_int(payload, "max_workers"),
        deadline_seconds=_opt_float(payload, "deadline_seconds"),
    )


def live_count_payload(live: LiveCount) -> Dict[str, Any]:
    return {
        "estimate": live.estimate,
        "count": live.count,  # display convenience
        "scheme": live.scheme,
        "query_class": live.query_class,
        "fresh": live.fresh,
        "refreshed": live.refreshed,
        "mode": live.mode,
        "pending_ticks": live.pending_ticks,
        "refresh_count": live.refresh_count,
        "seed": live.seed,
        "epsilon": live.epsilon,
        "delta": live.delta,
        "degradations": list(live.degradations),
        "gap_recounts": live.gap_recounts,
        "replans": live.replans,
        "replan_events": list(live.replan_events),
    }


def live_count_from_payload(payload: Dict[str, Any]) -> LiveCount:
    return LiveCount(
        estimate=_number(payload, "estimate"),
        scheme=_opt_str(payload, "scheme", ""),
        query_class=_opt_str(payload, "query_class", ""),
        fresh=_opt_bool(payload, "fresh", True),
        refreshed=_opt_bool(payload, "refreshed", False),
        mode=_opt_str(payload, "mode", "initial"),
        pending_ticks=_opt_int(payload, "pending_ticks", 0),
        refresh_count=_opt_int(payload, "refresh_count", 0),
        seed=_opt_int(payload, "seed"),
        epsilon=_opt_float(payload, "epsilon", 0.0),
        delta=_opt_float(payload, "delta", 0.0),
        degradations=_str_tuple(payload, "degradations"),
        gap_recounts=_opt_int(payload, "gap_recounts", 0),
        replans=_opt_int(payload, "replans", 0),
        replan_events=_str_tuple(payload, "replan_events"),
    )


def facts_update_payload(update: FactsUpdate) -> Dict[str, Any]:
    return {
        "adds": [[name, list(values)] for name, values in update.adds],
        "removes": [[name, list(values)] for name, values in update.removes],
    }


def facts_update_from_payload(payload: Dict[str, Any]) -> FactsUpdate:
    return FactsUpdate(
        adds=_decode_facts(payload.get("adds", ())),
        removes=_decode_facts(payload.get("removes", ())),
    )


def _decode_facts(entries: Any) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
    if not isinstance(entries, (list, tuple)):
        raise WireError(f"facts must be a list of [relation, [values]], got {entries!r}")
    facts = []
    for entry in entries:
        if not (
            isinstance(entry, (list, tuple)) and len(entry) == 2
            and isinstance(entry[0], str) and isinstance(entry[1], (list, tuple))
        ):
            raise WireError(f"bad fact entry {entry!r}; expected [relation, [values]]")
        facts.append((entry[0], tuple(_normalise(value) for value in entry[1])))
    return tuple(facts)


#: The JSON scalars a fact value may be (besides lists of fact values).
_SCALARS = (str, int, float, bool, type(None))


def _normalise(value: Any) -> Any:
    """JSON turns tuples into lists; keep decoded fact values hashable."""
    if isinstance(value, list):
        return tuple(_normalise(item) for item in value)
    if not isinstance(value, _SCALARS):
        raise WireError(f"a fact value must be a scalar or a list, got {value!r}")
    return value


def _jsonable(value: Any) -> Any:
    """Deep-convert tuples to lists so the payload equals its JSON round
    trip (widths dictionaries occasionally hold tuples)."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    return value


def error_payload(error: ServeError) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"status": error.status, "error": error.error}
    if error.retry_after is not None:
        payload["retry_after"] = error.retry_after
    return payload


def error_from_payload(payload: Dict[str, Any]) -> ServeError:
    return ServeError(
        status=_opt_int(payload, "status", 500),
        error=_opt_str(payload, "error", ""),
        retry_after=_opt_float(payload, "retry_after"),
    )


# ------------------------------------------------------- one-call json API
#: kind -> (payload encoder, payload decoder); the registry behind
#: :func:`to_json` / :func:`from_json`.
_CODECS = {
    "count_request": (count_request_payload, count_request_from_payload),
    "count_result": (count_result_payload, count_result_from_payload),
    "batch_request": (batch_request_payload, batch_request_from_payload),
    "batch_report": (batch_report_payload, batch_report_from_payload),
    "query_plan": (query_plan_payload, query_plan_from_payload),
    "live_count": (live_count_payload, live_count_from_payload),
    "facts_update": (facts_update_payload, facts_update_from_payload),
    "error": (error_payload, error_from_payload),
}

_KIND_BY_TYPE = {
    CountRequest: "count_request",
    CountResult: "count_result",
    BatchRequest: "batch_request",
    BatchReport: "batch_report",
    QueryPlan: "query_plan",
    LiveCount: "live_count",
    FactsUpdate: "facts_update",
    ServeError: "error",
}


def kind_of(obj: Any) -> str:
    """The wire kind of a schema object (:class:`WireError` when the type
    is not part of the v1 contract)."""
    kind = _KIND_BY_TYPE.get(type(obj))
    if kind is None:
        raise WireError(f"{type(obj).__name__} is not a v1 wire type")
    return kind


def encode(obj: Any) -> Dict[str, Any]:
    """Envelope a schema object (dispatching on its type)."""
    kind = kind_of(obj)
    encoder, _ = _CODECS[kind]
    return envelope(kind, encoder(obj))


def decode(message: Dict[str, Any], expect: Optional[str] = None) -> Any:
    """Decode an enveloped message back into its schema object."""
    kind, payload = open_envelope(message, expect=expect)
    codec = _CODECS.get(kind)
    if codec is None:
        raise WireError(f"unknown message kind {kind!r}")
    return codec[1](payload)


def to_json(obj: Any, indent: Optional[int] = None) -> str:
    """Serialize a schema object to enveloped JSON text."""
    return json.dumps(encode(obj), indent=indent)


def from_json(text: str, expect: Optional[str] = None) -> Any:
    """Parse enveloped JSON text back into its schema object (strict
    round-trip inverse of :func:`to_json`)."""
    try:
        message = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as error:
        raise WireError(f"invalid JSON: {error}")
    return decode(message, expect=expect)
