"""Seeded fuzzing of the untrusted edges: the v1 wire decoders and the query
parser.  Mutated inputs must either decode (parse) or raise the one error
type the server maps to 400, never anything else.  Stdlib generators only,
each test under a fixed ``random.Random`` seed so a failure reproduces."""

from __future__ import annotations

import json
import random

import pytest

from repro.queries import parse_query
from repro.serve import BatchRequest, FactsUpdate, WireError, schema
from repro.service import BatchReport, CountRequest, CountResult
from repro.service.plan import QueryPlan
from repro.stream.live import LiveCount

QUERIES = (
    "Ans(x, y) :- E(x, z), E(z, y)",
    "Ans(x) :- E(x, y), E(x, z), y != z",
    "Ans(x, y) :- E(x, y), not F(y, x), x != y",
    "Ans() :- E(x, y), E(y, z), E(z, x)",
    "Ans(x, w) :- E(x, y), y = z, E(z, w)",
)

#: Replacement values: every JSON type, including nestings and hostile sizes.
VALUES = (
    None, True, False, 0, -1, 7, 2**70, 10**400, 1.5, -0.0, float("inf"), "", "x", "exact",
    QUERIES[0], [], [1], ["E", [1, 2]], [["E", [1]]], {}, {"a": 1}, [[["deep"]]],
    {"kind": "count_request"},
)
KEYS = ("api", "kind", "query", "seed", "method", "epsilon", "delta", "requests",
        "executor", "max_workers", "deadline_seconds", "adds", "removes", "extra")


def mutate(value, rng):
    """One random edit somewhere inside a JSON value."""
    if isinstance(value, dict) and value and rng.random() < 0.75:
        mutated = dict(value)
        key = rng.choice(sorted(mutated))
        operation = rng.randrange(3)
        if operation == 0:
            del mutated[key]
        elif operation == 1:
            mutated[key] = mutate(mutated[key], rng)
        else:
            mutated[rng.choice(KEYS)] = rng.choice(VALUES)
        return mutated
    if isinstance(value, list) and value and rng.random() < 0.75:
        mutated = list(value)
        index = rng.randrange(len(mutated))
        operation = rng.randrange(3)
        if operation == 0:
            del mutated[index]
        elif operation == 1:
            mutated[index] = mutate(mutated[index], rng)
        else:
            mutated.insert(index, rng.choice(VALUES))
        return mutated
    if isinstance(value, str) and value and rng.random() < 0.5:
        return mutate_text(value, rng)
    return rng.choice(VALUES)


ALPHABET = "(),:-!=<> \t\nxyzwEFAnsot0123_'\"."


def mutate_text(text, rng):
    """Delete, duplicate, insert or replace a short span of ``text``."""
    start = rng.randrange(len(text) + 1)
    end = min(len(text), start + rng.randrange(1, 6))
    operation = rng.randrange(4)
    if operation == 0:
        return text[:start] + text[end:]
    if operation == 1:
        return text[:end] + text[start:end] + text[end:]
    noise = "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(1, 4)))
    if operation == 2:
        return text[:start] + noise + text[start:]
    return text[:start] + noise + text[end:]


PLAN = QueryPlan(
    scheme="fpras_cq", query_class="CQ", engine="indexed", database_size=40,
    size_class="large", treewidth=1, fractional_hypertreewidth=1.0,
    adaptive_width_upper=1.0, arity=2, reference="Theorem 16", override=None,
    trace=("dichotomy: CQ",), observed={"schemes": {}}, predicted=None,
)
RESULT = CountResult(
    index=0, estimate=12.5, scheme="fpras_cq", query_class="CQ", plan=PLAN,
    seed=3, epsilon=0.5, delta=0.25, cache="miss", plan_seconds=0.001,
    execute_seconds=0.02, widths={"fhw": 1.0}, degradations=("retry",),
)


def valid_messages():
    """One well-formed envelope of every wire kind."""
    return {
        "count_request": schema.encode(CountRequest(
            query=parse_query(QUERIES[1]), epsilon=0.5, delta=0.25, seed=3, method="exact",
        )),
        "batch_request": schema.encode(BatchRequest(
            requests=(CountRequest(query=parse_query(QUERIES[0]), seed=1),
                      CountRequest(query=parse_query(QUERIES[2]))),
            seed=7, executor="serial", max_workers=2, deadline_seconds=5.0,
        )),
        "facts_update": schema.encode(FactsUpdate(
            adds=(("E", (0, 1)), ("F", ((1, 2), "a"))), removes=(("E", (1, 0)),),
        )),
        "count_result": schema.encode(RESULT),
        "batch_report": schema.encode(BatchReport(
            results=[RESULT], wall_seconds=0.5, requested_executor="process",
            executed_executor="serial", max_workers=2, cache_hits=0,
            cache_misses=1, degradations=["serial-fallback"], retries=1,
        )),
        "live_count": schema.encode(LiveCount(
            estimate=7, scheme="exact", query_class="CQ", fresh=True,
            refreshed=True, mode="delta", pending_ticks=0, refresh_count=2,
            seed=None, epsilon=0.0, delta=0.0, replan_events=("drift",),
        )),
        "error": schema.encode(schema.ServeError(status=503, error="busy", retry_after=1.0)),
        "query_plan": schema.encode(PLAN),
    }


@pytest.mark.parametrize(
    "kind,edit",
    [
        pytest.param("count_result", {"estimate": [1]}, id="count_result-estimate"),
        pytest.param("count_result", {"epsilon": "x"}, id="count_result-epsilon"),
        pytest.param("count_result", {"estimate": None}, id="count_result-no-estimate"),
        pytest.param("live_count", {"pending_ticks": [1]}, id="live_count-pending_ticks"),
        pytest.param("batch_report", {"results": [5]}, id="batch_report-results"),
        pytest.param("error", {"status": [1]}, id="error-status"),
        pytest.param("query_plan", {"database_size": [1]}, id="query_plan-database_size"),
    ],
)
def test_malformed_response_fields_raise_wire_error(kind, edit):
    # An edit to None deletes the field.
    message = {**valid_messages()[kind], **edit}
    message = {key: value for key, value in message.items() if value is not None}
    with pytest.raises(WireError):
        schema.decode(message)


def test_valid_messages_round_trip():
    """The unedited messages decode, so each malformed case above fails on
    its edited field and every fuzz run starts from a well-formed message."""
    for message in valid_messages().values():
        text = json.dumps(message)
        assert json.loads(schema.to_json(schema.from_json(text))) == json.loads(text)


def test_wire_decoders_return_or_raise_wire_error():
    rng = random.Random(2024)
    valid = list(valid_messages().values())
    decoded = 0
    for _ in range(6000):
        message = rng.choice(valid)
        for _ in range(rng.randrange(1, 4)):
            message = mutate(message, rng)
        try:
            schema.decode(message)
        except WireError:
            continue
        decoded += 1
    # The mutations leave a good share of the messages well-formed.
    assert 500 < decoded < 5500


def test_parser_returns_or_raises_value_error():
    rng = random.Random(2024)
    parsed = 0
    for _ in range(10000):
        text = rng.choice(QUERIES)
        for _ in range(rng.randrange(1, 5)):
            text = mutate_text(text, rng)
        try:
            parse_query(text)
        except ValueError:
            continue
        parsed += 1
    assert 200 < parsed < 5000


#: Query-string keys the GET endpoints read, plus one they do not.
GET_KEYS = ("method", "epsilon", "delta", "seed", "refresh", "debounce_ticks",
            "budget_seconds", "latency_budget_seconds", "heartbeat_seconds", "extra")


def fuzzed_params(rng):
    """A GET query string: a (mutated) query plus random keys and values."""
    params = {"query": rng.choice(QUERIES)}
    for _ in range(rng.randrange(1, 4)):
        operation = rng.randrange(6)
        if operation == 0:
            params["query"] = mutate_text(params.get("query", ""), rng)
        elif operation == 1 and params:
            del params[rng.choice(sorted(params))]
        else:
            value = rng.choice(VALUES)
            params[rng.choice(GET_KEYS)] = value if isinstance(value, str) else json.dumps(value)
    return params


@pytest.mark.parametrize("path", ["/v1/plan", "/v1/subscribe"])
def test_get_query_strings_answer_200_or_4xx(medium_database, path):
    """Fuzzed query strings of the GET endpoints that run service work get
    200 or a 4xx, never a 500, and never hold their connection."""
    import socket
    import urllib.parse

    from repro.serve import start_in_thread
    from repro.service import CountingService

    rng = random.Random(2024)
    statuses = {}
    handle = start_in_thread(CountingService(medium_database))
    try:
        for _ in range(150):
            params = fuzzed_params(rng)
            if path == "/v1/subscribe":
                params["max_events"] = "1"
            head = (f"GET {path}?{urllib.parse.urlencode(params)} HTTP/1.1\r\n"
                    "Host: test\r\nConnection: close\r\n\r\n")
            with socket.create_connection((handle.host, handle.port), timeout=10) as raw:
                raw.sendall(head.encode())
                reply = b""
                while True:
                    chunk = raw.recv(65536)  # socket.timeout: the connection was held
                    if not chunk:
                        break
                    reply += chunk
            status = int(reply.split(b" ", 2)[1])
            assert status == 200 or 400 <= status < 500, (params, reply[:300])
            if status == 200 and path == "/v1/subscribe":
                assert reply.count(b"event: count") == 1, (params, reply[:300])
            statuses[status] = statuses.get(status, 0) + 1
    finally:
        handle.stop()
    # The edits leave both well-formed and malformed requests.
    assert statuses.get(200, 0) > 10 and statuses.get(400, 0) > 10, statuses
