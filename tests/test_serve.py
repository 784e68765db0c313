"""repro.serve: wire schema round-trips, admission control, coalescing, and
end-to-end HTTP tests against a real socket."""

from __future__ import annotations

import contextlib
import json
import re
import threading
import time

import pytest

from repro.queries import parse_query
from repro.resilience.faults import FaultPlan, FaultRule
from repro.serve import (
    AdmissionController,
    BatchRequest,
    Coalescer,
    FactsUpdate,
    ServeClient,
    ServeConfig,
    ServeError,
    TenantSpec,
    TokenBucket,
    WireError,
    coalescing_key,
    parse_tenants,
    schema,
    start_in_thread,
)
from repro.serve.http import MAX_HEADER_LINES
from repro.serve.server import QUEUE_RETRY_AFTER_SECONDS
from repro.service import (
    BatchReport,
    CountingService,
    CountRequest,
    CountResult,
    ServiceConfig,
)
from repro.service.plan import QueryPlan
from repro.stream.live import LiveCount


@contextlib.contextmanager
def running_server(database, service_config=None, serve_config=None):
    """A CountingServer on an ephemeral port, torn down on exit."""
    service = CountingService(database, service_config)
    handle = start_in_thread(service, serve_config)
    try:
        yield service, handle
    finally:
        handle.stop()


def client_for(handle, api_key=None, timeout=30.0):
    return ServeClient(handle.host, handle.port, api_key=api_key, timeout=timeout)


def open_subscription(handle, query="Ans(x, y) :- E(x, y)", **params):
    """A raw ``GET /v1/subscribe`` (the client does not send the refresh
    policy knobs); returns the connection and the response."""
    import http.client
    import urllib.parse

    connection = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
    connection.request(
        "GET", "/v1/subscribe?" + urllib.parse.urlencode({"query": query, **params})
    )
    return connection, connection.getresponse()


#: Injects a deterministic first-attempt latency into every count so herd
#: members reliably overlap the leader (retries keep estimates bit-identical).
SLOW_PLAN = FaultPlan(
    rules=(
        FaultRule(
            site="executor.task", kind="latency", rate=1.0, latency_seconds=0.25
        ),
    ),
    seed=1,
)


def raw_exchange(handle, data):
    """Send ``data`` on a fresh socket and read until the server closes it."""
    import socket

    with socket.create_connection((handle.host, handle.port), timeout=5) as raw:
        raw.sendall(data)
        chunks = []
        while True:
            chunk = raw.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def server_threads():
    """The live threads of any server in this process."""
    return [
        thread for thread in threading.enumerate()
        if thread.name.startswith("repro-serve-")
    ]


def nested_list(depth):
    """``0`` wrapped in ``depth`` lists."""
    value = 0
    for _ in range(depth):
        value = [value]
    return value


def golden_objects():
    """One fully populated object and one left at its defaults for each of
    the eight wire kinds."""
    query = parse_query("Ans(x) :- E(x, y), E(y, z), x != z")
    plan = QueryPlan(
        scheme="fptras_dcq", query_class="DCQ", engine="indexed", database_size=40,
        size_class="large", treewidth=1, fractional_hypertreewidth=1.5,
        adaptive_width_upper=2.0, arity=2, reference="Theorem 13",
        override="fptras_dcq", trace=("dichotomy: DCQ", "size: large"),
        observed={"fingerprint_class": 5, "schemes": {}},
        predicted={"basis": "profile", "budget_seconds": 0.5,
                   "candidates": {"exact": {"seconds": None, "runs": 0}}},
    )
    bare_plan = QueryPlan(
        scheme="exact", query_class="CQ", engine="columnar", database_size=6502,
        size_class="small", treewidth=None, fractional_hypertreewidth=None,
        adaptive_width_upper=None, arity=None, reference="Theorem 5", override=None,
    )
    result = CountResult(
        index=2, estimate=41.5, scheme="fptras_dcq", query_class="DCQ", plan=plan,
        seed=1234, epsilon=0.125, delta=0.0625, cache="hit", plan_seconds=0.001,
        execute_seconds=0.0205, widths={"tw": 1, "bags": ((0, 1), (1, 2))},
        shard_strategy="partition", degradations=("retry", "stale"), coalesced=True,
    )
    bare_result = CountResult(
        index=0, estimate=3.0, scheme="exact", query_class="CQ", plan=bare_plan,
        seed=None, epsilon=0.0, delta=0.0, cache="miss", plan_seconds=0.0,
        execute_seconds=0.0,
    )
    request = CountRequest(
        query=query, epsilon=0.125, delta=0.0625, seed=1234, method="fpras_cq",
        latency_budget_seconds=0.75, deadline_seconds=2.5,
    )
    bare_request = CountRequest(query=parse_query("Ans(x, y) :- E(x, y)"))
    return {
        "count_request": request,
        "count_request-defaults": bare_request,
        "count_result": result,
        "count_result-defaults": bare_result,
        "batch_request": BatchRequest(
            requests=(request, bare_request), seed=11, executor="serial",
            max_workers=2, deadline_seconds=9.0,
        ),
        "batch_request-defaults": BatchRequest(requests=(bare_request,)),
        "batch_report": BatchReport(
            results=[result, bare_result], wall_seconds=0.25,
            requested_executor="process", executed_executor="serial",
            max_workers=2, cache_hits=1, cache_misses=1,
            degradations=["serial-fallback"], retries=1,
        ),
        "batch_report-defaults": BatchReport(
            results=[], wall_seconds=0.0, requested_executor="serial",
            executed_executor="serial", max_workers=1, cache_hits=0, cache_misses=0,
        ),
        "query_plan": plan,
        "query_plan-defaults": bare_plan,
        "live_count": LiveCount(
            estimate=41.5, scheme="fpras_cq", query_class="CQ", fresh=False,
            refreshed=True, mode="delta", pending_ticks=2, refresh_count=3, seed=9,
            epsilon=0.2, delta=0.05, degradations=("stale",), gap_recounts=1,
            replans=1, replan_events=("drift",),
        ),
        "live_count-defaults": LiveCount(
            estimate=7, scheme="exact", query_class="CQ", fresh=True,
            refreshed=False, mode="initial", pending_ticks=0, refresh_count=0,
            seed=None, epsilon=0.0, delta=0.0,
        ),
        "facts_update": FactsUpdate(
            adds=(("E", (0, 1)), ("F", ((1, 2), "a", None, True, 1.5))),
            removes=(("E", (1, 0)),),
        ),
        "facts_update-defaults": FactsUpdate(),
        "error": schema.ServeError(status=503, error="busy", retry_after=1.5),
        "error-defaults": schema.ServeError(status=400, error="bad query"),
    }


#: ``schema.to_json`` of each :func:`golden_objects` entry, byte for byte.
GOLDEN_JSON = {
    'count_request': (
        '{"api": "repro.v1", "kind": "count_request", "query": "Ans(x) :- E(x, y), E('
        'y, z), x != z", "epsilon": 0.125, "delta": 0.0625, "seed": 1234, "method": "'
        'fpras_cq", "latency_budget_seconds": 0.75, "deadline_seconds": 2.5}'
    ),
    'count_request-defaults': (
        '{"api": "repro.v1", "kind": "count_request", "query": "Ans(x, y) :- E(x, y)"'
        ', "epsilon": null, "delta": null, "seed": null, "method": null, "latency_bud'
        'get_seconds": null, "deadline_seconds": null}'
    ),
    'count_result': (
        '{"api": "repro.v1", "kind": "count_result", "index": 2, "estimate": 41.5, "c'
        'ount": 42, "scheme": "fptras_dcq", "query_class": "DCQ", "plan": {"scheme": '
        '"fptras_dcq", "reference": "Theorem 13", "query_class": "DCQ", "engine": "in'
        'dexed", "database_size": 40, "size_class": "large", "treewidth": 1, "fractio'
        'nal_hypertreewidth": 1.5, "adaptive_width_upper": 2.0, "arity": 2, "override'
        '": "fptras_dcq", "trace": ["dichotomy: DCQ", "size: large"], "observed": {"f'
        'ingerprint_class": 5, "schemes": {}}, "predicted": {"basis": "profile", "bud'
        'get_seconds": 0.5, "candidates": {"exact": {"seconds": null, "runs": 0}}}}, '
        '"seed": 1234, "epsilon": 0.125, "delta": 0.0625, "cache": "hit", "plan_secon'
        'ds": 0.001, "execute_seconds": 0.0205, "widths": {"tw": 1, "bags": [[0, 1], '
        '[1, 2]]}, "shard_strategy": "partition", "degradations": ["retry", "stale"],'
        ' "coalesced": true}'
    ),
    'count_result-defaults': (
        '{"api": "repro.v1", "kind": "count_result", "index": 0, "estimate": 3.0, "co'
        'unt": 3, "scheme": "exact", "query_class": "CQ", "plan": {"scheme": "exact",'
        ' "reference": "Theorem 5", "query_class": "CQ", "engine": "columnar", "datab'
        'ase_size": 6502, "size_class": "small", "treewidth": null, "fractional_hyper'
        'treewidth": null, "adaptive_width_upper": null, "arity": null, "override": n'
        'ull, "trace": [], "observed": null, "predicted": null}, "seed": null, "epsil'
        'on": 0.0, "delta": 0.0, "cache": "miss", "plan_seconds": 0.0, "execute_secon'
        'ds": 0.0, "widths": null, "shard_strategy": null, "degradations": [], "coale'
        'sced": false}'
    ),
    'batch_request': (
        '{"api": "repro.v1", "kind": "batch_request", "requests": [{"query": "Ans(x) '
        ':- E(x, y), E(y, z), x != z", "epsilon": 0.125, "delta": 0.0625, "seed": 123'
        '4, "method": "fpras_cq", "latency_budget_seconds": 0.75, "deadline_seconds":'
        ' 2.5}, {"query": "Ans(x, y) :- E(x, y)", "epsilon": null, "delta": null, "se'
        'ed": null, "method": null, "latency_budget_seconds": null, "deadline_seconds'
        '": null}], "seed": 11, "executor": "serial", "max_workers": 2, "deadline_sec'
        'onds": 9.0}'
    ),
    'batch_request-defaults': (
        '{"api": "repro.v1", "kind": "batch_request", "requests": [{"query": "Ans(x, '
        'y) :- E(x, y)", "epsilon": null, "delta": null, "seed": null, "method": null'
        ', "latency_budget_seconds": null, "deadline_seconds": null}], "seed": null, '
        '"executor": null, "max_workers": null, "deadline_seconds": null}'
    ),
    'batch_report': (
        '{"api": "repro.v1", "kind": "batch_report", "num_queries": 2, "results": [{"'
        'index": 2, "estimate": 41.5, "count": 42, "scheme": "fptras_dcq", "query_cla'
        'ss": "DCQ", "plan": {"scheme": "fptras_dcq", "reference": "Theorem 13", "que'
        'ry_class": "DCQ", "engine": "indexed", "database_size": 40, "size_class": "l'
        'arge", "treewidth": 1, "fractional_hypertreewidth": 1.5, "adaptive_width_upp'
        'er": 2.0, "arity": 2, "override": "fptras_dcq", "trace": ["dichotomy: DCQ", '
        '"size: large"], "observed": {"fingerprint_class": 5, "schemes": {}}, "predic'
        'ted": {"basis": "profile", "budget_seconds": 0.5, "candidates": {"exact": {"'
        'seconds": null, "runs": 0}}}}, "seed": 1234, "epsilon": 0.125, "delta": 0.06'
        '25, "cache": "hit", "plan_seconds": 0.001, "execute_seconds": 0.0205, "width'
        's": {"tw": 1, "bags": [[0, 1], [1, 2]]}, "shard_strategy": "partition", "deg'
        'radations": ["retry", "stale"], "coalesced": true}, {"index": 0, "estimate":'
        ' 3.0, "count": 3, "scheme": "exact", "query_class": "CQ", "plan": {"scheme":'
        ' "exact", "reference": "Theorem 5", "query_class": "CQ", "engine": "columnar'
        '", "database_size": 6502, "size_class": "small", "treewidth": null, "fractio'
        'nal_hypertreewidth": null, "adaptive_width_upper": null, "arity": null, "ove'
        'rride": null, "trace": [], "observed": null, "predicted": null}, "seed": nul'
        'l, "epsilon": 0.0, "delta": 0.0, "cache": "miss", "plan_seconds": 0.0, "exec'
        'ute_seconds": 0.0, "widths": null, "shard_strategy": null, "degradations": ['
        '], "coalesced": false}], "wall_seconds": 0.25, "throughput_qps": 8.0, "reque'
        'sted_executor": "process", "executed_executor": "serial", "max_workers": 2, '
        '"cache_hits": 1, "cache_misses": 1, "degradations": ["serial-fallback"], "re'
        'tries": 1}'
    ),
    'batch_report-defaults': (
        '{"api": "repro.v1", "kind": "batch_report", "num_queries": 0, "results": [],'
        ' "wall_seconds": 0.0, "throughput_qps": 0.0, "requested_executor": "serial",'
        ' "executed_executor": "serial", "max_workers": 1, "cache_hits": 0, "cache_mi'
        'sses": 0, "degradations": [], "retries": 0}'
    ),
    'query_plan': (
        '{"api": "repro.v1", "kind": "query_plan", "scheme": "fptras_dcq", "reference'
        '": "Theorem 13", "query_class": "DCQ", "engine": "indexed", "database_size":'
        ' 40, "size_class": "large", "treewidth": 1, "fractional_hypertreewidth": 1.5'
        ', "adaptive_width_upper": 2.0, "arity": 2, "override": "fptras_dcq", "trace"'
        ': ["dichotomy: DCQ", "size: large"], "observed": {"fingerprint_class": 5, "s'
        'chemes": {}}, "predicted": {"basis": "profile", "budget_seconds": 0.5, "cand'
        'idates": {"exact": {"seconds": null, "runs": 0}}}}'
    ),
    'query_plan-defaults': (
        '{"api": "repro.v1", "kind": "query_plan", "scheme": "exact", "reference": "T'
        'heorem 5", "query_class": "CQ", "engine": "columnar", "database_size": 6502,'
        ' "size_class": "small", "treewidth": null, "fractional_hypertreewidth": null'
        ', "adaptive_width_upper": null, "arity": null, "override": null, "trace": []'
        ', "observed": null, "predicted": null}'
    ),
    'live_count': (
        '{"api": "repro.v1", "kind": "live_count", "estimate": 41.5, "count": 42, "sc'
        'heme": "fpras_cq", "query_class": "CQ", "fresh": false, "refreshed": true, "'
        'mode": "delta", "pending_ticks": 2, "refresh_count": 3, "seed": 9, "epsilon"'
        ': 0.2, "delta": 0.05, "degradations": ["stale"], "gap_recounts": 1, "replans'
        '": 1, "replan_events": ["drift"]}'
    ),
    'live_count-defaults': (
        '{"api": "repro.v1", "kind": "live_count", "estimate": 7, "count": 7, "scheme'
        '": "exact", "query_class": "CQ", "fresh": true, "refreshed": false, "mode": '
        '"initial", "pending_ticks": 0, "refresh_count": 0, "seed": null, "epsilon": '
        '0.0, "delta": 0.0, "degradations": [], "gap_recounts": 0, "replans": 0, "rep'
        'lan_events": []}'
    ),
    'facts_update': (
        '{"api": "repro.v1", "kind": "facts_update", "adds": [["E", [0, 1]], ["F", [['
        '1, 2], "a", null, true, 1.5]]], "removes": [["E", [1, 0]]]}'
    ),
    'facts_update-defaults': (
        '{"api": "repro.v1", "kind": "facts_update", "adds": [], "removes": []}'
    ),
    'error': (
        '{"api": "repro.v1", "kind": "error", "status": 503, "error": "busy", "retry_'
        'after": 1.5}'
    ),
    'error-defaults': (
        '{"api": "repro.v1", "kind": "error", "status": 400, "error": "bad query"}'
    ),
}


class TestWireSchema:
    def test_count_request_round_trip_preserves_every_field(self):
        request = CountRequest(
            query=parse_query("Ans(x) :- E(x, y), E(y, z), x != z"),
            epsilon=0.125,
            delta=0.0625,
            seed=1234,
            method="fpras_cq",
            latency_budget_seconds=0.75,
            deadline_seconds=2.5,
        )
        assert schema.from_json(schema.to_json(request)) == request

    def test_count_result_round_trip_is_bit_identical(self, medium_database):
        service = CountingService(medium_database)
        result = service.submit(
            CountRequest(query=parse_query("Ans(x, y) :- E(x, y)"), seed=7, epsilon=0.25)
        )
        decoded = schema.from_json(schema.to_json(result))
        assert decoded == result
        assert decoded.estimate == result.estimate
        assert decoded.plan == result.plan

    def test_batch_report_round_trip(self, medium_database):
        service = CountingService(medium_database)
        report = service.count_batch(
            [parse_query("Ans(x) :- E(x, y)"), parse_query("Ans(x, y) :- E(x, y)")],
            seed=5,
            executor="serial",
        )
        decoded = schema.from_json(schema.to_json(report), expect="batch_report")
        assert decoded.results == report.results
        assert decoded.wall_seconds == report.wall_seconds
        assert decoded.cache_misses == report.cache_misses

    def test_batch_request_and_facts_update_round_trip(self):
        batch = BatchRequest(
            requests=(
                CountRequest(query=parse_query("Ans(x) :- E(x, y)"), seed=3),
            ),
            seed=11,
            executor="serial",
            max_workers=2,
            deadline_seconds=9.0,
        )
        assert schema.from_json(schema.to_json(batch)) == batch
        update = FactsUpdate(
            adds=(("E", (1, 2)), ("Name", ("alice", 7))),
            removes=(("E", (2, 1)),),
        )
        assert schema.from_json(schema.to_json(update)) == update

    def test_live_count_round_trip(self):
        live = LiveCount(
            estimate=41.5,
            scheme="fpras_cq",
            query_class="CQ",
            fresh=False,
            refreshed=True,
            mode="delta",
            pending_ticks=2,
            refresh_count=3,
            seed=9,
            epsilon=0.2,
            delta=0.05,
            degradations=("stale",),
            gap_recounts=1,
            replans=1,
            replan_events=("drift",),
        )
        assert schema.from_json(schema.to_json(live)) == live

    def test_decoders_tolerate_unknown_fields(self):
        request = CountRequest(query=parse_query("Ans(x) :- E(x, y)"), seed=2)
        message = schema.encode(request)
        message["field_from_the_future"] = {"nested": True}
        assert schema.decode(message) == request

    def test_wrong_protocol_version_is_rejected(self):
        message = schema.encode(
            CountRequest(query=parse_query("Ans(x) :- E(x, y)"))
        )
        message["api"] = "repro.v2"
        with pytest.raises(WireError, match="unsupported protocol"):
            schema.decode(message)

    def test_envelope_refuses_reserved_keys_and_databases(self, small_database):
        with pytest.raises(WireError, match="reserved"):
            schema.envelope("stats", {"api": "x"})
        with pytest.raises(WireError, match="wire"):
            schema.encode(
                CountRequest(
                    query=parse_query("Ans(x) :- E(x, y)"),
                    database=small_database,
                )
            )

    def test_field_tables_refuse_reserved_keys(self):
        with pytest.raises(WireError, match="reserved"):
            schema._register("bogus", dict, ("kind", str))
        assert dict not in schema._KINDS

    def test_expected_kind_mismatch_raises(self):
        text = schema.to_json(CountRequest(query=parse_query("Ans(x) :- E(x, y)")))
        with pytest.raises(WireError, match="expected kind"):
            schema.from_json(text, expect="count_result")

    @pytest.mark.parametrize("name", sorted(GOLDEN_JSON))
    def test_encoded_bytes_are_pinned(self, name):
        """The exact text of every kind: key order, the display fields
        (``count``, ``throughput_qps``, ``num_queries``) and the optional
        ``retry_after``, none of which a parsed-dict comparison sees."""
        assert schema.to_json(golden_objects()[name]) == GOLDEN_JSON[name]


class TestSubmitRequestForm:
    def test_request_positional_and_keyword_forms_match(self, medium_database):
        query = parse_query("Ans(x, y) :- E(x, y)")
        request = CountRequest(query=query, seed=13, epsilon=0.25)
        via_keyword = CountingService(medium_database).submit(request=request)
        via_positional = CountingService(medium_database).submit(request)
        assert via_keyword.estimate == via_positional.estimate
        assert via_keyword.scheme == via_positional.scheme

    def test_legacy_kwarg_form_is_rejected(self, medium_database):
        service = CountingService(medium_database)
        query = parse_query("Ans(x) :- E(x, y)")
        with pytest.raises(TypeError):
            service.submit(query, seed=1)
        with pytest.raises(TypeError):
            service.submit(query, request=CountRequest(query=query))

    def test_submit_without_request_raises(self, medium_database):
        with pytest.raises(TypeError):
            CountingService(medium_database).submit()

    def test_per_request_deadline_expires(self, medium_database):
        from repro.resilience.retry import DeadlineExceeded

        service = CountingService(medium_database)
        request = CountRequest(
            query=parse_query("Ans(x, y) :- E(x, y)"),
            deadline_seconds=1e-9,
        )
        with pytest.raises(DeadlineExceeded):
            service.submit(request=request)


class TestAdmission:
    def test_token_bucket_admits_then_rejects_with_retry_hint(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3.0, clock=lambda: now[0])
        assert bucket.acquire() is None
        assert bucket.acquire() is None
        assert bucket.acquire() is None
        retry = bucket.acquire()
        assert retry == pytest.approx(0.5)  # one token at rate 2/s
        now[0] += 0.5
        assert bucket.acquire() is None

    def test_controller_maps_keys_and_meters_quota(self):
        now = [0.0]
        controller = AdmissionController(
            (TenantSpec(name="acme", api_key="k1", rate=1.0, burst=1.0),),
            clock=lambda: now[0],
        )
        assert controller.admit("k1").admitted
        denied = controller.admit("k1")
        assert (denied.admitted, denied.status) == (False, 429)
        assert denied.retry_after == pytest.approx(1.0)
        unknown = controller.admit("wrong")
        assert (unknown.admitted, unknown.status) == (False, 401)
        stats = controller.stats()
        assert stats["admitted"] == 1
        assert stats["rejected_quota"] == 1
        assert stats["rejected_auth"] == 1

    def test_open_access_when_no_tenants(self):
        controller = AdmissionController()
        assert controller.open_access
        assert controller.admit(None).admitted

    def test_parse_tenants_from_json(self):
        tenants = parse_tenants(
            '[{"name": "a", "key": "ka", "rate": 5, "burst": 10}, {"key": "kb"}]'
        )
        assert tenants[0] == TenantSpec(name="a", api_key="ka", rate=5.0, burst=10.0)
        assert tenants[1].name == "kb"
        with pytest.raises(ValueError):
            parse_tenants('[{"name": "missing-key"}]')

    def test_duplicate_api_keys_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            AdmissionController(
                (TenantSpec(name="a", api_key="k"), TenantSpec(name="b", api_key="k"))
            )


class TestCoalescer:
    @staticmethod
    def fetch_from_threads(coalescer, runner, count):
        """``count`` threads fetch ``"k"`` at once; returns each one's
        ``(result, coalesced)`` or exception."""
        outcomes, barrier = [], threading.Barrier(count)

        def fetch():
            barrier.wait(timeout=10)
            try:
                outcomes.append(coalescer.fetch("k", runner))
            except RuntimeError as error:
                outcomes.append(error)

        threads = [threading.Thread(target=fetch) for _ in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        return outcomes

    def test_concurrent_fetches_share_one_execution(self):
        runs = []

        def runner():
            runs.append(1)
            time.sleep(0.05)
            return 42

        outcomes = self.fetch_from_threads(Coalescer(), runner, 5)
        assert len(runs) == 1
        assert all(value == 42 for value, _ in outcomes)
        assert sorted(coalesced for _, coalesced in outcomes) == [
            False, True, True, True, True,
        ]

    def test_leader_failure_propagates_to_followers(self):
        def runner():
            time.sleep(0.05)
            raise RuntimeError("boom")

        results = self.fetch_from_threads(Coalescer(), runner, 3)
        assert len(results) == 3
        assert all(isinstance(entry, RuntimeError) for entry in results)

    def test_key_splits_on_seed_and_mutation(self, medium_database):
        service = CountingService(medium_database)
        query = parse_query("Ans(x, y) :- E(x, y)")
        base = coalescing_key(service, CountRequest(query=query, seed=1))
        assert base == coalescing_key(service, CountRequest(query=query, seed=1))
        assert base != coalescing_key(service, CountRequest(query=query, seed=2))
        # A different latency budget may plan a different scheme (adaptive).
        assert base != coalescing_key(
            service, CountRequest(query=query, seed=1, latency_budget_seconds=0.5)
        )
        medium_database.add_fact("E", (0, 0))  # self-loops never pre-exist
        assert base != coalescing_key(service, CountRequest(query=query, seed=1))


class TestServerEndToEnd:
    def test_count_is_bit_identical_to_in_process_submit(
        self, medium_database, medium_graph
    ):
        from repro.workloads import database_from_graph

        twin = CountingService(database_from_graph(medium_graph))
        with running_server(medium_database) as (_, handle):
            client = client_for(handle)
            for text, seed in [
                ("Ans(x, y) :- E(x, y)", 7),
                ("Ans(x) :- E(x, y), E(y, z)", 11),
                ("Ans(x, y) :- E(x, y), x != y", 13),
            ]:
                served = client.count(text, seed=seed, epsilon=0.25)
                local = twin.submit(
                    CountRequest(query=parse_query(text), seed=seed, epsilon=0.25)
                )
                assert served.estimate == local.estimate
                assert served.scheme == local.scheme
                assert served.seed == local.seed

    def test_batch_matches_in_process_count_batch(
        self, medium_database, medium_graph
    ):
        from repro.workloads import database_from_graph

        texts = ["Ans(x) :- E(x, y)", "Ans(x, y) :- E(x, y)"]
        twin = CountingService(database_from_graph(medium_graph))
        local = twin.count_batch(
            [parse_query(text) for text in texts], seed=5, executor="serial"
        )
        with running_server(medium_database) as (_, handle):
            served = client_for(handle).count_batch(
                texts, seed=5, executor="serial"
            )
        assert [r.estimate for r in served.results] == [
            r.estimate for r in local.results
        ]
        assert served.executed_executor == "serial"

    def test_plan_stats_metrics_health(self, medium_database):
        with running_server(medium_database) as (service, handle):
            client = client_for(handle)
            plan = client.plan("Ans(x) :- E(x, y)")
            assert plan.scheme == service.plan(parse_query("Ans(x) :- E(x, y)")).scheme
            client.count("Ans(x) :- E(x, y)", seed=1)
            stats = client.stats()
            assert set(stats) == {"service", "serve"}
            assert stats["serve"]["max_pending"] == 64
            assert stats["serve"]["admission"]["open_access"] is True
            metrics = client.metrics_text()
            assert "repro_serve_requests" in metrics
            health = client.health()
            assert health["status"] == "ok"
            assert health["database_size"] == medium_database.size()
            # Client-chosen paths never become series: unknown paths share
            # endpoint="other", and hostile label text cannot break the
            # exposition format.
            for path in ("/v1/x%22%7D%20evil,status=200", "/v1/nothing", "/v2/count", "/a/b"):
                with pytest.raises(ServeError) as missing:
                    client._request("GET", path)
                assert missing.value.status == 404
            metrics = client.metrics_text()
            endpoints = set(re.findall(r'repro_serve_requests\{endpoint="([^"]*)"', metrics))
            assert endpoints == {
                "/v1/plan", "/v1/count", "/v1/stats", "/v1/metrics", "/v1/healthz", "other"
            }
            label = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"'
            sample = re.compile(
                rf"[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{{{label}(?:,{label})*\}})? (\S+)"
            )
            for line in metrics.splitlines():
                if line.startswith("#"):
                    continue
                match = sample.fullmatch(line)
                assert match is not None, line
                float(match.group(1))

    def test_herd_of_identical_requests_counts_once(self, medium_database):
        herd = 24
        with running_server(
            medium_database, ServiceConfig(fault_plan=SLOW_PLAN)
        ) as (service, handle):
            client = client_for(handle)
            miss = service.metrics.counter("service.requests", cache="miss")
            misses_before = miss.value
            barrier = threading.Barrier(herd)
            results, errors = [], []

            def worker():
                barrier.wait()
                try:
                    results.append(client.count("Ans(x, y) :- E(x, y)", seed=9))
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [threading.Thread(target=worker) for _ in range(herd)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert len(results) == herd
            # The whole herd executed the underlying count exactly once...
            assert miss.value - misses_before == 1
            # ...and every response carries the identical estimate.
            assert len({result.estimate for result in results}) == 1
            # Followers carry coalesced provenance.  (A straggler arriving
            # after the leader finished is served by the result cache rather
            # than the coalescer — still zero extra executions — so the
            # coalesced count is bounded, not pinned, at herd - 1.)
            coalesced = sum(1 for result in results if result.coalesced)
            assert 1 <= coalesced <= herd - 1
            stats = client.stats()["serve"]
            assert stats["coalesced"] == coalesced
            assert stats["led"] >= 1

    def test_herd_estimate_is_bit_identical_to_in_process(
        self, medium_database, medium_graph
    ):
        from repro.workloads import database_from_graph

        twin = CountingService(database_from_graph(medium_graph))
        local = twin.submit(
            CountRequest(query=parse_query("Ans(x, y) :- E(x, y), x != y"), seed=21)
        )
        with running_server(
            medium_database, ServiceConfig(fault_plan=SLOW_PLAN)
        ) as (_, handle):
            client = client_for(handle)
            barrier = threading.Barrier(8)
            results = []

            def worker():
                barrier.wait()
                results.append(
                    client.count("Ans(x, y) :- E(x, y), x != y", seed=21)
                )

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert {result.estimate for result in results} == {local.estimate}

    def test_auth_and_quota_rejections(self, medium_database):
        config = ServeConfig(
            tenants=(TenantSpec(name="acme", api_key="k1", rate=0.5, burst=2.0),)
        )
        with running_server(medium_database, serve_config=config) as (_, handle):
            good = client_for(handle, api_key="k1")
            assert good.count("Ans(x, y) :- E(x, y)", seed=1).estimate >= 0

            with pytest.raises(ServeError) as unknown:
                client_for(handle, api_key="wrong").count("Ans(x) :- E(x, y)")
            assert unknown.value.status == 401
            with pytest.raises(ServeError) as missing:
                client_for(handle).count("Ans(x) :- E(x, y)")
            assert missing.value.status == 401

            with pytest.raises(ServeError) as quota:
                for _ in range(4):
                    good.count("Ans(x, y) :- E(x, y)", seed=1)
            assert quota.value.status == 429
            assert quota.value.retry_after > 0

    def test_batch_admission_costs_one_token_per_query(self, medium_database):
        config = ServeConfig(
            tenants=(TenantSpec(name="acme", api_key="k1", rate=0.1, burst=3.0),)
        )
        with running_server(medium_database, serve_config=config) as (_, handle):
            client = client_for(handle, api_key="k1")
            with pytest.raises(ServeError) as rejected:
                client.count_batch(
                    ["Ans(x) :- E(x, y)"] * 4, seed=1, executor="serial"
                )
            assert rejected.value.status == 429

    def test_plan_is_admitted_like_count(self, medium_database):
        config = ServeConfig(
            tenants=(TenantSpec(name="acme", api_key="k1", rate=0.1, burst=2.0),)
        )
        with running_server(medium_database, serve_config=config) as (_, handle):
            with pytest.raises(ServeError) as missing:
                client_for(handle).plan("Ans(x) :- E(x, y)")
            assert missing.value.status == 401
            good = client_for(handle, api_key="k1")
            with pytest.raises(ServeError) as quota:
                for _ in range(3):
                    good.plan("Ans(x) :- E(x, y)")
            assert quota.value.status == 429
            assert quota.value.retry_after > 0

    def test_batch_from_unknown_key_is_401_before_its_queries_parse(
        self, medium_database
    ):
        import http.client

        config = ServeConfig(tenants=(TenantSpec(name="acme", api_key="k1"),))
        body = json.dumps(
            {
                "api": schema.API_VERSION,
                "kind": "batch_request",
                "requests": [{"query": "Ans(x :- E(x, y"}],
            }
        )
        with running_server(medium_database, serve_config=config) as (_, handle):
            connection = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
            connection.request(
                "POST", "/v1/batch", body=body, headers={"X-API-Key": "wrong"}
            )
            response = connection.getresponse()
            assert response.status == 401
            assert json.loads(response.read())["kind"] == "error"
            connection.close()

    def test_deadline_maps_to_504(self, medium_database):
        with running_server(medium_database) as (_, handle):
            with pytest.raises(ServeError) as timed_out:
                client_for(handle).count(
                    "Ans(x, y) :- E(x, y)", seed=1, deadline_seconds=1e-9
                )
            assert timed_out.value.status == 504

    def test_queue_overflow_returns_429_with_retry_after(self, medium_database):
        config = ServeConfig(max_pending=1)
        with running_server(
            medium_database, ServiceConfig(fault_plan=SLOW_PLAN), config
        ) as (_, handle):
            client = client_for(handle)
            occupant = threading.Thread(
                target=lambda: client.count("Ans(x, y) :- E(x, y)", seed=1)
            )
            occupant.start()
            time.sleep(0.1)  # let it enter the (slow) count
            with pytest.raises(ServeError) as overflow:
                client.count("Ans(x) :- E(x, y), E(y, z)", seed=2)
            assert overflow.value.status == 429
            assert overflow.value.retry_after == pytest.approx(QUEUE_RETRY_AFTER_SECONDS)
            occupant.join(timeout=30)

    def test_queue_overflow_refuses_plan_and_subscribe(self, medium_database):
        slow = FaultPlan(
            rules=(
                FaultRule(
                    site="executor.task", kind="latency", rate=1.0, latency_seconds=1.0
                ),
            ),
            seed=1,
        )
        config = ServeConfig(max_pending=1)
        with running_server(
            medium_database, ServiceConfig(fault_plan=slow), config
        ) as (_, handle):
            client = client_for(handle)
            occupant = threading.Thread(
                target=lambda: client.count("Ans(x, y) :- E(x, y)", seed=1)
            )
            occupant.start()
            time.sleep(0.2)  # let it enter the (slow) count
            with pytest.raises(ServeError) as overflow:
                client_for(handle).plan("Ans(x) :- E(x, y)")
            assert overflow.value.status == 429
            assert overflow.value.retry_after == pytest.approx(QUEUE_RETRY_AFTER_SECONDS)
            connection, response = open_subscription(handle)
            assert response.status == 429
            assert response.getheader("Retry-After") == "1"
            assert json.loads(response.read())["retry_after"] == pytest.approx(
                QUEUE_RETRY_AFTER_SECONDS
            )
            connection.close()
            occupant.join(timeout=30)

    def test_heartbeat_cadence_is_not_the_clients(self, medium_database):
        """A client-sent ``heartbeat_seconds`` is ignored: with -1 an idle
        stream once spun out thousands of heartbeat frames a second."""
        import socket
        import urllib.parse

        target = "/v1/subscribe?" + urllib.parse.urlencode(
            {"query": "Ans(x, y) :- E(x, y)", "heartbeat_seconds": "-1"}
        )
        with running_server(medium_database) as (_, handle):
            with socket.create_connection((handle.host, handle.port), timeout=5) as raw:
                raw.sendall(f"GET {target} HTTP/1.1\r\nHost: test\r\n\r\n".encode())
                received = b""
                while b"event: count" not in received:
                    chunk = raw.recv(65536)
                    assert chunk, received
                    received += chunk
                deadline = time.monotonic() + 0.5
                while time.monotonic() < deadline:
                    raw.settimeout(max(0.01, deadline - time.monotonic()))
                    try:
                        chunk = raw.recv(65536)
                    except socket.timeout:
                        break
                    if not chunk:
                        break
                    received += chunk
            assert received.startswith(b"HTTP/1.1 200 ")
            assert b"heartbeat" not in received

    def test_facts_mutation_feeds_sse_subscription(self, medium_database):
        with running_server(medium_database) as (_, handle):
            client = client_for(handle)
            events = []

            def subscriber():
                for live in client.subscribe(
                    "Ans(x, y) :- E(x, y)", max_events=2, timeout=30
                ):
                    events.append(live)

            thread = threading.Thread(target=subscriber)
            thread.start()
            deadline = time.time() + 10
            while not events and time.time() < deadline:
                time.sleep(0.02)
            assert events, "first SSE event never arrived"
            first = events[0].estimate
            outcome = client.add_facts(adds=[("E", (0, 99)), ("E", (99, 0))])
            assert outcome["added"] == 2
            thread.join(timeout=30)
            assert len(events) == 2
            assert events[1].estimate == first + 2  # exact scheme, delta-patched
            assert events[1].mode in {"delta", "recount", "estimate"}

    @pytest.mark.parametrize(
        "policy", [{"refresh": "lazy"}, {"debounce_ticks": "0"}]
    )
    def test_bad_subscription_policy_is_400(self, medium_database, policy):
        with running_server(medium_database) as (_, handle):
            connection, response = open_subscription(handle, **policy)
            assert response.status == 400
            assert json.loads(response.read())["kind"] == "error"
            connection.close()

    def test_zero_budget_subscription_serves_stale(self, medium_database):
        # budget_seconds=0 is a legal "never auto-refresh" account, not a
        # missing value to default.
        from repro.serve.client import _sse_data_lines

        with running_server(medium_database) as (_, handle):
            connection, response = open_subscription(
                handle, refresh="budget", budget_seconds="0", max_events="2"
            )
            assert response.status == 200
            lines = _sse_data_lines(response)
            first = schema.decode(json.loads(next(lines)), expect="live_count")
            assert first.fresh
            client_for(handle).add_facts(adds=[("E", (0, 99))])
            second = schema.decode(json.loads(next(lines)), expect="live_count")
            assert not second.fresh and not second.refreshed
            assert second.estimate == first.estimate
            connection.close()

    def test_facts_removal_and_unknown_fact_is_400(self, medium_database):
        with running_server(medium_database) as (_, handle):
            client = client_for(handle)
            client.add_facts(adds=[("E", (0, 99))])
            client.add_facts(removes=[("E", (0, 99))])
            with pytest.raises(ServeError) as missing:
                client.add_facts(removes=[("E", (0, 99))])
            assert missing.value.status == 400

    def test_mutations_can_be_disabled(self, medium_database):
        config = ServeConfig(allow_mutations=False)
        with running_server(medium_database, serve_config=config) as (_, handle):
            with pytest.raises(ServeError) as forbidden:
                client_for(handle).add_facts(adds=[("E", (0, 99))])
            assert forbidden.value.status == 403

    def test_unknown_paths_and_versions_get_404(self, medium_database):
        import http.client

        with running_server(medium_database) as (_, handle):
            connection = http.client.HTTPConnection(
                handle.host, handle.port, timeout=10
            )
            connection.request("GET", "/v2/count")
            response = connection.getresponse()
            body = json.loads(response.read())
            assert response.status == 404
            assert "repro.v1" in body["error"]
            connection.close()

            with pytest.raises(ServeError) as missing:
                client_for(handle)._request("GET", "/v1/nothing")
            assert missing.value.status == 404

    def test_malformed_body_is_400_not_500(self, medium_database):
        import http.client

        with running_server(medium_database) as (_, handle):
            connection = http.client.HTTPConnection(
                handle.host, handle.port, timeout=10
            )
            connection.request(
                "POST",
                "/v1/count",
                body=b"this is not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            payload = json.loads(response.read())
            assert payload["kind"] == "error"
            connection.close()

    @pytest.mark.parametrize(
        "path, message",
        [
            ("/v1/count", {"kind": "count_request", "query": "Ans(x) :- E(x, y)", "seed": [1]}),
            ("/v1/count", {"kind": "count_request", "query": "Ans(x) :- E(x, y)", "seed": 1.7}),
            (
                "/v1/count",
                {"kind": "count_request", "query": "Ans(x) :- E(x, y)", "method": ["exact"]},
            ),
            ("/v1/batch", {"kind": "batch_request", "requests": [5]}),
            ("/v1/facts", {"kind": "facts_update", "adds": [["E", 5]]}),
            ("/v1/facts", {"kind": "facts_update", "adds": [["E", [0, {"a": 1}]]]}),
            # Nested past the JSON decoder's recursion limit.
            ("/v1/count", None),
            # Within the JSON decoder's limit, past the fact normaliser's.
            ("/v1/facts", {"kind": "facts_update", "adds": [["E", [nested_list(900), 1]]]}),
            # Serial, so the parent commit's 200 started no pool; a process
            # pool would fork every worker up front.
            (
                "/v1/batch",
                {
                    "kind": "batch_request", "requests": [{"query": "Ans(x) :- E(x, y)"}],
                    "executor": "serial", "max_workers": 1_000_000,
                },
            ),
            (
                "/v1/batch",
                {
                    "kind": "batch_request", "requests": [{"query": "Ans(x) :- E(x, y)"}],
                    "executor": "serial", "max_workers": 0,
                },
            ),
            (
                "/v1/count",
                {"kind": "count_request", "query": "Ans(x) :- E(x, y)",
                 "deadline_seconds": float("nan")},
            ),
            # A JSON integer beyond float range in a number field.
            ("/v1/count", {"kind": "count_request", "query": "Ans(x) :- E(x, y)", "epsilon": 10**400}),
        ],
        ids=[
            "seed-list", "seed-float", "method-list", "batch-entry", "fact-values", "fact-dict",
            "deeply-nested", "fact-deeply-nested", "batch-workers-above-cap",
            "batch-workers-zero", "deadline-nan", "epsilon-huge-int",
        ],
    )
    def test_malformed_fields_are_400_and_keep_the_connection(
        self, medium_database, path, message
    ):
        import http.client

        if message is None:
            body = b"[" * 100_000
        else:
            body = json.dumps({"api": schema.API_VERSION, **message}).encode()
        with running_server(medium_database) as (_, handle):
            connection = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
            for _ in range(2):
                connection.request(
                    "POST", path, body=body, headers={"Content-Type": "application/json"}
                )
                response = connection.getresponse()
                assert response.status == 400
                assert json.loads(response.read())["kind"] == "error"
                assert not response.will_close
            connection.close()

    @pytest.mark.parametrize(
        "head, status",
        [
            # one 70 KB header line, over the 64 KB StreamReader limit
            (b"GET /v1/healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", 431),
            (b"GET /v1/healthz?" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 400),
            # one header line too many, each of them short
            (
                b"GET /v1/healthz HTTP/1.1\r\n"
                + b"".join(b"X-H%d: 1\r\n" % i for i in range(MAX_HEADER_LINES + 1))
                + b"\r\n",
                431,
            ),
        ],
        ids=["header-line-431", "request-line-400", "header-count-431"],
    )
    def test_overlong_line_is_clean_4xx(self, medium_database, head, status):
        import socket

        with running_server(medium_database) as (_, handle):
            with socket.create_connection((handle.host, handle.port), timeout=10) as raw:
                raw.sendall(head)
                raw.shutdown(socket.SHUT_WR)
                reply = b""
                while True:
                    chunk = raw.recv(65536)
                    if not chunk:
                        break
                    reply += chunk
            assert reply.startswith(f"HTTP/1.1 {status} ".encode())
            assert json.loads(reply.split(b"\r\n\r\n", 1)[1])["kind"] == "error"
            # The server survives and answers on a new connection.
            assert client_for(handle).health()["status"] == "ok"

    def test_conflicting_content_lengths_are_400_and_closed(self, medium_database):
        """Two different Content-Length values leave the body's end
        ambiguous (RFC 9112 section 6.3): 400 and close, never a count
        framed by either value.  Identical repeats stay accepted."""
        body = json.dumps(
            schema.encode(CountRequest(query=parse_query("Ans(x, y) :- E(x, y)"), seed=1))
        ).encode()

        def post(*lengths):
            head = b"POST /v1/count HTTP/1.1\r\nConnection: close\r\n" + b"".join(
                b"Content-Length: %d\r\n" % length for length in lengths
            )
            return raw_exchange(handle, head + b"\r\n" + body)

        with running_server(medium_database) as (_, handle):
            reply = post(2, len(body))
            head, _, payload = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 "), head
            assert b"Connection: close" in head.split(b"\r\n")
            assert "Content-Length" in json.loads(payload)["error"]
            assert post(len(body), len(body)).startswith(b"HTTP/1.1 200 ")

    def test_half_sent_request_is_408_and_closed(self, medium_database, monkeypatch):
        """A client that sends its headers and part of the promised body
        does not hold the connection: the read deadline answers 408 (or
        closes) and the server keeps serving new connections."""
        import socket

        monkeypatch.setattr("repro.serve.http.READ_DEADLINE_SECONDS", 0.2)
        with running_server(medium_database) as (_, handle):
            with socket.create_connection((handle.host, handle.port), timeout=5) as raw:
                raw.sendall(
                    b"POST /v1/count HTTP/1.1\r\nContent-Type: application/json\r\n"
                    b"Content-Length: 100\r\n\r\n{\"query\": "
                )
                started = time.monotonic()
                reply = b""
                try:
                    while True:
                        chunk = raw.recv(65536)
                        if not chunk:
                            break
                        reply += chunk
                except socket.timeout:
                    pytest.fail("the half-sent request held its connection for 5 s")
                elapsed = time.monotonic() - started
            assert elapsed < 2.0
            assert reply == b"" or reply.startswith(b"HTTP/1.1 408 ")
            assert client_for(handle).health()["status"] == "ok"

    def test_read_deadline_restarts_for_each_keep_alive_request(
        self, medium_database, monkeypatch
    ):
        """The deadline bounds one request's read, not the connection: three
        slow requests on one keep-alive connection, each arriving in two
        pieces within 0.5 s, are all answered although together they take
        longer than the 1-s deadline."""
        import socket

        monkeypatch.setattr("repro.serve.http.READ_DEADLINE_SECONDS", 1.0)
        with running_server(medium_database) as (_, handle):
            with socket.create_connection((handle.host, handle.port), timeout=5) as raw:
                replies = raw.makefile("rb")
                started = time.monotonic()
                for _ in range(3):
                    time.sleep(0.25)
                    raw.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: test\r\n")
                    time.sleep(0.25)
                    raw.sendall(b"\r\n")
                    status = replies.readline()
                    assert status.startswith(b"HTTP/1.1 200 "), status
                    length = 0
                    for line in iter(replies.readline, b"\r\n"):
                        name, _, value = line.decode("latin-1").partition(":")
                        if name.lower() == "content-length":
                            length = int(value)
                    assert json.loads(replies.read(length))["status"] == "ok"
                assert time.monotonic() - started > 1.0
                replies.close()

    def test_server_default_deadline_applies(self, medium_database):
        config = ServeConfig(default_deadline_seconds=1e-9)
        with running_server(medium_database, serve_config=config) as (_, handle):
            with pytest.raises(ServeError) as timed_out:
                client_for(handle).count("Ans(x, y) :- E(x, y)", seed=1)
            assert timed_out.value.status == 504


class TestConnectionLifecycle:
    """Keep-alive between the client and the server: one connection per
    client thread, reconnects after the server closes, no replays, and a
    clean stop."""

    @pytest.mark.parametrize(
        "data, status, deadline, broken_stats",
        [
            (b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 200, None, False),
            # one 70 KB header line, over the 64 KB StreamReader limit
            (b"GET /v1/healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", 431, None, False),
            (b"NOT A REQUEST LINE\r\n\r\n", 400, None, False),
            # nothing sent: the read deadline answers
            (b"", 408, 0.2, False),
            # a handler that raises meets the last-resort 500
            (b"GET /v1/stats HTTP/1.1\r\n\r\n", 500, None, True),
            (b"GET /v1/subscribe HTTP/1.1\r\n\r\n", 400, None, False),
        ],
        ids=["connection-close", "header-line-431", "request-line-400", "idle-408",
             "internal-500", "subscribe-400"],
    )
    def test_replies_before_a_close_say_connection_close(
        self, medium_database, monkeypatch, data, status, deadline, broken_stats
    ):
        if deadline is not None:
            monkeypatch.setattr("repro.serve.http.READ_DEADLINE_SECONDS", deadline)
        with running_server(medium_database) as (service, handle):
            if broken_stats:
                monkeypatch.setattr(service, "stats", lambda: 1 / 0)
            reply = raw_exchange(handle, data)
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ".encode()), lines[0]
        assert b"Connection: close" in lines[1:]
        assert b"Connection: keep-alive" not in lines[1:]
        if status != 200:
            assert json.loads(body)["kind"] == "error"

    def test_one_connection_per_client_thread(self, medium_database):
        query = "Ans(x, y) :- E(x, y)"

        def settles_at(gauge, value):
            deadline = time.monotonic() + 5
            while gauge.value != value and time.monotonic() < deadline:
                time.sleep(0.01)
            return gauge.value == value

        with running_server(medium_database) as (service, handle):
            gauge = service.metrics.gauge("serve.connections")
            client = client_for(handle)
            for _ in range(20):
                client.count(query, seed=1)
            assert gauge.value == 1
            counted, checked = threading.Event(), threading.Event()

            def second_thread():
                for _ in range(20):
                    client.count(query, seed=1)
                counted.set()
                checked.wait(timeout=10)

            worker = threading.Thread(target=second_thread)
            worker.start()
            assert counted.wait(timeout=30)
            assert gauge.value == 2
            checked.set()
            worker.join(timeout=10)
            assert not worker.is_alive()
            # A finished thread's connection closes with it.
            assert settles_at(gauge, 1)
            client.close()
            assert settles_at(gauge, 0)
            # A closed client connects afresh.
            assert client.health()["status"] == "ok"
            assert gauge.value == 1
        assert gauge.value == 0

    def test_idle_connection_closed_by_the_server_is_replaced(
        self, medium_database, monkeypatch
    ):
        import http.client

        connects = []
        connect = http.client.HTTPConnection.connect

        def counting_connect(connection):
            connects.append(connection)
            connect(connection)

        monkeypatch.setattr(http.client.HTTPConnection, "connect", counting_connect)
        monkeypatch.setattr("repro.serve.http.READ_DEADLINE_SECONDS", 0.2)
        with running_server(medium_database) as (service, handle):
            with client_for(handle) as client:
                first = client.count("Ans(x, y) :- E(x, y)", seed=1)
                time.sleep(0.5)  # the server answers 408 and closes
                again = client.count("Ans(x, y) :- E(x, y)", seed=1)
                assert again.estimate == first.estimate
                assert len(connects) == 2

    def test_facts_after_an_idle_close_apply_exactly_once(
        self, medium_database, monkeypatch
    ):
        monkeypatch.setattr("repro.serve.http.READ_DEADLINE_SECONDS", 0.2)
        with running_server(medium_database) as (service, handle):
            applied = service.metrics.counter(
                "serve.requests", endpoint="/v1/facts", status="200"
            )
            with client_for(handle) as client:
                assert client.health()["status"] == "ok"
                version = handle.server._db_version
                time.sleep(0.5)  # the server answers 408 and closes
                client.add_facts(adds=[("E", (900, 901))])
                assert handle.server._db_version == version + 1
                assert applied.value == 1

    def test_http_1_0_request_is_answered_once_and_closed(self, medium_database):
        """An HTTP/1.0 request without ``Connection: keep-alive`` is not
        persistent (RFC 9112 section 9.3): a client reading to EOF gets one
        response at once, not a stray 408 after the read deadline."""
        with running_server(medium_database) as (_, handle):
            started = time.monotonic()
            reply = raw_exchange(handle, b"GET /v1/healthz HTTP/1.0\r\n\r\n")
            elapsed = time.monotonic() - started
        assert elapsed < 2.0
        assert reply.count(b"HTTP/1.") == 1
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" in head.split(b"\r\n")
        assert json.loads(body)["status"] == "ok"

    def test_connections_past_the_cap_get_503(self, medium_database, monkeypatch):
        """Item 8's slow-loris probe: three half-sent requests fill a cap of
        three; a fourth connection gets 503 and is closed; once the read
        deadline has answered the three with 408, new connections are
        served again."""
        import socket

        monkeypatch.setattr("repro.serve.http.MAX_CONNECTIONS", 3)
        monkeypatch.setattr("repro.serve.http.READ_DEADLINE_SECONDS", 0.2)
        with running_server(medium_database) as (service, handle):
            address = (handle.host, handle.port)
            lorises = [socket.create_connection(address, timeout=5) for _ in range(3)]
            for loris in lorises:
                loris.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: te")
            with socket.create_connection(address, timeout=5) as fourth:
                reply = b""
                while chunk := fourth.recv(65536):
                    reply += chunk
            head = reply.partition(b"\r\n\r\n")[0].split(b"\r\n")
            assert head[0].startswith(b"HTTP/1.1 503 "), head
            assert b"Connection: close" in head
            rejected = service.metrics.counter("serve.rejections", reason="connections")
            assert rejected.value == 1
            for loris in lorises:
                with loris:
                    reply = b""
                    while chunk := loris.recv(65536):
                        reply += chunk
                assert reply.startswith(b"HTTP/1.1 408 "), reply
            gauge = service.metrics.gauge("serve.connections")
            deadline = time.monotonic() + 5
            while gauge.value and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gauge.value == 0
            assert client_for(handle).health()["status"] == "ok"

    def test_worker_permits_bound_concurrent_service_calls(self, medium_database):
        """With ``worker_threads=2``, six concurrent distinct counts on six
        connections run at most two service calls at once."""
        slow = FaultPlan(
            rules=(
                FaultRule(
                    site="executor.task", kind="latency", rate=1.0, latency_seconds=0.2
                ),
            ),
            seed=1,
        )
        with running_server(
            medium_database, ServiceConfig(fault_plan=slow), ServeConfig(worker_threads=2)
        ) as (service, handle):
            lock, running, peak = threading.Lock(), [0], [0]
            submit = service.submit

            def counted_submit(*args, **kwargs):
                with lock:
                    running[0] += 1
                    peak[0] = max(peak[0], running[0])
                try:
                    return submit(*args, **kwargs)
                finally:
                    with lock:
                        running[0] -= 1

            service.submit = counted_submit
            client, results = client_for(handle), []
            threads = [
                threading.Thread(
                    target=lambda seed=seed: results.append(
                        client.count("Ans(x, y) :- E(x, y)", seed=seed)
                    )
                )
                for seed in range(1, 7)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            client.close()
        assert len(results) == 6
        assert not any(result.coalesced for result in results)
        assert peak[0] == 2

    def test_stop_ends_a_half_sent_request_and_an_idle_stream(self, medium_database):
        """``stop()`` does not wait out the read deadline or the SSE
        heartbeat: it returns promptly with one client blocked mid-request-
        line and one subscription idle, and leaves no server thread."""
        import socket

        with running_server(medium_database) as (service, handle):
            client = client_for(handle)
            subscription = client.subscribe("Ans(x, y) :- E(x, y)")
            next(subscription)
            with socket.create_connection((handle.host, handle.port), timeout=5) as raw:
                raw.sendall(b"GET /v1/hea")
                gauge = service.metrics.gauge("serve.connections")
                deadline = time.monotonic() + 5
                while gauge.value < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert gauge.value == 2
                started = time.monotonic()
                handle.stop()
                assert time.monotonic() - started < 3.0
            assert server_threads() == []
            subscription.close()
            client.close()

    def test_stop_with_open_keep_alive_connections_leaves_no_task(
        self, medium_database, caplog
    ):
        with running_server(medium_database) as (service, handle):
            client = client_for(handle)
            subscription = client.subscribe("Ans(x, y) :- E(x, y)")
            next(subscription)
            client.count("Ans(x, y) :- E(x, y)", seed=1)
            assert service.metrics.gauge("serve.connections").value == 2
            handle.stop()
            assert server_threads() == []
            assert service.metrics.gauge("serve.connections").value == 0
            # Nothing logged: ending a connection is not an error.
            assert caplog.records == []
            subscription.close()
            client.close()
