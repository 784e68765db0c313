"""Tests for `repro.obs`: span tracing, the metrics registry, per-scheme cost
profiles — and the telemetry contract that recording any of them never
touches RNG state (estimates bit-identical traced vs untraced, across
executor back-ends and under fault injection)."""

import json
import pickle
import threading

import pytest

from repro.obs import (
    NOOP_SPAN,
    MetricsRegistry,
    ProfileStore,
    Tracer,
    activate,
    current_span,
    current_tracer,
    fingerprint_class,
    span,
    tracing_active,
)
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.queries import parse_query
from repro.relational.structure import Database
from repro.resilience import uniform_plan
from repro.resilience.retry import RetryPolicy
from repro.service import (
    CountingService,
    CountRequest,
    ServiceConfig,
    mixed_query_workload,
    workload_database,
)


@pytest.fixture
def database():
    return Database.from_relations(
        {
            "E": [(1, 2), (2, 3), (3, 1), (3, 4), (4, 1)],
            "F": [(1, 3), (2, 4)],
        }
    )


CQ = "Ans(x) :- E(x, y), E(y, z)"
DCQ = "Ans(x) :- E(x, y), E(y, z), x != z"
ECQ = "Ans(x) :- E(x, y), !F(x, y)"


# --------------------------------------------------------------------- trace
class TestTrace:
    def test_spans_are_noops_without_an_active_tracer(self):
        assert not tracing_active()
        with span("anything", key=1) as recorded:
            assert recorded is NOOP_SPAN
            recorded.set(more=2)
            recorded.event("ignored")
        assert current_tracer() is None
        assert current_span() is NOOP_SPAN

    def test_span_tree_nests_under_the_active_tracer(self):
        tracer = Tracer()
        with activate(tracer):
            with span("outer", depth=0) as outer:
                with span("inner", depth=1):
                    assert current_span().name == "inner"
                outer.event("note", detail="x")
        assert [root.name for root in tracer.roots] == ["outer"]
        (root,) = tracer.roots
        assert [child.name for child in root.children] == ["inner"]
        assert root.attrs == {"depth": 0}
        assert root.events == [{"note": "note", "detail": "x"}]
        assert root.seconds >= root.children[0].seconds >= 0.0

    def test_exception_marks_the_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with activate(tracer):
                with span("failing"):
                    raise ValueError("boom")
        (root,) = tracer.roots
        assert root.status == "error"
        assert not tracing_active()

    def test_activate_none_and_same_tracer_are_passthrough(self):
        with activate(None):
            assert not tracing_active()
        tracer = Tracer()
        with activate(tracer):
            with activate(tracer):  # re-entrant: no new root context
                with span("only"):
                    pass
        assert len(tracer.find("only")) == 1

    def test_spans_pickle_and_reattach(self):
        tracer = Tracer()
        with activate(tracer):
            with span("worker.side", index=3) as worker_span:
                worker_span.event("did work")
        clone = pickle.loads(pickle.dumps(tracer.roots[0]))
        home = Tracer()
        with activate(home):
            with span("home.side") as parent:
                parent.attach(clone)
        (root,) = home.roots
        assert [child.name for child in root.children] == ["worker.side"]
        assert root.children[0].attrs == {"index": 3}

    def test_to_jsonl_round_trips(self):
        tracer = Tracer()
        with activate(tracer):
            with span("a", n=1):
                with span("b"):
                    pass
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["name"] == "a"
        assert payload["children"][0]["name"] == "b"


# ------------------------------------------------------------------- metrics
class TestMetrics:
    def test_counter_and_gauge(self):
        counter, gauge = Counter(), Gauge()
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        with pytest.raises(ValueError):
            counter.inc(-1)
        gauge.set(5)
        gauge.dec(2)
        assert gauge.value == 3

    def test_histogram_quantiles_are_monotone(self):
        histogram = Histogram()
        for value in (0.001, 0.002, 0.004, 0.008, 0.016, 0.5):
            histogram.observe(value)
        summary = histogram.to_dict()
        assert summary["count"] == 6
        assert summary["min"] <= summary["p50"] <= summary["p95"] <= summary["p99"]
        assert summary["p99"] <= summary["max"]

    def test_registry_keys_series_by_name_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("requests", cache="hit").inc()
        registry.counter("requests", cache="miss").inc(2)
        assert registry.counter("requests", cache="hit") is registry.counter(
            "requests", cache="hit"
        )
        snapshot = registry.snapshot()
        assert snapshot["counters"]["requests"] == {"cache=hit": 1, "cache=miss": 2}

    def test_collectors_appear_in_snapshot(self):
        registry = MetricsRegistry()
        registry.register_collector("cache.result", lambda: {"hits": 1, "hit_rate": 0.5})
        assert registry.snapshot()["collected"]["cache.result"]["hit_rate"] == 0.5

    def test_prometheus_render(self):
        registry = MetricsRegistry()
        registry.counter("service.requests", cache="hit").inc(4)
        registry.histogram("scheme.latency_seconds", scheme="exact").observe(0.01)
        registry.register_collector("breaker", lambda: {"tracked_rungs": 0})
        text = registry.render_prometheus()
        assert '# TYPE repro_service_requests counter' in text
        assert 'repro_service_requests{cache="hit"} 4' in text
        assert 'repro_scheme_latency_seconds_count{scheme="exact"} 1' in text
        assert "repro_breaker_tracked_rungs 0" in text
        for line in text.splitlines():
            if line and not line.startswith("#"):
                float(line.rpartition(" ")[2])  # every sample ends in a number

    def test_prometheus_labels_render_from_pairs_and_escape(self):
        """Label values with the text format's separators or specials render
        escaped, from the stored pairs rather than re-split text."""
        registry = MetricsRegistry()
        registry.counter("hostile", path='a"b\\c\nd,e=f').inc()
        registry.histogram("latency", scheme="x,y").observe(0.5)
        text = registry.render_prometheus()
        assert 'repro_hostile{path="a\\"b\\\\c\\nd,e=f"} 1' in text
        assert 'repro_latency{quantile="0.5",scheme="x,y"} 0.5' not in text
        assert 'repro_latency{scheme="x,y",quantile="0.5"} 0.5' in text

    def test_series_reads_labels_as_pairs(self):
        registry = MetricsRegistry()
        registry.counter("executor.batches", mode="serial").inc(2)
        registry.counter("executor.batches", mode="process").inc()
        registry.histogram("scheme.latency_seconds", scheme="exact", engine="indexed").observe(
            0.01
        )
        assert registry.series("counters", "executor.batches") == [
            ({"mode": "process"}, 1.0),
            ({"mode": "serial"}, 2.0),
        ]
        ((labels, sketch),) = registry.series("histograms", "scheme.latency_seconds")
        assert labels == {"engine": "indexed", "scheme": "exact"}
        assert sketch["count"] == 1
        assert registry.series("gauges", "executor.batches") == []


# ------------------------------------------------------------------ profiles
class TestProfiles:
    def test_fingerprint_class_buckets_by_order_of_magnitude(self):
        assert fingerprint_class(1_500) == fingerprint_class(2_000)
        assert fingerprint_class(1_500) != fingerprint_class(1_000_000)

    def test_record_and_summary(self):
        store = ProfileStore()
        for seconds in (0.01, 0.02, 0.03):
            store.record("key|q", 100, "fpras_cq", seconds, 42.0)
        summary = store.summary("key|q", 110)  # same size bucket
        assert summary["schemes"]["fpras_cq"]["runs"] == 3
        assert summary["schemes"]["fpras_cq"]["p50_seconds"] == pytest.approx(
            0.02, rel=0.5
        )
        assert store.summary("key|q", 10**9) == {}  # different bucket: no data

    def test_json_round_trip_and_merge(self):
        store = ProfileStore()
        store.record("a", 50, "exact", 0.001, 7.0)
        restored = ProfileStore.from_json(store.to_json())
        assert restored.summary("a", 50) == store.summary("a", 50)
        other = ProfileStore()
        other.record("a", 50, "exact", 0.002, 7.0)
        other.record("b", 50, "exact", 0.005, 1.0)
        restored.merge(other)
        assert restored.summary("a", 50)["schemes"]["exact"]["runs"] == 2
        assert restored.summary("b", 50)["schemes"]["exact"]["runs"] == 1


class TestProfileConcurrency:
    def test_concurrent_records_lose_no_increments(self):
        """Many threads hammering one sketch: every increment survives."""
        store = ProfileStore()
        threads, records_each = 16, 250

        def hammer(worker: int) -> None:
            for i in range(records_each):
                store.record("key|q", 100, "fpras_cq", 0.001 * (worker + 1), float(i))

        pool = [threading.Thread(target=hammer, args=(w,)) for w in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        profile = store.get("key|q", 100, "fpras_cq")
        assert profile.runs == threads * records_each
        assert profile.latency.count == threads * records_each
        assert profile.total_database_size == pytest.approx(
            100.0 * threads * records_each
        )
        # Exact sum of 16 workers' distinct estimate series — a lost += would
        # shift the total.
        per_worker = sum(range(records_each))
        assert profile.total_estimate_magnitude == pytest.approx(
            float(per_worker * threads)
        )
        assert store.version == threads * records_each


class TestProfilePersistence:
    def test_v1_snapshot_loads_with_engine_defaulted(self, tmp_path):
        store = ProfileStore()
        store.record("a|q", 120, "exact", 0.004, 3.0, engine="columnar")
        payload = json.loads(store.to_json())
        assert payload["version"] == 2
        # Strip the engine labels to fake a version-1 snapshot.
        for row in payload["profiles"]:
            del row["engine"]
        payload["version"] = 1
        v1 = ProfileStore.from_json(json.dumps(payload))
        assert v1.get("a|q", 120, "exact", engine="columnar") is None
        assert v1.get("a|q", 120, "exact", engine="indexed").runs == 1
        # And a v2 round trip through save/load preserves the engine.
        path = tmp_path / "profiles.json"
        store.save(path)
        restored = ProfileStore.load(path)
        assert restored.get("a|q", 120, "exact", engine="columnar").runs == 1
        assert restored.summary("a|q", 120) == store.summary("a|q", 120)

    def test_from_dict_tolerates_truncated_bucket_counts(self):
        store = ProfileStore()
        for seconds in (0.0005, 0.05, 5.0):
            store.record("a|q", 80, "exact", seconds)
        row = json.loads(store.to_json())["profiles"][0]
        full = row["profile"]["latency"]["bucket_counts"]
        row["profile"]["latency"]["bucket_counts"] = full[:3]  # partial write
        rebuilt = ProfileStore.from_json(json.dumps({"version": 2, "profiles": [row]}))
        profile = rebuilt.get("a|q", 80, "exact")
        # count/sum stay authoritative; missing trailing buckets read as zero.
        assert profile.latency.count == 3
        assert profile.latency.total == pytest.approx(0.0005 + 0.05 + 5.0)
        assert sum(profile.latency.bucket_counts) == sum(full[:3])

    def test_merge_propagates_min_max(self):
        left, right = ProfileStore(), ProfileStore()
        left.record("a|q", 60, "exact", 0.02)
        right.record("a|q", 60, "exact", 0.000002)
        right.record("a|q", 60, "exact", 8.0)
        left.merge(right)
        profile = left.get("a|q", 60, "exact")
        assert profile.runs == 3
        assert profile.latency.minimum == pytest.approx(0.000002)
        assert profile.latency.maximum == pytest.approx(8.0)

    def test_merge_rebuckets_mismatched_boundaries(self):
        """An old snapshot with different histogram edges merges without
        losing count/sum consistency, tallying dropped precision."""
        target = ProfileStore()
        target.record("a|q", 60, "exact", 0.02)
        row = json.loads(target.to_json())["profiles"][0]
        # Forge a foreign snapshot whose edges exceed ours (1000s) with mass
        # in a bucket our finite edges cannot place.
        foreign = dict(row)
        foreign["profile"] = {
            "runs": 2,
            "total_database_size": 120.0,
            "total_estimate_magnitude": 0.0,
            "latency": {
                "boundaries": [0.05, 1000.0],
                "bucket_counts": [1, 1, 0],
                "count": 2,
                "sum": 100.04,
                "min": 0.04,
                "max": 100.0,
            },
        }
        other = ProfileStore.from_json(
            json.dumps({"version": 2, "profiles": [foreign]})
        )
        before = target.stats()["merge_drops"]
        target.merge(other)
        profile = target.get("a|q", 60, "exact")
        assert profile.runs == 3
        assert profile.latency.count == 3
        assert sum(profile.latency.bucket_counts) == 3
        assert profile.latency.total == pytest.approx(0.02 + 100.04)
        assert target.stats()["merge_drops"] == before + 1

    def test_service_profile_path_round_trip(self, tmp_path):
        """ServiceConfig.profile_path: load-on-start, save-on-close, and the
        saved file accumulates across service lifetimes."""
        path = tmp_path / "profiles.json"
        database = workload_database(num_vertices=8, rng=11)
        queries = mixed_query_workload(3, rng=11)

        def run(seed):
            with CountingService(
                database, ServiceConfig(profile_path=str(path))
            ) as service:
                service.count_batch(
                    [CountRequest(query=query) for query in queries], seed=seed
                )
                return service.profiles.stats()

        first = run(1)
        assert path.exists()
        second = run(2)  # distinct seed: no cross-process result cache anyway
        assert second["runs"] == 2 * first["runs"]
        assert ProfileStore.load(path).stats()["runs"] == second["runs"]


# ------------------------------------------- the zero-RNG telemetry contract
def _run_batch(database, queries, executor, tracer=None, fault_plan=None, retry=None):
    service = CountingService(
        database,
        ServiceConfig(executor=executor, tracer=tracer),
    )
    report = service.count_batch(
        [CountRequest(query=query) for query in queries],
        seed=2022,
        fault_plan=fault_plan,
        retry=retry,
    )
    return service, report


class TestTelemetryContract:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_traced_estimates_bit_identical_to_untraced(self, executor):
        database = workload_database(num_vertices=10, rng=3)
        queries = mixed_query_workload(6, rng=3)
        _, baseline = _run_batch(database, queries, executor)
        tracer = Tracer()
        _, traced = _run_batch(database, queries, executor, tracer=tracer)
        assert [r.estimate for r in traced.results] == [
            r.estimate for r in baseline.results
        ]
        assert [r.seed for r in traced.results] == [r.seed for r in baseline.results]
        assert tracer.find("service.count_batch")
        assert len(tracer.find("service.request")) == len(queries)
        assert tracer.find("scheme.count")

    def test_traced_estimates_bit_identical_under_faults(self):
        database = workload_database(num_vertices=10, rng=5)
        queries = mixed_query_workload(5, rng=5)
        plan = uniform_plan(seed=99, rate=1.0, sites=("executor.task",))
        retry = RetryPolicy(max_attempts=3)
        _, baseline = _run_batch(
            database, queries, "process", fault_plan=plan, retry=retry
        )
        tracer = Tracer()
        _, traced = _run_batch(
            database, queries, "process", tracer=tracer, fault_plan=plan, retry=retry
        )
        assert baseline.retries > 0
        assert traced.retries == baseline.retries
        assert [r.estimate for r in traced.results] == [
            r.estimate for r in baseline.results
        ]
        # The retry showed up in the span tree as task attempts > 1.
        attempts = [
            task_span.attrs.get("attempts")
            for task_span in tracer.find("executor.task")
        ]
        assert attempts and all(count >= 1 for count in attempts)
        assert any(count > 1 for count in attempts)

    def test_span_tree_records_plan_cache_and_execution(self, database):
        tracer = Tracer()
        service = CountingService(
            database, ServiceConfig(executor="serial", tracer=tracer)
        )
        queries = [parse_query(CQ), parse_query(DCQ), parse_query(ECQ)]
        service.count_batch([CountRequest(query=query) for query in queries], seed=1)
        service.count_batch([CountRequest(query=query) for query in queries], seed=1)
        assert len(tracer.find("service.count_batch")) == 2
        assert len(tracer.find("service.plan")) == 6
        lookups = tracer.find("cache.lookup")
        outcomes = {lookup.attrs.get("outcome") for lookup in lookups}
        assert outcomes == {"hit", "miss"}  # second batch served from cache
        for task_span in tracer.find("executor.task"):
            assert task_span.find("scheme.count")

    def test_worker_spans_ship_home_from_the_process_pool(self):
        database = workload_database(num_vertices=10, rng=7)
        queries = mixed_query_workload(4, rng=7)
        tracer = Tracer()
        _run_batch(database, queries, "process", tracer=tracer)
        for request_span in tracer.find("service.request"):
            if request_span.attrs.get("cache") == "miss":
                assert request_span.find("executor.task")


# ------------------------------------------------- service metrics + explain
class TestServiceMetrics:
    def test_stats_is_nested_by_subsystem(self, database):
        service = CountingService(database, ServiceConfig(executor="serial"))
        service.submit(CountRequest(parse_query(CQ), seed=1))
        service.submit(CountRequest(parse_query(CQ), seed=1))  # result-cache hit
        stats = service.stats()
        assert set(stats) == {"caches", "executor", "schemes", "stream", "profiles"}
        assert stats["caches"]["result"]["hits"] == 1
        assert stats["caches"]["result"]["misses"] == 1
        # Only the first submit executed tasks; the second was a pure
        # result-cache hit, which records no executor batch.
        assert stats["executor"]["batches"] == {"serial": 1}
        assert stats["schemes"]["exact"]["count"] == 1
        assert stats["stream"]["subscriptions"] == 0
        assert stats["profiles"]["entries"] >= 1
        assert stats["profiles"]["schemes"] == ["exact"]

    def test_requests_counter_tracks_hit_and_miss(self, database):
        service = CountingService(database, ServiceConfig(executor="serial"))
        service.submit(CountRequest(parse_query(CQ), seed=1))
        service.submit(CountRequest(parse_query(CQ), seed=1))
        snapshot = service.metrics.snapshot()
        assert snapshot["counters"]["service.requests"] == {
            "cache=hit": 1,
            "cache=miss": 1,
        }

    def test_explain_gains_an_observed_section_after_runs(self, database):
        service = CountingService(database, ServiceConfig(executor="serial"))
        first = service.submit(CountRequest(parse_query(CQ), seed=1))
        assert "observed:" not in first.plan.explain()  # nothing recorded yet
        service.result_cache.clear()
        second = service.submit(CountRequest(parse_query(CQ), seed=1))
        explain = second.plan.explain()
        assert "observed:" in explain
        assert "* exact: runs=1" in explain
        assert second.plan.to_dict()["observed"]["schemes"]["exact"]["runs"] == 1

    def test_metrics_render_covers_core_series(self, database):
        service = CountingService(database, ServiceConfig(executor="serial"))
        service.submit(CountRequest(parse_query(CQ), seed=1))
        text = service.metrics.render_prometheus()
        for series in (
            "repro_service_requests",
            "repro_executor_batches",
            "repro_scheme_latency_seconds",
            "repro_cache_result_hit_rate",
            "repro_breaker_tracked_rungs",
        ):
            assert series in text


# ------------------------------------------------------------------ CLI
class TestObsCli:
    def test_batch_trace_and_metrics_flags(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.txt"
        code = main(
            [
                "batch", "--workload", "4", "--seed", "9", "--executor", "serial",
                "--trace", str(trace_path), "--metrics", str(metrics_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        roots = [json.loads(line) for line in trace_path.read_text().splitlines()]
        assert [root["name"] for root in roots] == ["service.count_batch"]
        names = {child["name"] for child in roots[0]["children"]}
        assert "service.request" in names
        metrics_text = metrics_path.read_text()
        assert "repro_service_requests" in metrics_text
        assert 'repro_executor_batches{mode="serial"} 1' in metrics_text

    def test_stream_json_includes_refresh_seconds(self, capsys):
        from repro.cli import main

        code = main(
            ["stream", "--events", "30", "--queries", "2", "--seed", "5", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "refresh_seconds" in payload
        assert payload["refresh_seconds"] >= 0.0
        assert set(payload["cache"]) == {
            "caches", "executor", "schemes", "stream", "profiles"
        }
