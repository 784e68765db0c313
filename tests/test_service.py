"""Tests for the `repro.service` subsystem: planner, caches, canonical keys,
batch execution, and version-counter-based cache invalidation."""

import pytest

from repro.core import count_answers_exact
from repro.core.registry import REGISTRY
from repro.queries import parse_query
from repro.relational.structure import Database
from repro.service import (
    CountingService,
    CountRequest,
    LRUCache,
    Planner,
    PlannerConfig,
    ServiceConfig,
    canonical_query_key,
    database_cache_key,
    mixed_query_workload,
    workload_database,
)
from repro.util.rng import derive_seed


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


# ------------------------------------------------------------------- planner
class TestPlanner:
    def test_small_instances_go_exact(self, database):
        planner = Planner()
        for text in (CQ, DCQ, ECQ):
            plan = planner.plan(parse_query(text), database)
            assert plan.scheme == "exact"
            assert plan.size_class == "small"
            assert plan.trace

    def test_large_instances_follow_the_dichotomy(self, database):
        planner = Planner(PlannerConfig(exact_size_threshold=0))
        assert planner.plan(parse_query(CQ), database).scheme == "fpras_cq"
        assert planner.plan(parse_query(DCQ), database).scheme == "fptras_dcq"
        assert planner.plan(parse_query(ECQ), database).scheme == "fptras_ecq"

    def test_exact_plans_skip_the_width_computation(self, database):
        plan = Planner().plan(parse_query(DCQ), database)
        assert plan.query_class == "DCQ"
        assert plan.scheme == "exact"
        assert plan.treewidth is None  # widths are exponential; not needed here
        assert "tw=" not in plan.explain()
        assert plan.to_dict()["scheme"] == "exact"

    def test_approximation_plans_record_widths(self, database):
        plan = Planner(PlannerConfig(exact_size_threshold=0)).plan(
            parse_query(DCQ), database
        )
        assert plan.scheme == "fptras_dcq"
        assert plan.treewidth == 1
        assert plan.arity == 2
        assert "tw=1" in plan.explain()

    def test_override_wins_and_is_validated(self, database):
        planner = Planner()
        plan = planner.plan(parse_query(DCQ), database, override="fptras_dcq")
        assert plan.scheme == "fptras_dcq"
        assert plan.override == "fptras_dcq"
        with pytest.raises(ValueError, match="does not apply"):
            planner.plan(parse_query(DCQ), database, override="fpras_cq")
        with pytest.raises(ValueError, match="unknown scheme"):
            planner.plan(parse_query(CQ), database, override="magic")

    def test_plans_are_cached_on_canonical_form(self, database):
        planner = Planner()
        planner.plan(parse_query(CQ), database)
        planner.plan(parse_query("Ans(a) :- E(a, b), E(b, c)"), database)
        stats = planner.cache.stats()
        assert stats.hits == 1 and stats.misses == 1


# ------------------------------------------------------------ canonical keys
class TestCanonicalKeys:
    def test_alpha_equivalent_queries_share_a_key(self):
        key1 = canonical_query_key(parse_query("Ans(x, y) :- E(x, z), E(z, y), x != y"))
        key2 = canonical_query_key(parse_query("Ans(a, b) :- E(a, w), E(w, b), a != b"))
        assert key1 == key2

    def test_different_queries_get_different_keys(self):
        assert canonical_query_key(parse_query(CQ)) != canonical_query_key(
            parse_query(DCQ)
        )
        # Same atoms, different free-variable order: different answer sets.
        assert canonical_query_key(
            parse_query("Ans(x, y) :- E(x, y)")
        ) != canonical_query_key(parse_query("Ans(y, x) :- E(x, y)"))

    def test_atom_order_is_irrelevant(self):
        key1 = canonical_query_key(parse_query("Ans(x) :- E(x, y), F(x, y)"))
        key2 = canonical_query_key(parse_query("Ans(x) :- F(x, y), E(x, y)"))
        assert key1 == key2


# ---------------------------------------------------------------- LRU cache
class TestLRUCache:
    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        stats = cache.stats()
        assert stats.evictions == 1
        assert stats.hits == 3 and stats.misses == 1

    def test_zero_size_disables_caching(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_peek_does_not_touch_stats(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.peek("a") == 1
        assert cache.stats().hits == 0


# ------------------------------------------------------------------- service
class TestCountingService:
    def test_submit_matches_exact_count(self, database):
        service = CountingService(database, ServiceConfig(executor="serial"))
        query = parse_query(CQ)
        result = service.submit(CountRequest(query, seed=7))
        assert result.scheme == "exact"
        assert result.cache == "miss"
        assert result.count == count_answers_exact(query, database)

    def test_batch_seeding_matches_direct_library_calls(self, database):
        service = CountingService(
            database, ServiceConfig(executor="serial", epsilon=0.6, delta=0.3)
        )
        requests = [
            CountRequest(query=parse_query(CQ)),
            CountRequest(query=parse_query(DCQ), method="fptras_dcq"),
            CountRequest(query=parse_query(ECQ)),
        ]
        report = service.count_batch(requests, seed=123)
        for index, result in enumerate(report.results):
            direct = REGISTRY.count(
                result.scheme,
                requests[index].query,
                database,
                epsilon=result.epsilon,
                delta=result.delta,
                rng=derive_seed(123, index),
                engine="indexed",
            ).estimate
            assert direct == result.estimate

    def test_resubmission_hits_the_result_cache(self, database):
        service = CountingService(database, ServiceConfig(executor="serial"))
        requests = [parse_query(CQ), parse_query(DCQ), parse_query(ECQ)]
        first = service.count_batch(requests, seed=5)
        second = service.count_batch(requests, seed=5)
        assert first.cache_misses == 3 and first.cache_hits == 0
        assert second.cache_hits == 3 and second.cache_misses == 0
        assert second.estimates() == first.estimates()
        assert all(result.cache == "hit" for result in second.results)

    def test_different_seed_is_a_different_cache_entry(self, database):
        service = CountingService(
            database,
            ServiceConfig(
                executor="serial",
                epsilon=0.6,
                delta=0.3,
                planner=PlannerConfig(exact_size_threshold=0),
            ),
        )
        query = parse_query(DCQ)
        service.count_batch([query], seed=1)
        report = service.count_batch([query], seed=2)
        assert report.cache_misses == 1

    def test_mutating_a_relation_evicts_stale_results(self, database):
        service = CountingService(database, ServiceConfig(executor="serial"))
        query = parse_query(CQ)
        service.submit(CountRequest(query, seed=3))
        assert service.submit(CountRequest(query, seed=3)).cache == "hit"
        database.add_fact("E", (4, 2))
        after = service.submit(CountRequest(query, seed=3))
        assert after.cache == "miss"
        assert after.count == count_answers_exact(query, database)

    def test_mutating_an_unrelated_relation_keeps_hits(self, database):
        service = CountingService(database, ServiceConfig(executor="serial"))
        query = parse_query(CQ)  # mentions only E
        service.submit(CountRequest(query, seed=3))
        database.add_fact("F", (4, 4))
        assert service.submit(CountRequest(query, seed=3)).cache == "hit"

    def test_copies_never_share_cache_entries(self, database):
        query = parse_query(CQ)
        copy = database.copy()
        assert database_cache_key(database, query) != database_cache_key(copy, query)

    def test_thread_executor_agrees_with_serial(self, database):
        queries = [parse_query(CQ), parse_query(DCQ), parse_query(ECQ)]
        serial = CountingService(database, ServiceConfig(executor="serial"))
        threaded = CountingService(
            database, ServiceConfig(executor="thread", max_workers=2)
        )
        serial_report = serial.count_batch(queries, seed=9)
        threaded_report = threaded.count_batch(queries, seed=9)
        assert serial_report.estimates() == threaded_report.estimates()

    def test_process_executor_agrees_with_serial(self, database):
        queries = [parse_query(CQ), parse_query(DCQ)]
        serial = CountingService(database, ServiceConfig(executor="serial"))
        pooled = CountingService(
            database, ServiceConfig(executor="process", max_workers=2)
        )
        serial_report = serial.count_batch(queries, seed=9)
        pooled_report = pooled.count_batch(queries, seed=9)
        assert pooled_report.executed_executor in (
            "process",
            "thread-fallback",
            "serial-fallback",
        )
        assert serial_report.estimates() == pooled_report.estimates()

    def test_process_pool_unavailable_falls_back_down_the_ladder(
        self, database, monkeypatch
    ):
        """Sandboxed environments may have no usable multiprocessing start
        method at all; the process back-end must warn and degrade to the
        next executor rung (thread) instead of raising (regression test for
        the get_context preflight + degradation ladder)."""
        import multiprocessing

        from repro.service import executor as executor_module

        def broken_get_context(method=None):
            raise ValueError("cannot find context for 'fork'")

        monkeypatch.setattr(multiprocessing, "get_context", broken_get_context)
        queries = [parse_query(CQ), parse_query(DCQ)]
        serial_report = CountingService(
            database, ServiceConfig(executor="serial")
        ).count_batch(queries, seed=9)
        pooled = CountingService(
            database, ServiceConfig(executor="process", max_workers=2)
        )
        with pytest.warns(RuntimeWarning, match="falling back to thread"):
            pooled_report = pooled.count_batch(queries, seed=9)
        assert pooled_report.executed_executor == "thread-fallback"
        assert pooled_report.estimates() == serial_report.estimates()
        assert any("degrading to thread" in note for note in pooled_report.degradations)
        # The preflight also guards the bare task runner (two tasks: a
        # single-task batch short-circuits to serial before the pool).
        tasks = [
            executor_module.CountTask(
                index=index,
                query=parse_query(CQ),
                scheme="exact",
                engine="indexed",
                epsilon=0.2,
                delta=0.05,
                seed=None,
                database_token=database.structure_token,
            )
            for index in range(2)
        ]
        with pytest.warns(RuntimeWarning, match="process executor unavailable"):
            report = executor_module.run_tasks(
                tasks, {database.structure_token: database}, mode="process"
            )
        assert report.executed_mode == "thread-fallback"
        assert report.outcomes[0].estimate == count_answers_exact(
            parse_query(CQ), database
        )

    def test_request_without_database_needs_a_default(self):
        service = CountingService()
        with pytest.raises(ValueError, match="no default"):
            service.submit(CountRequest(parse_query(CQ)))

    def test_stats_reports_both_caches(self, database):
        service = CountingService(database, ServiceConfig(executor="serial"))
        service.submit(CountRequest(parse_query(CQ), seed=1))
        stats = service.stats()
        assert set(stats) == {"caches", "executor", "schemes", "stream", "profiles"}
        assert set(stats["caches"]) == {"plan", "result"}
        assert stats["caches"]["result"]["misses"] == 1
        assert stats["stream"]["subscriptions"] == 0


# ------------------------------------------------------------------ workload
class TestWorkload:
    def test_mixed_workload_covers_all_classes(self):
        queries = mixed_query_workload(8, rng=0)
        classes = {query.query_class().value for query in queries}
        assert classes == {"CQ", "DCQ", "ECQ"}

    def test_workload_database_declares_both_relations(self):
        database = workload_database(num_vertices=8, rng=0)
        assert database.signature.get("E") is not None
        assert database.signature.get("F") is not None

    def test_count_batch_runs_a_workload_end_to_end(self):
        database = workload_database(num_vertices=8, rng=1)
        queries = mixed_query_workload(6, rng=2)
        service = CountingService(database, ServiceConfig(executor="serial"))
        report = service.count_batch(queries, seed=4)
        assert len(report.results) == 6
        assert report.throughput_qps > 0
        # Every estimate is the exact count (small database => exact scheme).
        for query, result in zip(queries, report.results):
            assert result.count == count_answers_exact(query, database)
