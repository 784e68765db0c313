"""Differential tests for the vectorized columnar CSP engine.

``engine="columnar"`` is a pure performance change: every count, answer set,
enumeration order, and seeded approximate estimate must be bit-identical to
the indexed (and naive) engines.  These tests sweep seeded random CQ/DCQ/ECQ
workloads across all three engines, pin the seed-equality of the approximate
schemes, exercise the interned-universe encoder caches, and verify the
fallbacks: int32 overflow and foreign domain values at solve time must
silently produce the indexed engine's behaviour.
"""

from __future__ import annotations

import pytest

from repro.core import approx_count_answers
from repro.core.exact import (
    count_answers_exact,
    count_solutions_exact,
    enumerate_answers_exact,
)
from repro.core.fpras import fpras_count_cq
from repro.core.fptras import fptras_count_dcq, fptras_count_ecq
from repro.queries import parse_query
from repro.queries.builders import path_query, star_query
from repro.relational import CSPInstance, count_homomorphisms, enumerate_homomorphisms
from repro.relational import columnar
from repro.relational.structure import Database, Structure
from repro.resilience import FaultPlan, FaultRule, RetryPolicy
from repro.service import CountingService, CountRequest, ServiceConfig
from repro.service.plan import PlannerConfig
from repro.workloads import (
    database_from_graph,
    erdos_renyi_graph,
    random_database,
    random_tree_query,
)

ENGINES = ("naive", "indexed", "columnar")


def _random_workloads():
    """Seeded (query, database) pairs covering CQs, DCQs and ECQs."""
    workloads = []
    for seed in range(6):
        query = random_tree_query(
            num_variables=4,
            num_free=2,
            num_disequalities=seed % 3,
            num_negations=seed % 2,
            rng=seed,
        )
        database = random_database(
            universe_size=6,
            relations={"E": 2, "F": 2},
            facts_per_relation=14,
            rng=seed + 100,
        )
        workloads.append((f"tree-seed{seed}", query, database))
    graph_db = database_from_graph(erdos_renyi_graph(8, 0.4, rng=3))
    workloads.append(("two-hop", path_query(2, free_endpoints_only=True), graph_db))
    workloads.append(("star3-dcq", star_query(3, with_disequalities=True), graph_db))
    return workloads


WORKLOADS = _random_workloads()
IDS = [name for name, _, _ in WORKLOADS]


# ------------------------------------------------------------- exact counting
@pytest.mark.parametrize("name,query,database", WORKLOADS, ids=IDS)
def test_columnar_counts_match_other_engines_and_bruteforce(name, query, database):
    brute = count_answers_exact(query, database, method="bruteforce")
    for engine in ENGINES:
        assert count_answers_exact(query, database, engine=engine) == brute
    assert count_solutions_exact(query, database, engine="columnar") == (
        count_solutions_exact(query, database, engine="indexed")
    )
    assert enumerate_answers_exact(query, database, engine="columnar") == (
        enumerate_answers_exact(query, database, engine="indexed")
    )


@pytest.mark.parametrize("name,query,database", WORKLOADS, ids=IDS)
def test_columnar_enumerates_solutions_in_indexed_order(name, query, database):
    from repro.core.exact import solution_csp

    indexed = list(solution_csp(query, database, engine="indexed").iter_solutions())
    columnar_run = list(
        solution_csp(query, database, engine="columnar").iter_solutions()
    )
    assert columnar_run == indexed


def test_columnar_homomorphism_enumeration_order_matches():
    source = Structure.from_graph([(0, 1), (1, 2), (2, 3)])
    target = Structure.from_graph(erdos_renyi_graph(7, 0.5, rng=5).edges())
    indexed = list(enumerate_homomorphisms(source, target, engine="indexed"))
    vectorized = list(enumerate_homomorphisms(source, target, engine="columnar"))
    assert vectorized == indexed
    assert count_homomorphisms(source, target, engine="columnar") == len(indexed)


def test_columnar_propagation_reaches_the_indexed_fixpoint():
    for seed in range(8):
        query = random_tree_query(
            num_variables=5, num_free=2, num_disequalities=1, rng=seed
        )
        database = random_database(
            universe_size=5,
            relations={"E": 2, "F": 2},
            facts_per_relation=9,
            rng=seed + 50,
        )
        from repro.core.exact import solution_csp

        indexed = solution_csp(query, database, engine="indexed").propagate()
        vectorized = solution_csp(query, database, engine="columnar").propagate()
        assert vectorized == indexed


# ----------------------------------------------- seeded approximate schemes
@pytest.mark.parametrize("name,query,database", WORKLOADS, ids=IDS)
def test_approximate_schemes_are_seed_identical_across_engines(
    name, query, database
):
    num_free = query.num_free()
    if num_free == 0:
        pytest.skip("approximate schemes need free variables")
    scheme = {
        "CQ": fpras_count_cq,
        "DCQ": fptras_count_dcq,
        "ECQ": fptras_count_ecq,
    }[query.query_class().value]
    runs = [
        scheme(query, database, 0.5, 0.2, rng=11, engine=engine)
        for engine in ("indexed", "columnar")
    ]
    assert runs[0] == runs[1]


def test_approx_count_answers_threads_engine_through_registry():
    database = database_from_graph(erdos_renyi_graph(8, 0.4, rng=3))
    query = parse_query("Ans(x) :- E(x, y), E(y, z)")
    for method in ("fpras", "exact"):
        indexed = approx_count_answers(
            query, database, epsilon=0.4, delta=0.1, seed=5, method=method,
            engine="indexed",
        )
        vectorized = approx_count_answers(
            query, database, epsilon=0.4, delta=0.1, seed=5, method=method,
            engine="columnar",
        )
        assert vectorized == indexed


# ------------------------------------------------------------- join kernels
@pytest.mark.parametrize("high", [3, 70_000, 2**31 - 1])
def test_join_kernels_match_a_row_by_row_reference(high):
    """``matching_pairs`` yields left rows ascending and each one's partners
    in ascending right-row order; ``distinct_rows`` yields the sorted
    distinct rows.  Four columns of codes near 2**31 overflow int64 keys,
    so the packing must rank-compress on the way."""
    np = columnar.np
    rng = np.random.default_rng(high)
    for width in (1, 2, 4):
        codes = rng.integers(0, high, size=(6, width))
        left = codes[rng.integers(0, 6, size=40)].astype(np.int32)
        right = codes[rng.integers(0, 6, size=30)].astype(np.int32)
        left_rows, right_rows = columnar.matching_pairs(left, right)
        expected = [
            (i, j)
            for i in range(len(left))
            for j in range(len(right))
            if (left[i] == right[j]).all()
        ]
        assert list(zip(left_rows.tolist(), right_rows.tolist())) == expected
        assert columnar.matching_pairs(left, right, limit=len(expected) - 1) is None
        distinct = columnar.distinct_rows(left)
        assert distinct.dtype == left.dtype
        assert [tuple(row) for row in distinct.tolist()] == sorted(set(map(tuple, left.tolist())))


# ------------------------------------------------------------ encoder caching
class TestEncoderCaches:
    def test_universe_encoder_is_interned_and_version_keyed(self):
        database = Structure.from_graph([(1, 2), (2, 3)])
        encoder = database.universe_encoder()
        assert encoder is not None
        assert database.universe_encoder() is encoder
        assert encoder.values == database.canonical_universe()
        # Codes are positions in the repr-sorted universe.
        assert [encoder.code_of[v] for v in encoder.values] == list(
            range(len(encoder.values))
        )
        database.add_fact("E", (4, 5))  # grows the universe
        fresh = database.universe_encoder()
        assert fresh is not encoder
        assert 4 in fresh.code_of and 5 in fresh.code_of

    def test_columnar_relation_cache_invalidated_by_mutation(self):
        database = Structure.from_graph([(1, 2), (2, 3)])
        table = database.columnar_relation("E")
        assert table is not None
        assert database.columnar_relation("E") is table
        assert table.num_rows == len(database.relation("E"))
        database.add_fact("E", (3, 1))
        rebuilt = database.columnar_relation("E")
        assert rebuilt is not table
        assert rebuilt.num_rows == table.num_rows + 1

    def test_copy_carries_columnar_caches_until_mutation(self):
        database = Structure.from_graph([(1, 2), (2, 3)])
        encoder = database.universe_encoder()
        table = database.columnar_relation("E")
        duplicate = database.copy()
        assert duplicate.universe_encoder() is encoder
        assert duplicate.columnar_relation("E") is table
        duplicate.add_fact("E", (9, 9))
        assert duplicate.columnar_relation("E") is not table
        # The original's caches are untouched by the copy's mutation.
        assert database.columnar_relation("E") is table

    def test_unknown_relation_raises(self):
        database = Structure.from_graph([(1, 2)])
        with pytest.raises(KeyError):
            database.columnar_relation("nope")


# ------------------------------------------------------------------ fallbacks
class TestFallbacks:
    def test_int32_overflow_falls_back_to_indexed_results(self, monkeypatch):
        # A 2-value limit forces every encoder build to refuse, so the
        # columnar context can never be built and the engine must serve
        # every call through the indexed paths.
        monkeypatch.setattr(columnar, "_INT32_LIMIT", 2)
        database = database_from_graph(erdos_renyi_graph(7, 0.5, rng=2))
        query = parse_query("Ans(x) :- E(x, y), E(y, z)")
        assert count_answers_exact(query, database, engine="columnar") == (
            count_answers_exact(query, database, engine="indexed")
        )

    def test_build_encoder_refuses_oversized_universes(self, monkeypatch):
        monkeypatch.setattr(columnar, "_INT32_LIMIT", 3)
        assert columnar.build_encoder((1, 2, 3, 4)) is None
        assert columnar.build_encoder((1, 2, 3)) is not None

    def test_foreign_domain_values_fall_back_silently(self):
        # Domain values outside the interned universe cannot be encoded; the
        # instance must still answer through the indexed paths.
        database = Structure.from_graph([(1, 2), (2, 3)])
        from repro.relational import Constraint

        constraint = Constraint.trusted(
            ("x", "y"),
            index=database.relation_index("E"),
            table=database.columnar_relation("E"),
        )
        domains = {"x": {1, 2, "ghost"}, "y": {2, 3}}
        vectorized = CSPInstance(dict(domains), [constraint], engine="columnar")
        indexed = CSPInstance(dict(domains), [constraint], engine="indexed")
        assert list(vectorized.iter_solutions()) == list(indexed.iter_solutions())


# ------------------------------------------------------- service + resilience
class TestServiceIntegration:
    @pytest.fixture
    def database(self):
        return Database.from_relations(
            {
                "E": [(1, 2), (2, 3), (3, 1), (3, 4), (4, 1)],
                "F": [(1, 3), (2, 4)],
            }
        )

    def test_faulted_columnar_batch_is_bit_identical_to_clean_indexed(
        self, database
    ):
        queries = [
            parse_query("Ans(x) :- E(x, y), E(y, z)"),
            parse_query("Ans(x) :- E(x, y), E(y, z), x != z"),
            parse_query("Ans(x) :- E(x, y), !F(x, y)"),
        ]
        clean = CountingService(database, ServiceConfig(executor="serial"))
        clean_report = clean.count_batch(queries, seed=9)
        chaotic = CountingService(
            database, ServiceConfig(executor="serial", engine="columnar")
        )
        chaos_report = chaotic.count_batch(
            queries,
            seed=9,
            fault_plan=FaultPlan(
                seed=7, rules=(FaultRule(site="executor.task", kind="crash", times=1),)
            ),
            retry=RetryPolicy(max_attempts=3),
        )
        assert chaos_report.estimates() == clean_report.estimates()
        assert chaos_report.retries >= 1

    def test_planner_upgrades_large_databases_to_columnar(self, database):
        query = parse_query("Ans(x) :- E(x, y), E(y, z)")
        upgrading = CountingService(
            database,
            ServiceConfig(planner=PlannerConfig(columnar_size_threshold=1)),
        )
        plan = upgrading.plan(query)
        assert plan.engine == "columnar"
        assert any("columnar" in step for step in plan.trace)
        # Below the threshold (or with the upgrade disabled) the default
        # engine stands.
        assert (
            CountingService(
                database,
                ServiceConfig(planner=PlannerConfig(columnar_size_threshold=10**9)),
            )
            .plan(query)
            .engine
            == "indexed"
        )
        assert (
            CountingService(
                database,
                ServiceConfig(planner=PlannerConfig(columnar_size_threshold=None)),
            )
            .plan(query)
            .engine
            == "indexed"
        )
        # An explicit non-default engine is never silently upgraded.
        assert (
            CountingService(
                database,
                ServiceConfig(
                    engine="naive",
                    planner=PlannerConfig(columnar_size_threshold=1),
                ),
            )
            .plan(query)
            .engine
            == "naive"
        )

    def test_latency_metric_and_profiles_carry_engine_label(self, database):
        service = CountingService(
            database, ServiceConfig(executor="serial", engine="columnar")
        )
        service.submit(CountRequest(parse_query("Ans(x) :- E(x, y)"), seed=1))
        stats = service.stats()
        assert stats["schemes"]["exact"]["engine"] == "columnar"
        assert stats["profiles"]["engines"] == ["columnar"]
        text = service.metrics.render_prometheus()
        assert 'engine="columnar"' in text

    def test_profile_store_splits_schemes_by_engine(self):
        from repro.obs import ProfileStore

        store = ProfileStore()
        store.record("k", 100, "exact", 0.01, engine="indexed")
        store.record("k", 100, "exact", 0.002, engine="columnar")
        summary = store.summary("k", 100)
        assert set(summary["schemes"]) == {"exact@indexed", "exact@columnar"}
        restored = ProfileStore.from_json(store.to_json())
        assert restored.summary("k", 100) == summary

    def test_profile_store_reads_version1_snapshots_as_indexed(self):
        import json

        from repro.obs import ProfileStore

        store = ProfileStore()
        store.record("k", 100, "exact", 0.01)
        payload = json.loads(store.to_json())
        for row in payload["profiles"]:
            del row["engine"]
        payload["version"] = 1
        restored = ProfileStore.from_json(json.dumps(payload))
        assert restored.get("k", 100, "exact", engine="indexed") is not None
