"""Tests for the PreparedQuery compilation layer and the unified
SchemeRegistry: registry dispatch must be bit-identical to direct library
calls under the same seed, alpha-renamed queries must share one prepared
cache entry (artifact identity + counters), and the satellite fixes
(greedy-treewidth warn instead of raise, per-width ``explain`` guards)."""

import math
import warnings

import pytest

from repro.core import (
    REGISTRY,
    count_answers_exact,
    exact_count_answers_via_oracle,
    fpras_count_cq,
    fptras_count_dcq,
    fptras_count_ecq,
)
from repro.core.registry import default_registry
from repro.decomposition.f_width import EXACT_F_WIDTH_LIMIT
from repro.queries import parse_query
from repro.queries.builders import path_query
from repro.queries.prepared import (
    PreparedQuery,
    clear_prepared_cache,
    prepare,
    prepared_cache_stats,
)
from repro.relational.structure import Database
from repro.service import Planner, PlannerConfig
from repro.service.plan import QueryPlan
from repro.unions.karp_luby import approx_count_union
from repro.workloads.databases import database_from_graph
from repro.workloads.graphs import erdos_renyi_graph

EPS, DELTA = 0.5, 0.2

CQ = "Ans(x) :- E(x, y), E(y, z)"
CQ_RENAMED = "Ans(a) :- E(a, b), E(b, c)"
DCQ = "Ans(x) :- E(x, y), E(y, z), x != z"
ECQ = "Ans(x) :- E(x, y), !F(x, y)"


@pytest.fixture
def database():
    return Database.from_relations(
        {
            "E": [(1, 2), (2, 3), (3, 1), (3, 4), (4, 1), (2, 4)],
            "F": [(1, 3), (2, 4)],
        }
    )


# --------------------------------------------------------------- preparation
class TestPreparedQuery:
    def test_alpha_renamed_copies_share_one_cache_entry(self):
        clear_prepared_cache()
        before = prepared_cache_stats()
        first = prepare(parse_query(CQ))
        second = prepare(parse_query(CQ_RENAMED))
        after = prepared_cache_stats()
        # Artifact identity: one PreparedQuery object serves both shapes.
        assert first is second
        assert after.hits == before.hits + 1
        assert after.misses == before.misses + 1

    def test_widths_are_computed_once_and_then_hit(self):
        clear_prepared_cache()
        prepared = prepare(parse_query(CQ))
        renamed = prepare(parse_query(CQ_RENAMED))
        # Both handles hit the same memo: one compute, then hits only.
        assert prepared.width_profile() is renamed.width_profile()
        assert prepared.treewidth() == 1
        stats = prepared.artifact_stats()
        assert stats["width_profile"]["computes"] == 1
        assert stats["width_profile"]["hits"] >= 1
        assert stats["treewidth"]["computes"] == 1

    def test_prepare_is_idempotent_on_prepared_queries(self):
        prepared = prepare(parse_query(DCQ))
        assert prepare(prepared) is prepared

    def test_widths_match_the_direct_computations(self):
        from repro.decomposition.fractional import fractional_hypertreewidth
        from repro.decomposition.treewidth import exact_treewidth

        query = parse_query(DCQ)
        prepared = prepare(query)
        hypergraph = query.hypergraph()
        assert prepared.treewidth() == exact_treewidth(hypergraph)
        assert prepared.treewidth_is_exact()
        fhw, fhw_exact = fractional_hypertreewidth(hypergraph)
        assert prepared.fractional_hypertreewidth() == (fhw, fhw_exact)
        assert prepared.adaptive_width_upper() == pytest.approx(fhw)

    def test_translated_decomposition_is_valid_for_the_renamed_query(self):
        clear_prepared_cache()
        prepare(parse_query(CQ))  # representative: x/y/z variables
        renamed = parse_query(CQ_RENAMED)  # a/b/c variables
        prepared = prepare(renamed)
        nice = prepared.nice_decomposition_for(renamed)
        assert nice.is_nice()
        assert not nice.validation_errors(renamed.hypergraph())
        # The representative's own request shares the stored object.
        assert (
            prepared.nice_decomposition_for(prepared.query)
            is prepared.nice_decomposition()
        )

    def test_renaming_for_rejects_non_equivalent_queries(self):
        prepared = prepare(parse_query(CQ))
        with pytest.raises(ValueError, match="canonical form"):
            prepared.renaming_for(parse_query(DCQ))


# ----------------------------------------------------- registry differential
class TestRegistryMatchesDirectCalls:
    def test_exact(self, database):
        query = parse_query(CQ)
        result = REGISTRY.count("exact", query, database, engine="indexed")
        assert result.estimate == float(count_answers_exact(query, database))
        assert result.scheme == "exact"
        assert result.query_class == "CQ"

    def test_oracle_exact(self, database):
        query = parse_query(DCQ)
        result = REGISTRY.count("oracle_exact", query, database, rng=11)
        assert result.estimate == float(
            exact_count_answers_via_oracle(query, database, rng=11)
        )

    def test_fpras_cq(self, database):
        query = parse_query(CQ)
        result = REGISTRY.count(
            "fpras_cq", query, database, epsilon=EPS, delta=DELTA, rng=7
        )
        direct = fpras_count_cq(query, database, epsilon=EPS, delta=DELTA, rng=7)
        assert result.estimate == direct
        assert "fractional_hypertreewidth" in result.widths

    def test_fptras_dcq(self, database):
        query = parse_query(DCQ)
        result = REGISTRY.count(
            "fptras_dcq", query, database, epsilon=EPS, delta=DELTA, rng=7
        )
        direct = fptras_count_dcq(query, database, epsilon=EPS, delta=DELTA, rng=7)
        assert result.estimate == direct
        assert result.statistics is not None

    def test_fptras_ecq(self, database):
        query = parse_query(ECQ)
        result = REGISTRY.count(
            "fptras_ecq", query, database, epsilon=EPS, delta=DELTA, rng=7
        )
        direct = fptras_count_ecq(query, database, epsilon=EPS, delta=DELTA, rng=7)
        assert result.estimate == direct
        assert result.widths["treewidth"] == 1

    def test_union_karp_luby(self, database):
        queries = [parse_query(CQ), parse_query(DCQ)]
        result = REGISTRY.count_union(
            queries, database, epsilon=EPS, delta=DELTA, rng=13,
            exact_components=True,
        )
        direct = approx_count_union(
            queries, database, epsilon=EPS, delta=DELTA, rng=13,
            exact_components=True,
        )
        assert result.estimate == direct
        assert result.scheme == "union_karp_luby"

    def test_validation_rejects_unsound_pairings(self, database):
        with pytest.raises(ValueError, match="does not apply"):
            REGISTRY.count("fpras_cq", parse_query(DCQ), database)
        with pytest.raises(ValueError, match="unknown scheme"):
            REGISTRY.count("magic", parse_query(CQ), database)
        with pytest.raises(ValueError, match="count_union"):
            REGISTRY.count("union_karp_luby", parse_query(CQ), database)
        with pytest.raises(ValueError, match="not a union scheme"):
            REGISTRY.count_union([parse_query(CQ)], database, scheme="exact")

    def test_registries_are_isolated(self):
        registry = default_registry()
        registry.register("custom", lambda *a, **k: (0.0, {}, None, ()), (), "test")
        assert "custom" in registry.names()
        assert "custom" not in REGISTRY.names()


# ------------------------------------------------------------ satellite fixes
class TestGreedyTreewidthBoundWarnsNotRaises:
    def test_upper_bound_only_warns(self):
        # More variables than the exact-width limit, so the treewidth is only
        # a greedy upper bound; exceeding the declared bound must warn, not
        # reject (the bound proves nothing about the true treewidth).
        query = path_query(EXACT_F_WIDTH_LIMIT + 2)
        assert len(query.variables) > EXACT_F_WIDTH_LIMIT
        prepared = prepare(query)
        assert not prepared.treewidth_is_exact()
        database = Database.from_relations({"E": [(1, 2), (2, 1)]})
        with pytest.warns(UserWarning, match="treewidth upper bound"):
            estimate = fptras_count_ecq(
                query, database, 0.9, 0.4, rng=0,
                treewidth_bound=0, oracle_mode="direct",
            )
        assert estimate >= 0.0

    def test_exact_treewidth_still_raises(self):
        from repro.queries.builders import clique_query

        database = Database.from_graph_edges([(1, 2), (2, 3), (1, 3)])
        with pytest.raises(ValueError, match="exceeds the declared bound"):
            fptras_count_ecq(
                clique_query(4), database, EPS, DELTA, rng=0, treewidth_bound=1
            )


class TestExplainGuardsEachWidthIndependently:
    def _plan(self, **widths):
        base = dict(
            scheme="fptras_ecq",
            query_class="ECQ",
            engine="indexed",
            database_size=10,
            size_class="small",
            treewidth=None,
            fractional_hypertreewidth=None,
            adaptive_width_upper=None,
            arity=None,
            reference="Theorem 5",
            override="fptras_ecq",
            trace=("t",),
        )
        base.update(widths)
        return QueryPlan(**base)

    def test_partial_width_combinations_do_not_crash(self):
        assert "tw=2" in self._plan(treewidth=2).explain()
        text = self._plan(treewidth=2, arity=2).explain()
        assert "tw=2" in text and "arity=2" in text and "fhw=" not in text
        text = self._plan(fractional_hypertreewidth=1.5).explain()
        assert "fhw=1.50" in text and "tw=" not in text
        assert "widths:" not in self._plan().explain()

    def test_override_plans_compute_only_the_needed_widths(self, database):
        planner = Planner()
        ecq_plan = planner.plan(
            parse_query(ECQ), database, override="fptras_ecq"
        )
        assert ecq_plan.treewidth is not None
        assert ecq_plan.fractional_hypertreewidth is None
        ecq_plan.explain()  # must not crash with partial widths
        dcq_plan = planner.plan(
            parse_query(DCQ), database, override="fptras_dcq"
        )
        assert dcq_plan.fractional_hypertreewidth is not None
        assert dcq_plan.treewidth is None
        dcq_plan.explain()


# ------------------------------------------------- planner/scheme width share
class TestWidthsComputedOncePerProcess:
    def test_planner_and_scheme_share_one_width_computation(self, database):
        clear_prepared_cache()
        query = parse_query(DCQ)
        # Two independent planners (cold plan caches) + a direct scheme run:
        # the width profile must be computed exactly once.
        config = PlannerConfig(exact_size_threshold=0)
        Planner(config).plan(query, database)
        Planner(config).plan(query, database)
        fptras_count_dcq(query, database, EPS, DELTA, rng=1)
        prepared = prepare(query)
        stats = prepared.artifact_stats()
        assert stats["width_profile"]["computes"] == 1
        assert stats["fhw_decomposition"]["computes"] == 1

    def test_scheme_result_surfaces_widths_through_the_service(self, database):
        from repro.service import CountingService, CountRequest, ServiceConfig

        service = CountingService(database, ServiceConfig(executor="serial"))
        result = service.submit(CountRequest(parse_query(DCQ), seed=3, method="fptras_dcq"))
        assert result.widths is not None
        assert result.widths["treewidth"] == result.plan.treewidth or (
            result.plan.treewidth is None
        )
        assert "adaptive_width_upper_bound" in result.widths

    def test_fhw_runs_once_per_width_profile(self, monkeypatch):
        """The adaptive-width bracket reuses the profile's fhw as its upper
        bound, so a cold profile solves exactly the fractional-cover LPs of
        one fhw search."""
        from repro.decomposition import fractional, fractional_hypertreewidth, width_profile

        solves = []
        solve = fractional.fractional_edge_cover_number
        monkeypatch.setattr(
            fractional,
            "fractional_edge_cover_number",
            lambda hypergraph: solves.append(hypergraph) or solve(hypergraph),
        )
        query = parse_query(CQ)
        fractional_hypertreewidth(query.hypergraph())
        one_search = len(solves)
        assert one_search > 0
        solves.clear()
        PreparedQuery(query).width_profile(rng=0)
        assert len(solves) == one_search
        solves.clear()
        width_profile(query.hypergraph(), rng=0)
        assert len(solves) == one_search


# ------------------------------------------------ uncoverable query variables
class TestUncoverableVariable:
    """``y`` occurs only in a disequality, so it is an isolated vertex of
    H(phi): every fhw bag holding it costs inf.  The query is valid and must
    plan, classify and count instead of crashing the width search."""

    QUERY = "Ans(x, y) :- E(x, z), x != y"

    def test_width_profile_has_infinite_fhw(self):
        profile = PreparedQuery(parse_query(self.QUERY)).width_profile(rng=0)
        assert profile.fractional_hypertreewidth == math.inf
        assert profile.hypertreewidth == math.inf
        assert profile.fractional_hypertreewidth_exact

    def test_large_database_plans_fptras_dcq(self):
        from repro.service import CountingService, ServiceConfig

        database = database_from_graph(erdos_renyi_graph(60, 0.3, rng=1))
        assert database.size() == 2169
        service = CountingService(database, ServiceConfig(executor="serial"))
        assert service.plan(parse_query(self.QUERY)).scheme == "fptras_dcq"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fptras_dcq_counts_within_epsilon(self, seed):
        query = parse_query(self.QUERY)
        database = database_from_graph(erdos_renyi_graph(12, 0.4, rng=1))
        assert count_answers_exact(query, database) == 132
        estimate = REGISTRY.count(
            "fptras_dcq", query, database, epsilon=0.5, delta=0.25, rng=seed
        ).estimate
        assert 0.5 * 132 <= estimate <= 1.5 * 132

    def test_classify_command_reports_infinite_widths(self, capsys):
        from repro.cli import main

        assert main(["classify", "--query", self.QUERY]) == 0
        assert "hw=inf fhw=inf" in capsys.readouterr().out
