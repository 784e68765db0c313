"""Tests for the observed-cost adaptive planner loop: the
:class:`~repro.service.cost.CostModel` predictions, the planner's adaptive
overlay (override > budget-adaptive > dichotomy), predicted-vs-actual
accounting, and drift-triggered re-planning in standing subscriptions.

The load-bearing contracts:

* **Cold means dichotomy.**  With an empty (or under-observed) profile
  store — or with ``adaptive=False`` — adaptive plans are byte-identical to
  the static Figure-1 plans.
* **Estimates never move.**  The adaptive overlay changes *which* scheme
  runs, never what any scheme computes: estimates stay bit-identical to a
  forced-method run under equal seeds, including under fault injection.
* **Plans are pure.**  Same profile snapshot + same request ⇒ same plan,
  across services and across processes (via persisted snapshots).
"""

from __future__ import annotations

import pytest

from repro.core import count_answers_exact
from repro.core.registry import REGISTRY
from repro.obs import Tracer, fingerprint_class
from repro.queries.builders import path_query
from repro.relational import Database
from repro.resilience import uniform_plan
from repro.resilience.retry import RetryPolicy
from repro.service import (
    CostModel,
    CountingService,
    CountRequest,
    ServiceConfig,
    canonical_query_key,
)
from repro.service.cost import PREDICTION_BASIS
from repro.service.plan import PlannerConfig
from repro.obs.profile import ProfileStore
from repro.workloads import database_from_graph, erdos_renyi_graph

TWO_HOP = path_query(2, free_endpoints_only=True)

#: Loose accuracy knobs for tests that actually execute the FPRAS — the
#: contracts under test are about plan *selection*, not estimator precision,
#: and the default epsilon costs seconds per call.
LOOSE = {"epsilon": 0.5, "delta": 0.3}


def large_database():
    """A database the dichotomy calls large (size > 800): static pick for a
    CQ is fpras_cq."""
    return database_from_graph(erdos_renyi_graph(42, 0.25, rng=1), symmetric=True)


def adaptive_config(**overrides):
    planner = PlannerConfig(adaptive=True, **overrides.pop("planner", {}))
    return ServiceConfig(executor="serial", planner=planner, **overrides)


def warm(service, query, database, scheme, seconds_each, runs=3, engine="indexed"):
    """Synthetically observe `runs` executions of `scheme` at this database's
    size bucket (full control over which scheme looks cheap)."""
    key = canonical_query_key(query)
    for _ in range(runs):
        service.profiles.record(
            key, database.size(), scheme, seconds_each, 1.0, engine=engine
        )


# ----------------------------------------------------------------- CostModel
class TestCostModel:
    def test_min_observations_validated(self):
        with pytest.raises(ValueError):
            CostModel(ProfileStore(), min_observations=0)

    def test_cold_until_min_observations_then_p95(self):
        store = ProfileStore()
        model = CostModel(store, min_observations=3)
        store.record("k", 100, "exact", 0.01, engine="indexed")
        store.record("k", 100, "exact", 0.02, engine="indexed")
        cold = model.predict("k", 100, "exact", "indexed")
        assert cold.cold and cold.seconds is None and cold.runs == 2
        store.record("k", 100, "exact", 0.03, engine="indexed")
        hot = model.predict("k", 100, "exact", "indexed")
        profile = store.get("k", 100, "exact")
        assert not hot.cold
        # Bit-identical to the sketch's own quantile — the planner's numbers
        # are exactly the registry of record, nothing re-derived.
        assert hot.seconds == profile.latency.quantile(0.95)
        assert hot.runs == 3

    def test_never_borrows_across_size_buckets(self):
        store = ProfileStore()
        model = CostModel(store, min_observations=1)
        store.record("k", 100, "exact", 0.01)
        same_bucket = model.predict("k", 120, "exact", "indexed")
        other_bucket = model.predict("k", 10**6, "exact", "indexed")
        assert not same_bucket.cold
        assert other_bucket.cold
        assert other_bucket.fingerprint_class == fingerprint_class(10**6)

    def test_snapshot_token_tracks_store_version(self):
        store = ProfileStore()
        model = CostModel(store)
        before = model.snapshot_token
        store.record("k", 100, "exact", 0.01)
        assert model.snapshot_token == before + 1 == store.version

    def test_predict_schemes_preserves_order(self):
        model = CostModel(ProfileStore())
        names = list(REGISTRY.names(include_unions=False))
        predictions = model.predict_schemes("k", 100, names, "indexed")
        assert list(predictions) == names


# ---------------------------------------------------- the adaptive overlay
class TestAdaptiveOverlay:
    def test_cold_store_plans_byte_identical_to_static(self):
        database = large_database()
        static = CountingService(database, ServiceConfig(executor="serial"))
        adaptive = CountingService(database, adaptive_config())
        static_plan = static.plan(TWO_HOP)
        cold_plan = adaptive.plan(TWO_HOP)
        assert cold_plan.predicted is None
        assert cold_plan.to_dict() == static_plan.to_dict()

    def test_adaptive_false_ignores_warm_profiles(self):
        database = large_database()
        static = CountingService(database, ServiceConfig(executor="serial"))
        off = CountingService(database, ServiceConfig(executor="serial"))
        warm(off, TWO_HOP, database, "exact", 0.001)
        assert off.plan(TWO_HOP).to_dict() == static.plan(TWO_HOP).to_dict()

    def test_warm_overlay_picks_cheapest_sound_scheme(self):
        database = large_database()
        service = CountingService(database, adaptive_config())
        warm(service, TWO_HOP, database, "exact", 0.001)
        warm(service, TWO_HOP, database, "fpras_cq", 5.0)
        plan = service.plan(TWO_HOP)
        # Static pick for a large CQ is fpras_cq; the observed costs flip it.
        assert plan.scheme == "exact"
        assert plan.predicted["chosen"] == "exact"
        assert plan.predicted["baseline"] == "fpras_cq"
        assert plan.predicted["basis"] == PREDICTION_BASIS
        # Every sound candidate is priced in the payload and the explain().
        candidates = plan.predicted["candidates"]
        query_class = TWO_HOP.query_class()
        for name in REGISTRY.names(include_unions=False):
            if query_class in REGISTRY.get(name).query_classes:
                assert name in candidates
        text = plan.explain()
        assert "predicted:" in text
        assert "* exact:" in text
        assert "replaces the static pick 'fpras_cq'" in " ".join(plan.trace)

    def test_unsound_schemes_are_never_candidates(self):
        database = large_database()
        service = CountingService(database, adaptive_config())
        warm(service, TWO_HOP, database, "exact", 0.001)
        candidates = service.plan(TWO_HOP).predicted["candidates"]
        query_class = TWO_HOP.query_class()
        for name in candidates:
            assert query_class in REGISTRY.get(name).query_classes

    def test_budget_rejects_over_budget_schemes(self):
        database = large_database()
        service = CountingService(database, adaptive_config())
        warm(service, TWO_HOP, database, "exact", 5.0)
        warm(service, TWO_HOP, database, "fpras_cq", 0.001)
        plan = service.plan(TWO_HOP, latency_budget_seconds=1.0)
        assert plan.scheme == "fpras_cq"
        exact_verdict = plan.predicted["candidates"]["exact"]["verdict"]
        assert "over budget" in exact_verdict
        assert plan.predicted["budget_seconds"] == 1.0

    def test_no_scheme_fits_budget_serves_best_effort(self):
        database = large_database()
        service = CountingService(database, adaptive_config())
        warm(service, TWO_HOP, database, "exact", 5.0)
        warm(service, TWO_HOP, database, "fpras_cq", 9.0)
        plan = service.plan(TWO_HOP, latency_budget_seconds=0.5)
        assert plan.scheme == "exact"  # cheapest warm, best effort
        verdict = plan.predicted["candidates"]["exact"]["verdict"]
        assert "best effort" in verdict

    def test_override_beats_adaptive(self):
        database = large_database()
        service = CountingService(database, adaptive_config())
        warm(service, TWO_HOP, database, "exact", 0.001)
        warm(service, TWO_HOP, database, "fpras_cq", 5.0)
        plan = service.plan(TWO_HOP, method="fpras_cq")
        assert plan.scheme == "fpras_cq"
        assert plan.predicted is None  # overlay never second-guesses a force

    def test_config_budget_is_the_default_request_budget(self):
        database = large_database()
        service = CountingService(
            database, adaptive_config(latency_budget_seconds=1.0)
        )
        warm(service, TWO_HOP, database, "exact", 5.0)
        warm(service, TWO_HOP, database, "fpras_cq", 0.001)
        result = service.submit(CountRequest(TWO_HOP, seed=7, **LOOSE))
        assert result.scheme == "fpras_cq"
        assert result.plan.predicted["budget_seconds"] == 1.0

    def test_plans_are_pure_functions_of_the_snapshot(self, tmp_path):
        database = large_database()
        path = tmp_path / "profiles.json"
        seed_service = CountingService(database, adaptive_config())
        warm(seed_service, TWO_HOP, database, "exact", 0.001)
        warm(seed_service, TWO_HOP, database, "fpras_cq", 5.0)
        seed_service.profiles.save(path)
        plans = []
        for _ in range(2):
            service = CountingService(
                database, adaptive_config(profile_path=str(path))
            )
            plans.append(service.plan(TWO_HOP).to_dict())
            plans.append(service.plan(TWO_HOP).to_dict())  # and re-planned
        assert plans[0] == plans[1] == plans[2] == plans[3]
        assert plans[0]["scheme"] == "exact"


# --------------------------------------- estimates never move (differential)
class TestAdaptiveDifferential:
    def test_adaptive_choice_keeps_estimates_bit_identical(self):
        database = large_database()
        adaptive = CountingService(database, adaptive_config())
        warm(adaptive, TWO_HOP, database, "fpras_cq", 0.001)
        warm(adaptive, TWO_HOP, database, "exact", 5.0)
        result = adaptive.submit(CountRequest(TWO_HOP, seed=2022, **LOOSE))
        assert result.scheme == "fpras_cq"
        static = CountingService(database, ServiceConfig(executor="serial"))
        forced = static.submit(
            CountRequest(TWO_HOP, seed=2022, method="fpras_cq", **LOOSE)
        )
        assert result.estimate == forced.estimate
        assert result.seed == forced.seed

    def test_adaptive_exact_pick_matches_ground_truth(self):
        database = large_database()
        adaptive = CountingService(database, adaptive_config())
        warm(adaptive, TWO_HOP, database, "exact", 0.001)
        warm(adaptive, TWO_HOP, database, "fpras_cq", 5.0)
        result = adaptive.submit(CountRequest(TWO_HOP, seed=5))
        assert result.scheme == "exact"
        assert result.estimate == count_answers_exact(TWO_HOP, database)

    def test_adaptive_estimates_bit_identical_under_faults(self):
        database = large_database()
        plan = uniform_plan(seed=13, rate=1.0, sites=("executor.task",))
        retry = RetryPolicy(max_attempts=3)

        def run(config, method):
            service = CountingService(database, config)
            warm(service, TWO_HOP, database, "fpras_cq", 0.001)
            warm(service, TWO_HOP, database, "exact", 5.0)
            return service.count_batch(
                [CountRequest(query=TWO_HOP, method=method, **LOOSE)],
                seed=99,
                fault_plan=plan,
                retry=retry,
            )

        adaptive = run(adaptive_config(), method=None)
        forced = run(ServiceConfig(executor="serial"), method="fpras_cq")
        assert adaptive.retries == forced.retries > 0
        assert [r.scheme for r in adaptive.results] == ["fpras_cq"]
        assert [r.estimate for r in adaptive.results] == [
            r.estimate for r in forced.results
        ]


# ----------------------------------------------- predicted-vs-actual closing
class TestPredictionAccounting:
    def test_submit_scores_the_prediction(self):
        database = large_database()
        tracer = Tracer()
        service = CountingService(database, adaptive_config(tracer=tracer))
        warm(service, TWO_HOP, database, "exact", 0.001)
        result = service.submit(CountRequest(TWO_HOP, seed=3))
        predicted = result.plan.predicted
        assert predicted["chosen"] == "exact"
        assert predicted["actual_seconds"] > 0
        assert predicted["outcome"] in (
            "accurate",
            "underestimate",
            "overestimate",
            "unscored",
        )
        if predicted["error_ratio"] is not None:
            assert predicted["error_ratio"] == pytest.approx(
                predicted["actual_seconds"]
                / predicted["candidates"]["exact"]["seconds"]
            )
        assert "predicted-vs-actual:" in result.plan.explain()
        # The verdict landed in the metrics registry and the span tree.
        snapshot = service.metrics.snapshot()
        outcomes = snapshot["counters"]["planner.predictions"]
        assert sum(outcomes.values()) == 1
        events = [
            event
            for request_span in tracer.find("service.request")
            for event in request_span.events
            if event.get("note") == "planner.prediction"
        ]
        assert len(events) == 1
        assert events[0]["scheme"] == "exact"

    def test_cold_plans_record_no_prediction(self):
        database = large_database()
        service = CountingService(database, adaptive_config())
        result = service.submit(CountRequest(TWO_HOP, seed=3, **LOOSE))
        assert result.plan.predicted is None
        counters = service.metrics.snapshot()["counters"]
        assert "planner.predictions" not in counters


# ------------------------------------------------- drift-triggered replanning
def chain_edges(start, stop):
    return [(i, i + 1) for i in range(start, stop)]


class TestSubscriptionReplan:
    def test_bucket_crossing_replans_without_missing_updates(self):
        # A 150-edge chain: size = 1 + 151 + 300 = 452 (bucket 9, small =>
        # exact).  Growing the chain to 500 edges lands at size 1502 —
        # bucket 11 and past the 800 small-instance threshold — so the
        # re-plan flips to the large-database pick fpras_cq.
        database = Database.from_relations({"E": chain_edges(0, 150)})
        assert fingerprint_class(database.size()) == 9
        tracer = Tracer()
        service = CountingService(
            database, ServiceConfig(executor="serial", tracer=tracer)
        )
        subscription = service.subscribe(CountRequest(query=TWO_HOP, **LOOSE))
        assert subscription.scheme == "exact"
        for edge in chain_edges(150, 500):
            database.add_fact("E", edge)
        live = subscription.read()
        assert fingerprint_class(database.size()) == 11
        assert subscription.scheme == "fpras_cq"
        assert live.fresh and live.refreshed
        assert live.replans == 1
        assert any("size bucket crossed" in note for note in live.replan_events)
        # The re-planned refresh did not miss the new facts: the estimate
        # tracks the true count of the grown chain (499 two-paths).
        truth = count_answers_exact(TWO_HOP, database)
        assert truth == 499
        assert live.estimate == pytest.approx(truth, rel=0.5)
        replan_counter = service.metrics.snapshot()["counters"]["stream.replans"]
        assert sum(replan_counter.values()) == 1
        replan_events = [
            event
            for refresh_span in tracer.find("stream.refresh")
            for event in refresh_span.events
            if event.get("note") == "stream.replan"
        ]
        assert len(replan_events) == 1
        assert replan_events[0]["old_scheme"] == "exact"
        assert replan_events[0]["new_scheme"] == "fpras_cq"

    def test_forced_method_subscription_never_hops_schemes(self):
        database = Database.from_relations({"E": chain_edges(0, 150)})
        service = CountingService(database, ServiceConfig(executor="serial"))
        subscription = service.subscribe(
            CountRequest(query=TWO_HOP, method="exact")
        )
        for edge in chain_edges(150, 500):
            database.add_fact("E", edge)
        live = subscription.read()
        assert subscription.scheme == "exact"
        assert live.replans == 0
        assert live.estimate == count_answers_exact(TWO_HOP, database)

    def test_rolling_prediction_error_triggers_replan(self):
        # Synthetic history claims fpras_cq finished in microseconds a
        # hundred times over — so the warm overlay pins it at subscribe
        # time, and the sketch's p95 stays microsecond-scale while the real
        # second-scale refreshes blow the rolling error window.  The re-plan
        # then flips to exact, whose (equally synthetic) prediction is
        # cheaper still.
        database = large_database()
        service = CountingService(database, adaptive_config())
        warm(service, TWO_HOP, database, "fpras_cq", 0.0000001, runs=100)
        subscription = service.subscribe(CountRequest(query=TWO_HOP, **LOOSE))
        assert subscription.scheme == "fpras_cq"
        warm(service, TWO_HOP, database, "exact", 0.00000001)
        replanned_at = None
        for round_index in range(8):
            database.add_fact("E", (1000 + round_index, 1001 + round_index))
            live = subscription.read()
            if live.replans:
                replanned_at = round_index
                break
        assert replanned_at is not None
        assert subscription.scheme == "exact"
        assert any(
            "rolling prediction error" in note for note in live.replan_events
        )
        assert live.estimate == count_answers_exact(TWO_HOP, database)
