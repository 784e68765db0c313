"""Tests for the streaming subsystem: ``remove_fact`` / change capture in the
relational layer, incremental tuple indexes, exact delta counting, and the
live subscription handles of ``CountingService.subscribe``.

The differential classes are the subsystem's correctness harness: randomized
mixed insert/delete/query schedules where every incremental result is checked
bit-identical against a from-scratch recount of the same database state
(exact schemes), or against a direct registry call with the same derived seed
(approximate schemes).
"""

from __future__ import annotations

import random
import zlib

import pytest

from repro.core import count_answers_exact
from repro.core.registry import REGISTRY
from repro.queries import parse_query, query_components
from repro.relational import Database, TupleIndex
from repro.relational.changelog import ChangeLog, ChangeLogGap, rewind
from repro.service import CountingService, CountRequest, PlannerConfig, ServiceConfig
from repro.stream import (
    delta_applicable,
    delta_count_exact,
    run_stream,
    stream_schedule,
)
from repro.util.cache import LRUCache
from repro.util.rng import derive_seed
from repro.workloads import database_from_graph, erdos_renyi_graph


def triangle() -> Database:
    return Database.from_relations({"E": [(1, 2), (2, 3), (3, 1)]})


def service_for(database: Database) -> CountingService:
    return CountingService(database, ServiceConfig(executor="serial"))


# ---------------------------------------------------------------- remove_fact
class TestRemoveFact:
    def test_removes_and_returns_the_fact(self):
        db = triangle()
        assert db.remove_fact("E", (2, 3)) == (2, 3)
        assert db.relation("E") == frozenset({(1, 2), (3, 1)})

    def test_bumps_relation_and_fingerprint_versions(self):
        db = triangle()
        before = db.version_fingerprint(["E"])
        db.remove_fact("E", (1, 2))
        after = db.version_fingerprint(["E"])
        assert after != before
        assert after[1][0][1] == before[1][0][1] + 1

    def test_does_not_touch_other_relations_or_universe(self):
        db = triangle()
        db.add_fact("F", (1, 2))
        fingerprint_f = db.version_fingerprint(["F"])
        universe = db.universe
        db.remove_fact("E", (1, 2))
        assert db.version_fingerprint(["F"]) == fingerprint_f
        assert db.universe == universe  # elements stay once seen

    def test_invalidates_relation_index(self):
        db = triangle()
        stale = db.relation_index("E")
        db.remove_fact("E", (1, 2))
        fresh = db.relation_index("E")
        assert fresh.allowed == frozenset({(2, 3), (3, 1)})
        # The previously handed-out index keeps its consistent snapshot.
        assert stale.allowed == frozenset({(1, 2), (2, 3), (3, 1)})

    def test_invalidates_derived_cache(self):
        db = triangle()
        db.derived_cache()["probe"] = "stale"
        db.remove_fact("E", (1, 2))
        assert "probe" not in db.derived_cache()

    def test_unknown_relation_raises(self):
        with pytest.raises(KeyError, match="unknown relation"):
            triangle().remove_fact("nope", (1, 2))

    def test_unknown_fact_raises(self):
        with pytest.raises(KeyError, match="no fact"):
            triangle().remove_fact("E", (9, 9))

    def test_add_remove_round_trip_restores_equality(self):
        db = triangle()
        other = triangle()
        db.add_fact("E", (1, 3))
        db.remove_fact("E", (1, 3))
        assert db == other


# ----------------------------------------------------------- incremental index
class TestIncrementalTupleIndex:
    def test_random_ops_match_full_rebuild(self):
        rng = random.Random(0)
        facts: set = set()
        index = TupleIndex.from_tuples(facts, arity=2)
        for step in range(200):
            if facts and rng.random() < 0.45:
                fact = sorted(facts)[rng.randrange(len(facts))]
                facts.discard(fact)
                index = index.with_fact_removed(fact)
            else:
                fact = (rng.randrange(6), rng.randrange(6))
                if fact in facts:
                    continue
                facts.add(fact)
                index = index.with_fact_added(fact)
            reference = TupleIndex.from_tuples(facts, arity=2)
            assert index.allowed == reference.allowed, step
            assert {index.tuples[tid] for tid in index.all_ids} == facts, step
            for position in range(2):
                got = {
                    value: frozenset(index.tuples[tid] for tid in ids)
                    for value, ids in index.by_position[position].items()
                }
                want = {
                    value: frozenset(reference.tuples[tid] for tid in ids)
                    for value, ids in reference.by_position[position].items()
                }
                assert got == want, step

    def test_derivation_is_persistent(self):
        base = TupleIndex.from_tuples({(1, 2), (2, 3)}, arity=2)
        grown = base.with_fact_added((3, 4))
        shrunk = base.with_fact_removed((1, 2))
        assert base.allowed == frozenset({(1, 2), (2, 3)})
        assert grown.allowed == frozenset({(1, 2), (2, 3), (3, 4)})
        assert shrunk.allowed == frozenset({(2, 3)})

    def test_add_existing_is_noop_and_remove_missing_raises(self):
        base = TupleIndex.from_tuples({(1, 2)}, arity=2)
        assert base.with_fact_added((1, 2)) is base
        with pytest.raises(KeyError):
            base.with_fact_removed((9, 9))
        with pytest.raises(ValueError):
            base.with_fact_added((1, 2, 3))

    def test_structure_folds_pending_deltas_instead_of_rebuilding(self):
        db = triangle()
        db.relation_index("E")  # prime the cache
        db.add_fact("E", (1, 3))
        db.remove_fact("E", (2, 3))
        folded = db.relation_index("E")
        assert folded.allowed == db.relation("E")
        # CSP counts through the folded index agree with a fresh structure.
        query = parse_query("Ans(x, y) :- E(x, y), E(y, z)")
        fresh = Database.from_relations({"E": sorted(db.relation("E"))})
        assert count_answers_exact(query, db) == count_answers_exact(query, fresh)

    def test_copies_fold_independently(self):
        db = triangle()
        db.relation_index("E")
        db.add_fact("E", (1, 3))  # pending delta, not yet folded
        twin = db.copy()
        db.remove_fact("E", (2, 3))
        assert twin.relation_index("E").allowed == frozenset(
            {(1, 2), (2, 3), (3, 1), (1, 3)}
        )
        assert db.relation_index("E").allowed == frozenset(
            {(1, 2), (3, 1), (1, 3)}
        )

    def test_version_skip_beyond_limit_falls_back_to_rebuild(self):
        from repro.relational import structure as structure_module

        db = triangle()
        db.relation_index("E")
        for index in range(structure_module._INDEX_DELTA_LIMIT + 2):
            db.add_fact("E", (100 + index, 200 + index))
        assert not db._relation_index_pending.get("E")
        assert db.relation_index("E").allowed == db.relation("E")


# ------------------------------------------------------------------ change log
class TestChangeLog:
    def test_records_net_deltas_between_fingerprints(self):
        db = triangle()
        log = ChangeLog(db)
        fingerprint = db.version_fingerprint(["E"])
        db.add_fact("E", (1, 3))
        db.remove_fact("E", (2, 3))
        db.add_fact("E", (9, 9))
        db.remove_fact("E", (9, 9))  # nets out
        delta = log.delta_since(fingerprint)
        assert delta["E"].added == frozenset({(1, 3)})
        assert delta["E"].removed == frozenset({(2, 3)})

    def test_uncovered_fingerprint_raises_gap(self):
        db = triangle()
        fingerprint = db.version_fingerprint(["E"])
        db.add_fact("E", (1, 3))  # mutation before the log attaches
        log = ChangeLog(db)
        with pytest.raises(ChangeLogGap):
            log.delta_since(fingerprint)

    def test_trim_forgets_consumed_events(self):
        db = triangle()
        log = ChangeLog(db)
        db.add_fact("E", (1, 3))
        consumed = db.version_fingerprint(["E"])
        db.add_fact("E", (3, 2))
        assert log.trim(consumed) == 1
        assert not log.covers((0, (("E", 0),)))
        delta = log.delta_since(consumed)
        assert delta["E"].added == frozenset({(3, 2)})

    def test_detach_stops_recording_and_copies_are_not_observed(self):
        db = triangle()
        log = ChangeLog(db)
        twin = db.copy()
        twin.add_fact("E", (7, 7))
        log.detach()
        db.add_fact("E", (8, 8))
        assert log.num_events() == 0

    def test_rewind_restores_old_contents(self):
        db = triangle()
        log = ChangeLog(db)
        fingerprint = db.version_fingerprint(["E"])
        before = db.relation("E")
        db.add_fact("E", (1, 3))
        db.remove_fact("E", (3, 1))
        old = rewind(db, log.delta_since(fingerprint))
        assert old.relation("E") == before
        assert db.relation("E") == frozenset({(1, 2), (2, 3), (1, 3)})


# -------------------------------------------------------------- delta counting
DELTA_QUERIES = [
    # Quantified CQ: projections collide, exercises the candidates strategy.
    "Ans(x, y) :- E(x, y), E(y, z)",
    # Quantifier-free DCQ: exercises inclusion–exclusion.
    "Ans(x, y, z) :- E(x, y), E(y, z), x != z",
    # Quantified DCQ.
    "Ans(x) :- E(x, y), E(x, z), y != z",
    # Quantified ECQ with a negated atom over a second mutated relation.
    "Ans(x) :- E(x, y), E(y, z), !F(y, z)",
]


def mutate(db: Database, rng: random.Random, relations=("E",)) -> None:
    """Apply 1-3 random single-fact mutations (inserts may add a vertex)."""
    universe = sorted(db.universe, key=repr)
    for _ in range(rng.randint(1, 3)):
        name = relations[rng.randrange(len(relations))]
        facts = sorted(db.relation(name), key=repr)
        if facts and rng.random() < 0.45:
            db.remove_fact(name, facts[rng.randrange(len(facts))])
        else:
            if rng.random() < 0.05:
                u = f"fresh{rng.randrange(10 ** 6)}"
            else:
                u = universe[rng.randrange(len(universe))]
            v = universe[rng.randrange(len(universe))]
            if (u, v) not in db.relation(name):
                db.add_fact(name, (u, v))


class TestDeltaCountExact:
    @pytest.mark.parametrize("engine", ["indexed", "columnar", "naive"])
    @pytest.mark.parametrize("query_text", DELTA_QUERIES)
    def test_differential_against_recounts_over_randomized_schedules(
        self, query_text, engine
    ):
        """>= 200 randomized mutation steps in total across the four shapes,
        per CSP engine, each step's incremental count bit-identical to a
        recount on the same engine."""
        query = parse_query(query_text)
        rng = random.Random(zlib.crc32(query_text.encode()))
        db = database_from_graph(erdos_renyi_graph(9, 0.3, rng=3))
        from repro.relational.signature import RelationSymbol

        db.add_relation(RelationSymbol("F", 2))
        db.add_fact("F", (0, 1))
        relations = ("E", "F") if "F" in query_text else ("E",)
        count = count_answers_exact(query, db, engine=engine)
        log = ChangeLog(db)
        names = [a.relation for a in query.atoms] + [
            a.relation for a in query.negated_atoms
        ]
        fingerprint = db.version_fingerprint(names)
        patched = 0
        for step in range(50):
            universe_version = db._universe_version
            mutate(db, rng, relations=relations)
            if not delta_applicable(
                query, db._universe_version != universe_version
            ):
                count = count_answers_exact(query, db, engine=engine)
            else:
                delta = log.delta_since(fingerprint)
                old = rewind(db, delta)
                count = count + delta_count_exact(query, old, db, delta, engine=engine)
                patched += 1
            expected = count_answers_exact(query, db, engine=engine)
            assert count == expected, f"step {step}: {count} != {expected}"
            fingerprint = db.version_fingerprint(names)
            log.trim(fingerprint)
        assert patched  # at least one incremental step ran

    def test_quantifier_free_delta_matches_recount(self):
        query = parse_query("Ans(x, y, z) :- E(x, y), E(y, z), x != z")
        db = database_from_graph(erdos_renyi_graph(8, 0.35, rng=5))
        before = count_answers_exact(query, db)
        log = ChangeLog(db)
        fingerprint = db.version_fingerprint(["E"])
        db.add_fact("E", (0, 5))
        db.remove_fact("E", sorted(db.relation("E"))[0])
        delta = log.delta_since(fingerprint)
        change = delta_count_exact(query, rewind(db, delta), db, delta)
        assert before + change == count_answers_exact(query, db)

    def test_quantifier_free_touched_block_delta_matches_recount(self):
        # The G component is quantified but untouched: the delta is taken on
        # the quantifier-free E block and scaled by the G block's count.
        query = parse_query("Ans(x, y) :- E(x, y), G(u, v)")
        db = Database.from_relations(
            {"E": [(1, 2), (2, 3), (3, 1)], "G": [(1, 2), (2, 1)]}
        )
        before = count_answers_exact(query, db)
        log = ChangeLog(db)
        fingerprint = db.version_fingerprint(["E", "G"])
        db.add_fact("E", (2, 1))
        db.add_fact("E", (1, 1))
        db.remove_fact("E", (3, 1))
        delta = log.delta_since(fingerprint)
        change = delta_count_exact(query, rewind(db, delta), db, delta)
        assert change == 1
        assert before + change == count_answers_exact(query, db)

    def test_untouched_relations_are_a_noop(self):
        query = parse_query("Ans(x, y) :- E(x, y)")
        db = triangle()
        db.add_fact("F", (1, 2))
        log = ChangeLog(db)
        fingerprint = db.version_fingerprint(["E", "F"])
        db.add_fact("F", (2, 3))
        delta = log.delta_since(fingerprint)
        assert delta_count_exact(query, rewind(db, delta), db, delta) == 0

    def test_delta_applicable_depends_on_positive_atom_coverage(self):
        covered = parse_query("Ans(x) :- E(x, y)")
        uncovered = parse_query("Ans(x) :- E(x, y), !F(z, z), x != z")
        assert delta_applicable(covered, True)
        assert delta_applicable(uncovered, False)
        assert not delta_applicable(uncovered, True)


# ---------------------------------------------------- multi-component deltas
#: (query, number of connected components).  The last two are coupled across
#: E and G by a disequality or a negated atom and must not be split.
COMPONENT_QUERIES = [
    ("Ans(x, u) :- E(x, y), E(y, z), G(u, v)", 2),
    # The G component is Boolean: it contributes a factor of 0 or 1.
    ("Ans(x) :- E(x, y), G(u, v)", 2),
    ("Ans(x, u, w) :- E(x, y), G(u, v), F(w, w)", 3),
    ("Ans(x, u) :- E(x, y), G(u, v), x != u", 1),
    ("Ans(x, u) :- E(x, y), G(u, v), !F(y, v)", 1),
]


def three_relation_database() -> Database:
    """E and G from two random graphs, F a few loops and one edge."""
    from repro.relational.signature import RelationSymbol

    db = database_from_graph(erdos_renyi_graph(9, 0.3, rng=3))
    db.add_relation(RelationSymbol("G", 2))
    for u, v in sorted(erdos_renyi_graph(9, 0.25, rng=4).edges()):
        db.add_fact("G", (u, v))
    db.add_relation(RelationSymbol("F", 2))
    for fact in [(0, 0), (2, 2), (0, 1)]:
        db.add_fact("F", fact)
    return db


def replay_deltas(query, db, engine, rng, steps, relations):
    """Mutate ``db`` ``steps`` times and patch the exact count after each
    step from the change log; returns ``[(delta, patched, recount)]``."""
    count = count_answers_exact(query, db, engine=engine)
    log = ChangeLog(db)
    fingerprint = db.version_fingerprint(relations)
    outcomes = []
    for _ in range(steps):
        mutate(db, rng, relations=relations)
        delta = log.delta_since(fingerprint)
        change = delta_count_exact(query, rewind(db, delta), db, delta, engine=engine)
        assert type(change) is int
        count += change
        outcomes.append((change, count, count_answers_exact(query, db, engine=engine)))
        fingerprint = db.version_fingerprint(relations)
        log.trim(fingerprint)
    return outcomes


class TestComponentDeltas:
    @pytest.mark.parametrize("engine", ["indexed", "columnar", "naive"])
    @pytest.mark.parametrize("query_text,components", COMPONENT_QUERIES)
    def test_differential_against_recounts_over_randomized_schedules(
        self, query_text, components, engine
    ):
        """Mutations over E, F and G, one to three per step, so a step may
        touch one component, several, or none; each patched count equals a
        recount on the same engine."""
        query = parse_query(query_text)
        assert len(query_components(query)) == components
        db = three_relation_database()
        rng = random.Random(zlib.crc32(query_text.encode()))
        outcomes = replay_deltas(query, db, engine, rng, 40, ("E", "F", "G"))
        for step, (_, patched, recount) in enumerate(outcomes):
            assert patched == recount, f"step {step}: {patched} != {recount}"
        assert any(change for change, _, _ in outcomes)

    @pytest.mark.parametrize("engine", ["indexed", "columnar", "naive"])
    def test_connected_query_reports_are_pinned(self, engine):
        """A connected query is its own touched block: the deltas of a fixed
        schedule are pinned to the values of the unsplit delta counter."""
        pinned = {
            "Ans(x, y) :- E(x, y), E(y, z)": [1, 0, 1, 1, -1, 1, -1, 2],
            "Ans(x, y, z) :- E(x, y), E(y, z), x != z": [4, 0, 4, 4, -5, 5, -5, 13],
            "Ans(x) :- E(x, y), E(x, z), y != z": [1, 0, 0, 0, 0, 0, 0, 0],
        }
        from repro.relational.signature import RelationSymbol

        for query_text, expected in pinned.items():
            db = database_from_graph(erdos_renyi_graph(9, 0.3, rng=3))
            db.add_relation(RelationSymbol("F", 2))
            db.add_fact("F", (0, 1))
            outcomes = replay_deltas(
                parse_query(query_text), db, engine, random.Random(2022), 8, ("E", "F")
            )
            assert [change for change, _, _ in outcomes] == expected, query_text

    def test_untouched_block_without_answers_zeroes_the_delta(self):
        query = parse_query("Ans(x, u) :- E(x, y), G(u, v)")
        db = triangle()
        from repro.relational.signature import RelationSymbol

        db.add_relation(RelationSymbol("G", 2))
        log = ChangeLog(db)
        fingerprint = db.version_fingerprint(["E", "G"])
        db.add_fact("E", (4, 1))
        delta = log.delta_since(fingerprint)
        # The E block gained the answer x = 4; the empty G block has none.
        change = delta_count_exact(query, rewind(db, delta), db, delta)
        assert change == 0 == count_answers_exact(query, db)

    def test_split_and_block_orders_are_memoised(self):
        from repro.core.exact import solution_csp
        from repro.stream.delta import _split

        query = parse_query("Ans(x, u) :- E(x, y), E(y, z), G(u, v)")
        db = three_relation_database()
        touched, untouched = _split(query, frozenset({"E"}))
        assert str(touched.query) == "Ans(x) :- E(x, y), E(y, z)"
        assert str(untouched.query) == "Ans(u) :- G(u, v)"
        assert _split(parse_query(str(query)), frozenset({"E"})) == (touched, untouched)
        csp = touched.solution_csp(db, "indexed")
        expected = solution_csp(touched.query, db).search_order()
        assert touched.search_order == expected == csp.search_order()
        # A connected query (or one whose every component is touched) is
        # its own block.
        whole, rest = _split(query, frozenset({"E", "G"}))
        assert whole.query == query and rest is None


# ---------------------------------------------------------- live subscriptions
class TestLiveSubscriptions:
    def test_mixed_stream_exact_reads_equal_recounts(self):
        database = database_from_graph(erdos_renyi_graph(9, 0.3, rng=11))
        service = service_for(database)
        queries = [parse_query(text) for text in DELTA_QUERIES[:3]]
        schedule = stream_schedule(120, database, len(queries), rng=23)
        report, subscriptions = run_stream(
            service, queries, database, schedule, verify=True, seed=7
        )
        assert report.verified_reads > 0
        assert report.refreshes > 0 and "delta" in report.modes
        for subscription in subscriptions:
            live = subscription.read(force=True)
            assert live.estimate == count_answers_exact(
                subscription.query, database
            )
            subscription.close()
        assert service.stats()["stream"]["subscriptions"] == 0

    def test_untouched_relation_updates_are_served_fresh_without_refresh(self):
        database = database_from_graph(erdos_renyi_graph(8, 0.3, rng=2))
        database.add_fact("F", (0, 1))
        service = service_for(database)
        subscription = service.subscribe(parse_query("Ans(x, y) :- E(x, y), E(y, z)"))
        for index in range(5):
            database.add_fact("F", (index, (index + 1) % 8))
        live = subscription.read()
        assert live.fresh and not live.refreshed and live.pending_ticks == 0
        assert live.refresh_count == 0
        subscription.close()

    def test_delta_refresh_reported_with_staleness_metadata(self):
        database = database_from_graph(erdos_renyi_graph(8, 0.3, rng=2))
        service = service_for(database)
        subscription = service.subscribe(parse_query("Ans(x, y) :- E(x, y), E(y, z)"))
        database.add_fact("E", (0, 5)) if (0, 5) not in database.relation(
            "E"
        ) else database.remove_fact("E", (0, 5))
        live = subscription.read()
        assert live.refreshed and live.mode == "delta" and live.fresh
        assert live.estimate == count_answers_exact(subscription.query, database)
        subscription.close()

    @pytest.mark.parametrize("scheme", ["fpras_cq", "fptras_dcq", "fptras_ecq"])
    def test_approximate_refresh_equals_direct_registry_call(self, scheme):
        database = database_from_graph(erdos_renyi_graph(8, 0.35, rng=6))
        database.add_fact("F", (0, 1))
        service = service_for(database)
        query = parse_query(
            {
                "fpras_cq": "Ans(x, y) :- E(x, y), E(y, z)",
                "fptras_dcq": "Ans(x) :- E(x, y), E(x, z), y != z",
                "fptras_ecq": "Ans(x) :- E(x, y), E(y, z), !F(y, z)",
            }[scheme]
        )
        base_seed = 41
        epsilon, delta = 0.6, 0.3
        subscription = service.subscribe(
            CountRequest(
                query=query, epsilon=epsilon, delta=delta,
                seed=base_seed, method=scheme,
            )
        )
        assert subscription.scheme == scheme
        for refresh_index in (1, 2):
            # A guaranteed-new fact, so the mutation is never a no-op.
            database.add_fact("E", (200 + refresh_index, refresh_index))
            live = subscription.read()
            assert live.refreshed and live.mode in ("reestimate", "cached")
            assert live.seed == derive_seed(base_seed, refresh_index)
            direct = REGISTRY.count(
                scheme, query, database, epsilon=epsilon, delta=delta,
                rng=derive_seed(base_seed, refresh_index),
                engine=subscription.plan.engine,
            ).estimate
            assert live.estimate == direct
        subscription.close()

    def test_debounced_policy_coalesces_updates(self):
        database = database_from_graph(erdos_renyi_graph(8, 0.3, rng=4))
        service = service_for(database)
        subscription = service.subscribe(
            parse_query("Ans(x, y) :- E(x, y)"),
            refresh="debounced",
            debounce_ticks=3,
        )
        database.add_fact("E", (0, 6)) if (0, 6) not in database.relation(
            "E"
        ) else database.remove_fact("E", (0, 6))
        stale = subscription.read()
        assert not stale.refreshed and not stale.fresh
        assert stale.pending_ticks == 1
        for index in range(2):  # reach the debounce threshold
            database.add_fact("E", (100 + index, index))
        refreshed = subscription.read()
        assert refreshed.refreshed and refreshed.fresh
        assert refreshed.estimate == count_answers_exact(
            subscription.query, database
        )
        subscription.close()

    @pytest.mark.parametrize(
        "threshold, engine",
        [(None, "indexed"), (1, "columnar")],
        ids=["indexed", "columnar"],
    )
    def test_debounced_refreshes_fold_accumulated_mutations(self, threshold, engine):
        """Every refresh of a debounced subscription on a quantifier-free DCQ
        folds in 20 accumulated E mutations by one delta patch; every fresh
        read equals a recount on the engine the planner's size rule picked."""
        database = database_from_graph(erdos_renyi_graph(12, 0.3, rng=8))
        service = CountingService(
            database,
            ServiceConfig(
                executor="serial",
                planner=PlannerConfig(columnar_size_threshold=threshold),
            ),
        )
        query = parse_query("Ans(x, y, z) :- E(x, y), E(y, z), x != z")
        subscription = service.subscribe(
            CountRequest(query=query, method="exact"),
            refresh="debounced",
            debounce_ticks=20,
        )
        assert subscription.plan.engine == engine
        rng = random.Random(29)
        for refresh in range(1, 7):
            for step in range(20):
                fact = (rng.randrange(12), rng.randrange(12))
                if fact in database.relation("E"):
                    database.remove_fact("E", fact)
                else:
                    database.add_fact("E", fact)
                if step == 9:
                    assert not subscription.read().fresh
            live = subscription.read()
            assert live.refreshed and live.fresh and live.mode == "delta"
            assert live.refresh_count == refresh
            assert live.estimate == count_answers_exact(
                query, database, engine=engine
            )
        subscription.close()

    def test_budget_policy_stops_refreshing_when_exhausted(self):
        database = database_from_graph(erdos_renyi_graph(8, 0.3, rng=4))
        service = service_for(database)
        subscription = service.subscribe(
            parse_query("Ans(x, y) :- E(x, y)"),
            refresh="budget",
            budget_seconds=0.0,
        )
        database.add_fact("E", (50, 51))
        stale = subscription.read()
        assert not stale.refreshed and not stale.fresh
        forced = subscription.read(force=True)
        assert forced.fresh and forced.estimate == count_answers_exact(
            subscription.query, database
        )
        subscription.add_budget(60.0)
        database.add_fact("E", (52, 53))
        assert subscription.read().refreshed
        subscription.close()

    def test_changelog_gap_falls_back_to_recount(self):
        database = database_from_graph(erdos_renyi_graph(8, 0.3, rng=4))
        service = service_for(database)
        first = service.subscribe(
            parse_query("Ans(x, y) :- E(x, y)"), refresh="debounced",
            debounce_ticks=10,
        )
        second = service.subscribe(parse_query("Ans(x, y) :- E(x, y), E(y, z)"))
        # Eager refreshes of `second` trim the shared log up to *its* needs
        # only; closing it then reopening state must not corrupt `first`.
        for index in range(3):
            database.add_fact("E", (60 + index, index))
            second.read()
        second.close()
        # Force a gap: detach + mutate + reattach via a fresh subscription.
        service._streams[database.structure_token].changelog.detach()
        database.add_fact("E", (70, 71))
        live = first.read(force=True)
        assert live.fresh
        assert live.estimate == count_answers_exact(first.query, database)
        # A detached log covers nothing, so the refresh must have recounted.
        assert live.mode in ("recount", "cached")
        first.close()

    def test_gap_recount_reanchors_so_next_refresh_delta_patches(self):
        """Regression: a change-log-gap recount must re-anchor the
        subscription's fingerprint (and trim the log) so the *next* refresh
        goes back to delta-patching instead of recounting forever."""
        database = database_from_graph(erdos_renyi_graph(8, 0.3, rng=4))
        service = service_for(database)
        subscription = service.subscribe(parse_query("Ans(x, y) :- E(x, y)"))
        # Force a one-time gap: mutate, then trim the (still attached) log
        # past this subscription's anchor fingerprint.
        state = service._streams[database.structure_token]
        database.add_fact("E", (70, 71))
        state.changelog.trim(database.version_fingerprint(["E"]))
        gapped = subscription.read()
        assert gapped.mode in ("recount", "cached")
        assert gapped.gap_recounts == 1
        assert any("change-log gap" in note for note in gapped.degradations)
        assert gapped.estimate == count_answers_exact(subscription.query, database)
        # The recount re-anchored: this mutation is covered by the (re-
        # attached) log, so the following refresh delta-patches again.
        database.add_fact("E", (72, 73))
        patched = subscription.read()
        assert patched.mode == "delta"
        assert patched.gap_recounts == 1  # no new gap
        assert patched.estimate == count_answers_exact(subscription.query, database)
        # The re-anchor also trimmed the log back down to this watermark.
        assert state.changelog.num_events() == 0
        subscription.close()

    def test_closed_subscription_refuses_reads(self):
        database = database_from_graph(erdos_renyi_graph(6, 0.4, rng=1))
        service = service_for(database)
        subscription = service.subscribe(parse_query("Ans(x, y) :- E(x, y)"))
        subscription.close()
        with pytest.raises(RuntimeError, match="closed"):
            subscription.read()
        subscription.close()  # idempotent

    def test_subscribe_validates_policy(self):
        database = database_from_graph(erdos_renyi_graph(6, 0.4, rng=1))
        service = service_for(database)
        with pytest.raises(ValueError, match="refresh policy"):
            service.subscribe(parse_query("Ans(x, y) :- E(x, y)"), refresh="lazy")

    def test_failed_subscribe_leaves_no_observer_behind(self):
        database = database_from_graph(erdos_renyi_graph(6, 0.4, rng=1))
        service = service_for(database)
        with pytest.raises(ValueError):
            service.subscribe(parse_query("Ans(x, y) :- E(x, y)"), refresh="lazy")
        assert service._streams == {}
        assert database._fact_observers == []

    def test_unwatched_relation_churn_does_not_grow_the_changelog(self):
        database = database_from_graph(erdos_renyi_graph(7, 0.3, rng=3))
        service = service_for(database)
        subscription = service.subscribe(
            parse_query("Ans(x, y) :- E(x, y), E(y, z)")
        )
        state = service._streams[database.structure_token]
        for index in range(200):
            database.add_fact("G", (index, index + 1))
            assert subscription.read().fresh
        assert state.changelog.num_events() == 0
        # Watched relations still delta-patch correctly through the filter.
        database.add_fact("E", (300, 301))
        live = subscription.read()
        assert live.mode == "delta"
        assert live.estimate == count_answers_exact(
            subscription.query, database
        )
        subscription.close()


# --------------------------------------------------------------- cache hygiene
class TestStreamingCacheHygiene:
    def test_invalidate_where_drops_matching_keys(self):
        cache = LRUCache(16)
        for index in range(6):
            cache.put(("token", index), index)
        dropped = cache.invalidate_where(
            lambda key: isinstance(key, tuple) and key[1] % 2 == 0
        )
        assert dropped == 3
        assert len(cache) == 3
        assert cache.stats().evictions == 3
        assert cache.get(("token", 1)) == 1
        assert cache.get(("token", 2)) is None

    def test_service_evict_purges_only_that_database(self):
        db_a = database_from_graph(erdos_renyi_graph(7, 0.4, rng=1))
        db_b = database_from_graph(erdos_renyi_graph(7, 0.4, rng=2))
        service = service_for(db_a)
        query = parse_query("Ans(x, y) :- E(x, y)")
        service.submit(CountRequest(query, db_a, seed=1))
        service.submit(CountRequest(query, db_b, seed=1))
        # Mutations strand dead-fingerprint entries for db_a.
        db_a.add_fact("E", (90, 91))
        service.submit(CountRequest(query, db_a, seed=1))
        assert service.evict(db_a) == 2
        assert service.evict(db_a) == 0
        # db_b's entry survives and still hits.
        before = service.result_cache.stats().hits
        service.submit(CountRequest(query, db_b, seed=1))
        assert service.result_cache.stats().hits == before + 1


# ----------------------------------------------------------- workload plumbing
class TestStreamWorkload:
    def test_schedule_is_replayable_and_deterministic(self):
        database = database_from_graph(erdos_renyi_graph(8, 0.3, rng=9))
        schedule_a = stream_schedule(60, database, 3, rng=5)
        schedule_b = stream_schedule(60, database, 3, rng=5)
        assert schedule_a == schedule_b
        # Deletes always name facts present at replay time.
        replay = database.copy()
        for event in schedule_a:
            if event.kind == "insert":
                replay.add_fact(event.relation, event.fact)
            elif event.kind == "delete":
                replay.remove_fact(event.relation, event.fact)

    def test_report_accounts_for_every_event(self):
        database = database_from_graph(erdos_renyi_graph(8, 0.3, rng=9))
        service = service_for(database)
        queries = [parse_query("Ans(x, y) :- E(x, y)")]
        schedule = stream_schedule(40, database, 1, rng=8)
        report, subscriptions = run_stream(
            service, queries, database, schedule, seed=3
        )
        assert report.num_events == 40
        assert report.inserts + report.deletes + report.reads == 40
        assert (
            report.refreshes + report.fresh_serves + report.stale_serves
            == report.reads
        )
        for subscription in subscriptions:
            subscription.close()
