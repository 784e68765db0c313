"""The shard layer (:mod:`repro.shard`): partitioning invariants, sharded-vs-
unsharded count differentials (exact bit-identical across partitioners and
shard counts; approximate seed-equal where the contract promises it), service
integration, and stream-delta routing to the owning shard."""

import pytest

from repro.core import count_answers_exact
from repro.core.registry import REGISTRY
from repro.queries import parse_query, query_relation_names
from repro.relational.signature import RelationSymbol
from repro.service import CountingService, CountRequest, ServiceConfig
from repro.shard import (
    ByRelationPartitioner,
    HashTuplePartitioner,
    ShardedStructure,
    build_union_decomposition,
    make_partitioner,
    plan_sharded_count,
    query_components,
    shard_task_seed,
)
from repro.util.estimation import Budget
from repro.util.rng import derive_seed
from repro.workloads import database_from_graph, erdos_renyi_graph

CQ = "Ans(x, y) :- E(x, z), E(z, y)"
DCQ = "Ans(x) :- E(x, y), E(x, z), y != z"
ECQ = "Ans(x, y) :- E(x, y), !F(x, y)"
MULTI = "Ans(x, u) :- E(x, y), F(u, v)"
QUERIES = (CQ, DCQ, ECQ, MULTI)


def make_database(rng=7, size=9):
    database = database_from_graph(erdos_renyi_graph(size, 0.3, rng=rng))
    database.add_relation(RelationSymbol("F", 2))
    database.add_fact("F", (0, 1))
    database.add_fact("F", (2, 3))
    database.add_fact("F", (1, 4))
    return database


@pytest.fixture
def database():
    return make_database()


def sharded_count(sharded, query, scheme="exact", epsilon=0.5, delta=0.25, seed=None):
    """One sharded count through the service's staged pipeline (a fresh
    service, so nothing is served from the result cache)."""
    return CountingService(sharded, ServiceConfig(executor="serial")).submit(
        CountRequest(query=query, epsilon=epsilon, delta=delta, seed=seed, method=scheme)
    )


# ---------------------------------------------------------------- partitioners
class TestPartitioners:
    def test_hash_tuple_is_deterministic_across_instances(self):
        first = HashTuplePartitioner(4)
        second = HashTuplePartitioner(4)
        for fact in [(0, 1), (1, 0), ("a", "b"), (2, 2)]:
            shard = first.shard_of("E", fact)
            assert 0 <= shard < 4
            assert second.shard_of("E", fact) == shard

    def test_hash_tuple_distinguishes_relations(self):
        partitioner = HashTuplePartitioner(64)
        placements = {partitioner.shard_of(name, (0, 1)) for name in "EFGHIJKL"}
        assert len(placements) > 1

    def test_by_relation_keeps_relations_whole(self, database):
        sharded = ShardedStructure.from_structure(database, ByRelationPartitioner(3))
        for name in ("E", "F"):
            counts = sharded.relation_shard_counts(name)
            assert sum(1 for count in counts if count > 0) <= 1

    def test_by_relation_explicit_assignment(self):
        partitioner = ByRelationPartitioner(2, assignment={"E": 1})
        assert partitioner.shard_of("E", (0, 1)) == 1
        with pytest.raises(ValueError, match="only 2 shards"):
            ByRelationPartitioner(2, assignment={"E": 5})

    def test_make_partitioner_validates(self):
        assert make_partitioner("tuple", 2).kind == "tuple"
        assert make_partitioner("relation", 2).kind == "relation"
        with pytest.raises(ValueError, match="unknown partitioner"):
            make_partitioner("range", 2)
        with pytest.raises(ValueError, match="no relation assignment"):
            make_partitioner("tuple", 2, assignment={"E": 0})
        with pytest.raises(ValueError, match="at least 1"):
            HashTuplePartitioner(0)


# ----------------------------------------------------------- sharded structure
class TestShardedStructure:
    @pytest.mark.parametrize("kind", ["tuple", "relation"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_shards_partition_the_facts(self, database, kind, num_shards):
        sharded = ShardedStructure.from_structure(database, make_partitioner(kind, num_shards))
        assert sharded.num_facts() == database.num_facts()
        for name in ("E", "F"):
            slices = [shard.relation(name) for shard in sharded.shards]
            union = set().union(*slices)
            assert union == database.relation(name)
            assert sum(len(piece) for piece in slices) == len(union)
        assert sharded.merged() == database

    def test_every_shard_carries_the_full_universe(self, database):
        sharded = ShardedStructure.from_structure(database, HashTuplePartitioner(3))
        for shard in sharded.shards:
            assert shard.universe == database.universe
        sharded.add_fact("E", ("new", "newer"))
        for shard in sharded.shards:
            assert {"new", "newer"} <= shard.universe

    def test_mutations_route_to_the_owning_shard(self, database):
        sharded = ShardedStructure.from_structure(database, HashTuplePartitioner(2))
        fact = ("p", "q")
        owner = sharded.partitioner.shard_of("E", fact)
        before = [shard.num_facts() for shard in sharded.shards]
        sharded.add_fact("E", fact)
        assert sharded.has_fact("E", fact)
        after = [shard.num_facts() for shard in sharded.shards]
        assert after[owner] == before[owner] + 1
        assert after[1 - owner] == before[1 - owner]
        sharded.remove_fact("E", fact)
        assert not sharded.has_fact("E", fact)
        with pytest.raises(KeyError):
            sharded.remove_fact("E", fact)
        with pytest.raises(KeyError):
            sharded.remove_fact("nope", (0, 1))

    def test_fingerprint_restriction_ignores_other_relations(self, database):
        sharded = ShardedStructure.from_structure(database, HashTuplePartitioner(2))
        restricted = sharded.version_fingerprint(["E"])
        full = sharded.version_fingerprint()
        sharded.add_fact("F", (5, 5))
        assert sharded.version_fingerprint(["E"]) == restricted
        assert sharded.version_fingerprint() != full

    def test_owner_shards(self, database):
        assignment = {"E": 0, "F": 1}
        sharded = ShardedStructure.from_structure(
            database, ByRelationPartitioner(2, assignment=assignment)
        )
        assert sharded.owner_shards(["E"]) == frozenset({0})
        assert sharded.owner_shards(["F"]) == frozenset({1})
        assert sharded.owner_shards(["E", "F"]) == frozenset()
        sharded.add_relation(RelationSymbol("G", 1))
        assert sharded.owner_shards(["G"]) == frozenset({0, 1})
        with pytest.raises(KeyError):
            sharded.owner_shards(["nope"])

    def test_token_is_distinct_from_the_shards(self, database):
        sharded = ShardedStructure.from_structure(database, HashTuplePartitioner(2))
        tokens = {shard.structure_token for shard in sharded.shards}
        assert sharded.structure_token not in tokens
        assert database.structure_token != sharded.structure_token


# -------------------------------------------------------------- decomposition
class TestQueryComponents:
    def test_connected_query_is_one_component(self):
        query = parse_query(CQ)
        assert query_components(query) == [query]

    def test_components_split_and_cover(self):
        components = query_components(parse_query(MULTI))
        assert [str(component) for component in components] == [
            "Ans(x) :- E(x, y)",
            "Ans(u) :- F(u, v)",
        ]

    def test_disequality_couples_components(self):
        query = parse_query("Ans(x, u) :- E(x, y), F(u, v), x != u")
        assert len(query_components(query)) == 1
        without = parse_query("Ans(x, u) :- E(x, y), F(u, v), x != y")
        assert len(query_components(without)) == 2

    def test_component_relations_include_negations(self):
        query = parse_query("Ans(x) :- E(x, y), !F(x, y)")
        (component,) = query_components(query)
        assert query_relation_names(component) == ("E", "F")

    def test_component_counts_multiply(self, database):
        query = parse_query(MULTI)
        product = 1
        for component in query_components(query):
            product *= count_answers_exact(component, database)
        assert product == count_answers_exact(query, database)


# ------------------------------------------------------ sharded differentials
class TestShardedDifferentials:
    @pytest.mark.parametrize("kind", ["tuple", "relation"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize("text", QUERIES)
    def test_exact_counts_are_bit_identical(self, kind, num_shards, text):
        database = make_database()
        query = parse_query(text)
        sharded = ShardedStructure.from_structure(database, make_partitioner(kind, num_shards))
        expected = count_answers_exact(query, database)
        result = sharded_count(sharded, query)
        assert result.estimate == expected

    @pytest.mark.parametrize("rng", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["tuple", "relation"])
    def test_randomized_exact_differentials(self, rng, kind):
        from repro.service import mixed_query_workload

        database = make_database(rng=20 + rng, size=8)
        queries = mixed_query_workload(6, num_variables=(3, 4), rng=rng)
        for num_shards in (2, 4):
            sharded = ShardedStructure.from_structure(database, make_partitioner(kind, num_shards))
            for query in queries:
                expected = count_answers_exact(query, database)
                result = sharded_count(sharded, query)
                assert result.estimate == expected, (kind, num_shards, str(query))

    @pytest.mark.parametrize(
        "scheme,text",
        [("fpras_cq", CQ), ("fptras_dcq", DCQ), ("fptras_ecq", ECQ)],
    )
    def test_single_strategy_estimates_are_seed_equal(self, database, scheme, text):
        """A fully-localising query routes to its owning shard with the seed
        passed through: the estimate is bit-identical to the unsharded one."""
        query = parse_query(text)
        sharded = ShardedStructure.from_structure(
            database, ByRelationPartitioner(4, assignment={"E": 2, "F": 2})
        )
        plan = plan_sharded_count(query, sharded)
        assert plan.strategy == "single"
        assert plan.tasks[0].seed_path is None
        for seed in (3, 11):
            sharded_estimate = sharded_count(sharded, query, scheme, seed=seed)
            direct = REGISTRY.count(scheme, query, database, epsilon=0.5, delta=0.25, rng=seed)
            assert sharded_estimate.estimate == direct.estimate

    @staticmethod
    def _manual_local_product(sharded, plan, scheme, seed):
        """The local-plan product computed by hand: every component at
        (epsilon', delta') = ((1 + 0.5)^(1/2) - 1, 0.25 / 2) with its derived
        seed."""
        expected = 1.0
        for task in plan.tasks:
            expected *= REGISTRY.count(
                scheme,
                task.query,
                sharded.shards[task.shard],
                epsilon=1.5**0.5 - 1.0,
                delta=0.125,
                rng=derive_seed(seed, *task.seed_path),
            ).estimate
        return expected

    def test_local_strategy_matches_manual_seed_derivation(self, database):
        query = parse_query(MULTI)
        sharded = ShardedStructure.from_structure(
            database, ByRelationPartitioner(2, assignment={"E": 0, "F": 1})
        )
        plan = plan_sharded_count(query, sharded)
        assert plan.strategy == "local" and len(plan.tasks) == 2
        seed = 17
        result = sharded_count(sharded, query, "fptras_ecq", seed=seed)
        assert result.estimate == self._manual_local_product(sharded, plan, "fptras_ecq", seed)
        assert shard_task_seed(seed, plan.tasks[0]) == derive_seed(seed, *plan.tasks[0].seed_path)
        assert shard_task_seed(None, plan.tasks[0]) is None

    def test_local_strategy_splits_accuracy_across_components(self, database):
        """c approximate components each run at ((1+eps)^(1/c) - 1, delta/c),
        so the product is an (eps, delta) approximation.  fpras_cq's estimate of the first component moves with epsilon,
        so running the components at the caller's (eps, delta) would fail."""
        query = parse_query(MULTI)
        sharded = ShardedStructure.from_structure(
            database, ByRelationPartitioner(2, assignment={"E": 0, "F": 1})
        )
        plan = plan_sharded_count(query, sharded)
        budget = plan.task_budget("fpras_cq", Budget(0.5, 0.25))
        assert budget == Budget(0.5, 0.25).product(2)
        assert (1.0 + budget.epsilon) ** 2 == pytest.approx(1.5) and budget.delta == 0.125
        assert plan.task_budget("exact", Budget(0.5, 0.25)) == Budget(0.5, 0.25)
        result = sharded_count(sharded, query, "fpras_cq", seed=17)
        assert result.estimate == self._manual_local_product(sharded, plan, "fpras_cq", 17)
        unsplit = 1.0
        for task in plan.tasks:
            unsplit *= REGISTRY.count(
                "fpras_cq",
                task.query,
                sharded.shards[task.shard],
                epsilon=0.5,
                delta=0.25,
                rng=derive_seed(17, *task.seed_path),
            ).estimate
        assert unsplit != result.estimate
        served = sharded_count(sharded, query, "fpras_cq", seed=4)
        assert served.estimate == self._manual_local_product(sharded, plan, "fpras_cq", 4)

    def test_one_task_plans_keep_the_callers_accuracy(self, database):
        sharded = ShardedStructure.from_structure(
            database, ByRelationPartitioner(4, assignment={"E": 2, "F": 2})
        )
        plan = plan_sharded_count(parse_query(MULTI), sharded)
        assert plan.strategy == "single"
        assert plan.task_budget("fpras_cq", Budget(0.5, 0.25)) == Budget(0.5, 0.25)

    def test_union_estimates_are_reproducible_under_equal_seeds(self, database):
        query = parse_query(DCQ)
        sharded = ShardedStructure.from_structure(database, HashTuplePartitioner(2))
        assert plan_sharded_count(query, sharded).strategy == "union"
        first = sharded_count(sharded, query, "fptras_dcq", seed=5)
        second = sharded_count(sharded, query, "fptras_dcq", seed=5)
        assert first.estimate == second.estimate
        assert first.shard_strategy == "union"

    def test_union_decomposition_structure(self, database):
        query = parse_query(ECQ)
        sharded = ShardedStructure.from_structure(database, HashTuplePartitioner(2))
        decomposition = build_union_decomposition(query, sharded)
        bearing = [
            index
            for index, count in enumerate(sharded.relation_shard_counts("E"))
            if count > 0
        ]
        assert len(decomposition.queries) == len(bearing)
        # Negated relations ship whole; positive slices partition E.
        assert decomposition.tagged.relation("F") == database.relation("F")
        slices = [
            decomposition.tagged.relation(f"E@s{index}")
            for index in range(sharded.num_shards)
        ]
        assert set().union(*slices) == database.relation("E")

    def test_union_of_empty_positive_relation_counts_zero(self):
        database = make_database()
        database.add_relation(RelationSymbol("G", 2))
        sharded = ShardedStructure.from_structure(database, HashTuplePartitioner(2))
        query = parse_query("Ans(x) :- G(x, y)")
        result = sharded_count(sharded, query)
        assert result.estimate == 0

    def test_merged_fallback_past_the_union_cap(self, database, monkeypatch):
        import repro.shard.plan as plan_module

        monkeypatch.setattr(plan_module, "MAX_UNION_COMPONENTS", 1)
        query = parse_query(CQ)
        sharded = ShardedStructure.from_structure(database, HashTuplePartitioner(2))
        plan = plan_sharded_count(query, sharded)
        assert plan.strategy == "merged"
        result = sharded_count(sharded, query)
        assert result.shard_strategy == "merged"
        assert result.estimate == count_answers_exact(query, database)


# --------------------------------------------------------- service integration
class TestServiceIntegration:
    @pytest.mark.parametrize("kind,num_shards", [("relation", 2), ("tuple", 2)])
    def test_count_batch_matches_unsharded_service(self, database, kind, num_shards):
        queries = [parse_query(text) for text in QUERIES]
        sharded = ShardedStructure.from_structure(database, make_partitioner(kind, num_shards))
        sharded_report = CountingService(
            sharded, ServiceConfig(executor="serial")
        ).count_batch(queries, seed=11)
        plain_report = CountingService(
            database, ServiceConfig(executor="serial")
        ).count_batch(queries, seed=11)
        assert sharded_report.estimates() == plain_report.estimates()
        assert sharded_report.cache_misses == len(queries)

    def test_resubmission_hits_the_result_cache(self, database):
        queries = [parse_query(text) for text in QUERIES]
        sharded = ShardedStructure.from_structure(database, HashTuplePartitioner(2))
        service = CountingService(sharded, ServiceConfig(executor="serial"))
        service.count_batch(queries, seed=11)
        again = service.count_batch(queries, seed=11)
        assert again.cache_hits == len(queries)
        assert again.executed_executor == "cache"

    def test_mutation_invalidates_exactly_the_touched_relation(self, database):
        sharded = ShardedStructure.from_structure(database, HashTuplePartitioner(2))
        service = CountingService(sharded, ServiceConfig(executor="serial"))
        query = parse_query(CQ)  # mentions only E
        service.submit(CountRequest(query, seed=3))
        sharded.add_fact("F", (6, 6))
        assert service.submit(CountRequest(query, seed=3)).cache == "hit"
        sharded.add_fact("E", ("fresh", 0))  # guaranteed-new fact
        after = service.submit(CountRequest(query, seed=3))
        assert after.cache == "miss"
        assert after.estimate == count_answers_exact(query, sharded.merged())

    def test_thread_executor_agrees_with_serial_on_shards(self, database):
        queries = [parse_query(MULTI), parse_query(CQ)]
        sharded = ShardedStructure.from_structure(
            database, ByRelationPartitioner(2, assignment={"E": 0, "F": 1})
        )
        serial = CountingService(sharded, ServiceConfig(executor="serial"))
        threaded = CountingService(sharded, ServiceConfig(executor="thread", max_workers=2))
        assert (
            serial.count_batch(queries, seed=9).estimates()
            == threaded.count_batch(queries, seed=9).estimates()
        )


# ----------------------------------------------------------- batch --shards
class TestBatchShardsCommand:
    """``repro-count batch --shards N``: the CLI's sharded batch."""

    ARGS = ["batch", "--workload", "6", "--seed", "5", "--executor", "serial"]

    def run_json(self, capsys, *extra):
        import json

        from repro.cli import main

        assert main(self.ARGS + list(extra) + ["--json"]) == 0
        return json.loads(capsys.readouterr().out)

    def test_sharded_batch_agrees_with_unsharded(self, capsys):
        from repro.cli import main

        status = main(self.ARGS + ["--shards", "3", "--compare"])
        assert status == 0
        output = capsys.readouterr().out
        assert "sharded database: 3 shards" in output
        assert "compare: 6/6" in output

    def test_json_carries_shards_and_compare(self, capsys):
        payload = self.run_json(capsys, "--shards", "3", "--compare")
        assert payload["kind"] == "batch_report"
        shards = payload["shards"]
        assert shards["num_shards"] == 3
        assert shards["partitioner"] == "relation"
        assert len(shards["shard_fact_counts"]) == 3
        assert sum(shards["strategies"].values()) == 6
        estimates = [result["estimate"] for result in payload["results"]]
        assert payload["compare"] == {
            "estimates_equal": [True] * 6,
            "unsharded_estimates": estimates,
        }

    def test_unsharded_json_has_no_shard_objects(self, capsys):
        payload = self.run_json(capsys)
        assert "shards" not in payload and "compare" not in payload

    def test_tuple_partitioner_runs(self, capsys):
        payload = self.run_json(capsys, "--shards", "2", "--partitioner", "tuple")
        assert payload["shards"]["partitioner"] == "tuple"
        assert len(payload["results"]) == 6

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--assign", "E=0"], "--assign requires --shards"),
            (["--partitioner", "tuple"], "--partitioner requires --shards"),
            (["--compare"], "--compare requires --shards"),
            (
                ["--shards", "2", "--partitioner", "tuple", "--assign", "E=0"],
                "--assign requires --partitioner relation",
            ),
        ],
        ids=["assign", "partitioner", "compare", "assign-with-tuple"],
    )
    def test_shard_flags_need_shards(self, capsys, extra, message):
        from repro.cli import main

        assert main(self.ARGS + extra) == 2
        assert message in capsys.readouterr().err

    def test_repeat_serves_pass_two_from_cache(self, capsys):
        from repro.cli import main

        assert main(self.ARGS + ["--shards", "2", "--repeat", "2"]) == 0
        output = capsys.readouterr().out
        assert "pass 2: 6 queries" in output
        assert "executor=cache" in output.split("pass 2:")[1]

    def test_shard_subcommand_is_gone(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["shard", "--workload", "2"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'shard'" in capsys.readouterr().err


# ------------------------------------------------------- stream-delta routing
class TestShardSubscription:
    def make_subscribed(self, refresh="eager", **kwargs):
        database = make_database()
        sharded = ShardedStructure.from_structure(
            database, ByRelationPartitioner(2, assignment={"E": 0, "F": 1})
        )
        service = CountingService(sharded, ServiceConfig(executor="serial"))
        subscription = service.subscribe(
            CountRequest(query=parse_query(MULTI), method="exact"),
            refresh=refresh,
            **kwargs,
        )
        return service, sharded, subscription

    def test_deltas_route_to_the_owning_shard(self):
        service, sharded, subscription = self.make_subscribed()
        assert subscription.strategy == "local"
        assert subscription.component_refreshes == (0, 0)
        sharded.add_fact("F", (7, 8))
        live = subscription.read()
        assert live.mode == "shard-partial"
        assert subscription.component_refreshes == (0, 1)
        metrics = service.metrics.snapshot()
        assert metrics["counters"]["stream.refreshes"]["mode=shard-partial"] == 1
        assert "stream.refresh_seconds" in metrics["histograms"]
        assert live.estimate == count_answers_exact(parse_query(MULTI), sharded.merged())
        sharded.add_fact("E", (0, 8))
        subscription.read()
        assert subscription.component_refreshes == (1, 1)

    def test_approximate_components_run_at_the_split_accuracy(self):
        database = make_database()
        sharded = ShardedStructure.from_structure(
            database, ByRelationPartitioner(2, assignment={"E": 0, "F": 1})
        )
        service = CountingService(sharded, ServiceConfig(executor="serial"))
        subscription = service.subscribe(
            CountRequest(
                query=parse_query(MULTI), epsilon=0.5, delta=0.25, seed=9, method="fpras_cq"
            )
        )
        assert subscription.strategy == "local"
        expected = 1.0
        for task in plan_sharded_count(parse_query(MULTI), sharded).tasks:
            expected *= REGISTRY.count(
                "fpras_cq",
                task.query,
                sharded.shards[task.shard],
                epsilon=1.5**0.5 - 1.0,
                delta=0.125,
                rng=derive_seed(9, 0, task.component),
            ).estimate
        assert subscription.read().estimate == expected

    def test_untouched_shard_reads_are_free_and_fresh(self):
        service, sharded, subscription = self.make_subscribed()
        sharded.add_relation(RelationSymbol("G", 2))
        sharded.add_fact("G", (0, 1))
        live = subscription.read()
        assert live.fresh and not live.refreshed
        assert subscription.component_refreshes == (0, 0)

    def test_randomized_mutation_stream_stays_correct(self):
        import numpy

        service, sharded, subscription = self.make_subscribed()
        query = parse_query(MULTI)
        generator = numpy.random.default_rng(3)
        universe = sorted(sharded.universe)
        for step in range(40):
            name = "E" if generator.random() < 0.5 else "F"
            u = universe[int(generator.integers(len(universe)))]
            v = universe[int(generator.integers(len(universe)))]
            if sharded.has_fact(name, (u, v)) and generator.random() < 0.5:
                sharded.remove_fact(name, (u, v))
            else:
                sharded.add_fact(name, (u, v))
            live = subscription.read()
            assert live.fresh
            assert live.estimate == count_answers_exact(query, sharded.merged())

    def test_debounced_policy_coalesces_ticks(self):
        service, sharded, subscription = self.make_subscribed(refresh="debounced", debounce_ticks=3)
        sharded.add_fact("F", (7, 8))
        live = subscription.read()
        assert not live.fresh and not live.refreshed
        assert live.pending_ticks == 1
        sharded.add_fact("F", (8, 7))
        sharded.add_fact("F", (6, 7))
        live = subscription.read()
        assert live.refreshed and live.fresh
        assert subscription.component_refreshes == (0, 1)

    def test_forced_refresh_overrides_policy(self):
        service, sharded, subscription = self.make_subscribed(
            refresh="debounced", debounce_ticks=100
        )
        sharded.add_fact("F", (7, 8))
        live = subscription.refresh()
        assert live.fresh and live.refreshed

    def test_unmoved_ownership_keeps_the_subscribe_time_plan(self, monkeypatch):
        """On a by-relation partition no write moves an owner set, so the
        plan made at subscribe time serves every refresh."""
        import numpy

        from repro.shard import subscription as subscription_module

        plans = []

        def counting_plan(query, sharded):
            plans.append(query)
            return plan_sharded_count(query, sharded)

        monkeypatch.setattr(subscription_module, "plan_sharded_count", counting_plan)
        service, sharded, subscription = self.make_subscribed()
        query = parse_query(MULTI)
        generator = numpy.random.default_rng(11)
        universe = sorted(sharded.universe)
        added = []
        for step in range(30):
            if added and step % 3 == 2:
                # Only facts added here are removed, so neither relation
                # empties (an empty relation is owned by every shard).
                sharded.remove_fact(*added.pop(int(generator.integers(len(added)))))
            else:
                name = "E" if generator.random() < 0.5 else "F"
                fact = tuple(
                    universe[int(generator.integers(len(universe)))] for _ in range(2)
                )
                if not sharded.has_fact(name, fact):
                    sharded.add_fact(name, fact)
                    added.append((name, fact))
            live = subscription.read()
            assert live.fresh
            assert live.estimate == count_answers_exact(query, sharded.merged())
        assert len(plans) == 1
        assert sum(subscription.component_refreshes) > 0

    def test_ownership_migration_is_detected(self):
        """A hash-by-tuple relation whose facts initially land on one shard
        localises — but a later fact can route to another shard.  The
        subscription must see the cross-shard mutation (aggregate
        fingerprints), re-plan, and keep serving correct counts."""
        partitioner = HashTuplePartitioner(2)
        shard0_facts = []
        shard1_fact = None
        for u in range(50):
            fact = (u, u + 100)
            if partitioner.shard_of("E", fact) == 0:
                if len(shard0_facts) < 3:
                    shard0_facts.append(fact)
            elif shard1_fact is None:
                shard1_fact = fact
            if len(shard0_facts) == 3 and shard1_fact is not None:
                break
        from repro.relational.structure import Database

        database = Database(relations={"E": shard0_facts})
        database.add_element(shard1_fact[0])
        database.add_element(shard1_fact[1])
        sharded = ShardedStructure.from_structure(database, partitioner)
        service = CountingService(sharded, ServiceConfig(executor="serial"))
        query = parse_query("Ans(x) :- E(x, y)")
        subscription = service.subscribe(CountRequest(query=query, method="exact"))
        assert subscription.strategy == "single"
        sharded.add_fact("E", shard1_fact)  # routes to the *other* shard
        live = subscription.read()
        assert live.fresh
        assert live.estimate == count_answers_exact(query, sharded.merged())

    def test_union_count_works_without_a_result_cache(self):
        """Union/merged inline counts must not depend on the result cache
        (result_cache_size=0 disables caching entirely)."""
        database = make_database()
        sharded = ShardedStructure.from_structure(database, HashTuplePartitioner(2))
        service = CountingService(sharded, ServiceConfig(executor="serial", result_cache_size=0))
        query = parse_query(CQ)
        result = service.submit(CountRequest(query, seed=3))
        assert result.cache == "miss"
        assert result.shard_strategy == "union"
        assert result.estimate == count_answers_exact(query, database)

    def test_union_strategy_subscription_recounts_whole(self):
        database = make_database()
        sharded = ShardedStructure.from_structure(database, HashTuplePartitioner(2))
        service = CountingService(sharded, ServiceConfig(executor="serial"))
        query = parse_query(CQ)
        subscription = service.subscribe(CountRequest(query=query, method="exact"))
        assert subscription.strategy == "union"
        assert subscription.component_refreshes == ()
        sharded.add_fact("E", (0, 8))
        live = subscription.read()
        assert live.mode == "recount"
        assert live.estimate == count_answers_exact(query, sharded.merged())

    def test_union_subscription_estimates_equal_submit(self, database):
        """A union-strategy subscription recounts through the service: its
        initial and refreshed estimates equal a fresh service's ``submit``
        with the same derived seed."""
        sharded = ShardedStructure.from_structure(database, HashTuplePartitioner(2))
        query = parse_query(DCQ)
        service = CountingService(sharded, ServiceConfig(executor="serial"))
        subscription = service.subscribe(
            CountRequest(query=query, epsilon=0.5, delta=0.25, seed=9, method="fptras_dcq")
        )
        assert subscription.strategy == "union"
        initial = subscription.read()
        assert initial.seed == derive_seed(9, 0, 0)
        assert (
            initial.estimate
            == sharded_count(sharded, query, "fptras_dcq", seed=initial.seed).estimate
        )
        sharded.add_fact("E", (0, 8))
        sharded.add_fact("E", (8, 0))
        refreshed = subscription.read()
        assert refreshed.refreshed and refreshed.mode == "recount"
        assert refreshed.seed == derive_seed(9, 1, 0)
        assert (
            refreshed.estimate
            == sharded_count(sharded, query, "fptras_dcq", seed=refreshed.seed).estimate
        )

    def test_close_and_stats(self):
        service, sharded, subscription = self.make_subscribed()
        assert service.stats()["stream"]["subscriptions"] == 1
        subscription.close()
        subscription.close()
        assert service.stats()["stream"]["subscriptions"] == 0
        with pytest.raises(RuntimeError, match="closed"):
            subscription.read()

    def test_bad_policy_rejected(self):
        database = make_database()
        sharded = ShardedStructure.from_structure(database, HashTuplePartitioner(2))
        service = CountingService(sharded, ServiceConfig(executor="serial"))
        with pytest.raises(ValueError, match="unknown refresh policy"):
            service.subscribe(CountRequest(query=parse_query(CQ), method="exact"), refresh="lazy")
