"""Tests for `repro.resilience`: deterministic fault injection, retries,
deadlines, circuit breakers — and the package-wide differential guarantee
that injected faults never change an estimate.

The differential tests are the heart: every scheme (exact, fpras_cq,
fptras_dcq, fptras_ecq) run through the service with crashes injected into
its tasks must return estimates bit-identical to a fault-free run under the
same seeds, across every executor back-end and shard count."""

import time

import pytest

from repro.queries import parse_query
from repro.relational.structure import Database
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    InjectedCrash,
    InjectedError,
    InjectedTimeout,
    RetriesExhausted,
    RetryPolicy,
    run_with_retry,
    uniform_plan,
)
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN
from repro.service import CountingService, CountRequest, ServiceConfig


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

#: A plan crashing every executor.task once: absorbed by one retry each.
CRASH_ONCE = FaultPlan(
    seed=7, rules=(FaultRule(site="executor.task", kind="crash", times=1),)
)
RETRY = RetryPolicy(max_attempts=3)


def monolithic(database):
    return database


def two_shards(database):
    from repro.shard import ByRelationPartitioner, ShardedStructure

    return ShardedStructure.from_structure(
        database, ByRelationPartitioner(2, assignment={"E": 0, "F": 1})
    )


def hash_shards(database):
    """Two shards by tuple hash: E spans both, so a query over E plans a
    Section-6 union."""
    from repro.shard import HashTuplePartitioner, ShardedStructure

    return ShardedStructure.from_structure(database, HashTuplePartitioner(2))


#: Live subscriptions share one core whatever the database layout: every
#: stream-refresh resilience test runs on both.
LAYOUTS = pytest.mark.parametrize("layout", [monolithic, two_shards])


# ---------------------------------------------------------------- fault plans
class TestFaultPlan:
    def test_rule_validation(self):
        with pytest.raises(FaultPlanError, match="unknown fault site"):
            FaultRule(site="nope")
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultRule(site="executor.task", kind="explode")
        with pytest.raises(FaultPlanError, match="rate"):
            FaultRule(site="executor.task", rate=1.5)
        with pytest.raises(FaultPlanError, match="times"):
            FaultRule(site="executor.task", times=0)
        with pytest.raises(FaultPlanError, match="latency"):
            FaultRule(site="executor.task", latency_seconds=-1)

    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=42,
            rules=(
                FaultRule(site="shard.count", kind="error", rate=0.5, times=2, match=(0,)),
                FaultRule(site="stream.refresh", kind="latency", latency_seconds=0.01),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_json_rejects_bad_configs(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            FaultPlan.from_json("{nope")
        with pytest.raises(FaultPlanError, match="needs an integer 'seed'"):
            FaultPlan.from_json('{"rules": []}')
        with pytest.raises(FaultPlanError, match="unknown fault rule field"):
            FaultPlan.from_json('{"seed": 1, "rules": [{"site": "cache.get", "x": 1}]}')
        with pytest.raises(FaultPlanError, match="unknown fault plan field"):
            FaultPlan.from_json('{"seed": 1, "extra": true}')

    def test_decide_is_pure_and_attempt_bounded(self):
        plan = FaultPlan(seed=3, rules=(FaultRule(site="executor.task", times=2),))
        # Same verdict on every evaluation (worker processes must agree).
        verdicts = [plan.decide("executor.task", (4,), 0) for _ in range(3)]
        assert all(v is verdicts[0] for v in verdicts)
        # Faults attempts 0..times-1, then succeeds.
        assert plan.decide("executor.task", (4,), 1) is not None
        assert plan.decide("executor.task", (4,), 2) is None
        # Other sites untouched.
        assert plan.decide("shard.count", (4,), 0) is None

    def test_rate_selects_a_deterministic_subset(self):
        plan = uniform_plan(seed=11, rate=0.5, sites=("executor.task",))
        selected = {
            key for key in range(200) if plan.decide("executor.task", (key,), 0)
        }
        assert 0 < len(selected) < 200  # neither none nor all
        again = {
            key for key in range(200) if plan.decide("executor.task", (key,), 0)
        }
        assert selected == again

    def test_match_prefix_targets_keys(self):
        rule = FaultRule(site="shard.count", match=(1,))
        assert rule.matches_key((1, 0)) and rule.matches_key((1, 5))
        assert not rule.matches_key((0, 1))

    def test_apply_raises_the_matching_fault(self):
        def plan_for(kind):
            return FaultPlan(
                seed=1,
                rules=(
                    FaultRule(site="executor.task", kind=kind, latency_seconds=0.001),
                ),
            )

        with pytest.raises(InjectedCrash):
            plan_for("crash").apply("executor.task", (0,), 0)
        with pytest.raises(InjectedError):
            plan_for("error").apply("executor.task", (0,), 0)
        with pytest.raises(InjectedTimeout):
            plan_for("hang").apply("executor.task", (0,), 0, sleeper=lambda _: None)
        note = plan_for("latency").apply(
            "executor.task", (0,), 0, sleeper=lambda _: None
        )
        assert "latency" in note

    def test_hang_stall_is_capped_by_the_timeout_hint(self):
        plan = FaultPlan(
            seed=1,
            rules=(FaultRule(site="executor.task", kind="hang", latency_seconds=60.0),),
        )
        slept = []
        with pytest.raises(InjectedTimeout):
            plan.apply("executor.task", (0,), 0, timeout_hint=0.01, sleeper=slept.append)
        assert slept == [0.01]


# -------------------------------------------------------------------- retries
class TestRetry:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_seconds=0)

    def test_backoff_is_exponential_capped_and_deterministic(self):
        policy = RetryPolicy(
            base_delay_seconds=0.1, backoff_factor=2.0, max_delay_seconds=0.35,
            jitter=0.5,
        )
        delays = [policy.backoff_delay(a, "executor.task", (3,)) for a in range(4)]
        assert delays == [
            policy.backoff_delay(a, "executor.task", (3,)) for a in range(4)
        ]
        assert all(d <= 0.35 for d in delays)
        # A different key jitters differently.
        assert policy.backoff_delay(0, "executor.task", (4,)) != delays[0]

    def test_transient_fault_is_absorbed_and_traced(self):
        plan = FaultPlan(seed=7, rules=(FaultRule(site="executor.task", times=2),))
        value, trace = run_with_retry(
            lambda: 42,
            sites=(("executor.task", (0,)),),
            policy=RetryPolicy(max_attempts=3),
            plan=plan,
        )
        assert value == 42
        assert trace.attempts == 3 and trace.retried
        assert sum("InjectedCrash" in note for note in trace.notes) == 2

    def test_exhaustion_raises_with_provenance(self):
        plan = FaultPlan(seed=7, rules=(FaultRule(site="executor.task", times=99),))
        with pytest.raises(RetriesExhausted) as info:
            run_with_retry(
                lambda: 42,
                sites=(("executor.task", (0,)),),
                policy=RetryPolicy(max_attempts=2),
                plan=plan,
            )
        assert info.value.attempts == 2
        assert isinstance(info.value.last, InjectedCrash)

    def test_genuine_errors_are_not_retried(self):
        calls = []

        def operation():
            calls.append(1)
            raise KeyError("real bug")

        with pytest.raises(KeyError):
            run_with_retry(
                operation,
                sites=(("executor.task", (0,)),),
                policy=RetryPolicy(max_attempts=5),
                plan=CRASH_ONCE,
            )
        assert len(calls) == 1

    def test_no_policy_means_single_attempt_without_a_plan(self):
        with pytest.raises(RetriesExhausted):
            run_with_retry(
                lambda: (_ for _ in ()).throw(InjectedCrash("executor.task", (0,), 0, "crash")),
                sites=(("executor.task", (0,)),),
            )

    def test_expired_deadline_refuses_the_next_attempt(self):
        deadline = Deadline(expires_at=time.monotonic() - 1.0)
        with pytest.raises(DeadlineExceeded):
            run_with_retry(
                lambda: 42, sites=(("executor.task", (0,)),), deadline=deadline
            )

    def test_deadline_after_validates(self):
        assert Deadline.after(None) is None
        with pytest.raises(ValueError):
            Deadline.after(0)
        with pytest.raises(ValueError):  # NaN would never expire
            Deadline.after(float("nan"))
        assert Deadline.after(60.0).remaining() > 59.0


# ------------------------------------------------------------------- breakers
class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_opens_after_cooldown(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=2, reset_seconds=10.0, clock=lambda: now[0]
        )
        assert breaker.state("process") == CLOSED
        assert breaker.record_failure("process") is False
        assert breaker.record_failure("process") is True
        assert breaker.state("process") == OPEN
        now[0] = 11.0
        assert breaker.state("process") == HALF_OPEN
        # A failed half-open probe re-opens (single failure suffices).
        assert breaker.record_failure("process") is True
        assert breaker.state("process") == OPEN
        now[0] = 22.0
        breaker.record_success("process")
        assert breaker.state("process") == CLOSED

    def test_plan_modes_skips_open_rungs_but_keeps_the_floor(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, reset_seconds=10.0, clock=lambda: now[0]
        )
        assert breaker.plan_modes("process") == ("process", "thread", "serial")
        assert breaker.plan_modes("thread") == ("thread", "serial")
        breaker.record_failure("process")
        assert breaker.plan_modes("process") == ("thread", "serial")
        breaker.record_failure("thread")
        # serial is the floor: never skipped even if everything else is open.
        assert breaker.plan_modes("process") == ("serial",)
        now[0] = 11.0  # cool-down over: half-open rungs get their probe
        assert breaker.plan_modes("process") == ("process", "thread", "serial")

    def test_should_warn_fires_once_per_token(self):
        breaker = CircuitBreaker()
        assert breaker.should_warn("executor.process")
        assert not breaker.should_warn("executor.process")
        assert breaker.should_warn("executor.thread")

    def test_stats_reports_every_touched_rung(self):
        breaker = CircuitBreaker()
        breaker.record_failure("process")
        breaker.record_success("thread")
        stats = breaker.stats()
        assert stats["process"]["total_failures"] == 1
        assert stats["thread"]["total_successes"] == 1


# --------------------------------------------------- differential: bit-identity
class TestFaultsNeverChangeEstimates:
    """The acceptance bar: crashes injected into up to one worker per batch
    (and one shard per query) leave every estimate bit-identical."""

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_batch_estimates_survive_task_crashes(self, database, executor):
        queries = [parse_query(CQ), parse_query(DCQ), parse_query(ECQ)]
        clean = CountingService(database, ServiceConfig(executor="serial"))
        clean_report = clean.count_batch(queries, seed=9)
        chaotic = CountingService(database, ServiceConfig(executor=executor))
        chaos_report = chaotic.count_batch(
            queries, seed=9, fault_plan=CRASH_ONCE, retry=RETRY
        )
        assert chaos_report.estimates() == clean_report.estimates()
        assert chaos_report.retries >= len(queries)
        assert len(chaos_report.degradations) >= len(queries)
        for result in chaos_report.results:
            assert any("InjectedCrash" in note for note in result.degradations)

    @pytest.mark.parametrize("scheme", ["fpras_cq", "fptras_dcq", "fptras_ecq"])
    def test_approximate_schemes_are_bit_identical_under_crashes(
        self, database, scheme
    ):
        query = parse_query(
            {"fpras_cq": CQ, "fptras_dcq": DCQ, "fptras_ecq": ECQ}[scheme]
        )
        requests = [CountRequest(query=query, method=scheme, seed=31)]
        clean = CountingService(database, ServiceConfig(executor="serial"))
        clean_estimate = clean.count_batch(requests, seed=31).results[0].estimate
        chaotic = CountingService(database, ServiceConfig(executor="serial"))
        chaos_result = chaotic.count_batch(
            requests, seed=31, fault_plan=CRASH_ONCE, retry=RETRY
        ).results[0]
        assert chaos_result.estimate == clean_estimate
        assert chaos_result.scheme == scheme

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_sharded_counts_survive_shard_crashes(self, database, num_shards):
        from repro.shard import ByRelationPartitioner, ShardedStructure

        sharded = ShardedStructure.from_structure(
            database,
            ByRelationPartitioner(num_shards, assignment={"E": 0, "F": num_shards - 1}),
        )
        queries = [parse_query(CQ), parse_query(DCQ), parse_query(ECQ)]
        clean = CountingService(sharded, ServiceConfig(executor="serial"))
        clean_report = clean.count_batch(queries, seed=9)
        plan = uniform_plan(seed=7, rate=1.0, sites=("shard.count",))
        chaotic = CountingService(sharded, ServiceConfig(executor="serial"))
        chaos_report = chaotic.count_batch(queries, seed=9, fault_plan=plan, retry=RETRY)
        assert chaos_report.estimates() == clean_report.estimates()

    def test_permanently_dead_shard_falls_back_to_merged_view(self, database):
        from repro.shard import ByRelationPartitioner, ShardedStructure

        sharded = ShardedStructure.from_structure(
            database, ByRelationPartitioner(2, assignment={"E": 0, "F": 1})
        )
        queries = [parse_query(CQ)]
        clean_report = CountingService(
            sharded, ServiceConfig(executor="serial")
        ).count_batch(queries, seed=9)
        # Shard 0 crashes on every attempt: retries exhaust, the task must
        # recount on the merged view — and still agree bit-for-bit.
        plan = FaultPlan(
            seed=7,
            rules=(FaultRule(site="shard.count", kind="crash", times=99, match=(0,)),),
        )
        chaos_report = CountingService(
            sharded, ServiceConfig(executor="serial")
        ).count_batch(queries, seed=9, fault_plan=plan, retry=RETRY)
        assert chaos_report.estimates() == clean_report.estimates()
        assert any(
            "recounted component on merged view" in note
            for note in chaos_report.degradations
        )

    def test_dead_shard_local_plan_serves_the_clean_estimate(self, database):
        """An approximate local plan whose shard-0 component exhausts its
        retries is recounted on the merged view with the same derived seed
        and component accuracy: the served estimate equals the clean one,
        with exactly one merged-view note."""
        sharded = two_shards(database)
        request = CountRequest(
            query=parse_query("Ans(x, u) :- E(x, y), F(u, v)"),
            epsilon=0.5,
            delta=0.2,
            seed=11,
            method="fpras_cq",
        )
        dead = FaultPlan(
            seed=7,
            rules=(FaultRule(site="shard.count", kind="crash", times=99, match=(0,)),),
        )
        clean = CountingService(sharded, ServiceConfig(executor="serial")).submit(request)
        served = CountingService(sharded, ServiceConfig(executor="serial")).count_batch(
            [request], fault_plan=dead, retry=RETRY
        ).results[0]
        assert served.shard_strategy == clean.shard_strategy == "local"
        assert served.estimate == clean.estimate
        assert not any("on merged view" in note for note in clean.degradations)
        assert len([note for note in served.degradations if "on merged view" in note]) == 1

    def test_cache_get_fault_degrades_to_a_miss(self, database):
        queries = [parse_query(CQ)]
        clean = CountingService(database, ServiceConfig(executor="serial"))
        clean_report = clean.count_batch(queries, seed=9)
        plan = FaultPlan(
            seed=7, rules=(FaultRule(site="cache.get", kind="error", times=99),)
        )
        chaotic = CountingService(database, ServiceConfig(executor="serial"))
        first = chaotic.count_batch(queries, seed=9, fault_plan=plan, retry=RETRY)
        second = chaotic.count_batch(queries, seed=9, fault_plan=plan, retry=RETRY)
        assert first.estimates() == second.estimates() == clean_report.estimates()
        # The repeat pass would have been a cache hit; the fault forced a
        # recount (with the same seed), recorded as a degradation.
        assert any("degraded to miss" in note for note in second.degradations)

    @pytest.mark.parametrize("layout", [monolithic, two_shards, hash_shards])
    def test_deadline_exceeded_aborts_the_batch(self, database, layout):
        database = layout(database)
        service = CountingService(database, ServiceConfig(executor="serial"))
        queries = [parse_query(CQ)]
        if layout is hash_shards:
            from repro.shard import plan_sharded_count

            assert plan_sharded_count(queries[0], database).strategy == "union"
        with pytest.raises(DeadlineExceeded):
            service.count_batch(
                queries,
                seed=9,
                deadline_seconds=1e-9,
                fault_plan=CRASH_ONCE,
                retry=RETRY,
            )

    @LAYOUTS
    def test_stream_refresh_faults_serve_stale_then_recover(self, database, layout):
        database = layout(database)
        plan = FaultPlan(
            seed=7, rules=(FaultRule(site="stream.refresh", kind="crash", times=99),)
        )
        service = CountingService(
            database,
            ServiceConfig(executor="serial", fault_plan=plan, retry=RETRY),
        )
        subscription = service.subscribe(parse_query(CQ))
        before = subscription.read()
        database.add_fact("E", (9, 1))
        stale = subscription.read()
        # Permanent refresh faults: the read serves the stale value with
        # provenance instead of raising.
        assert stale.estimate == before.estimate
        assert not stale.fresh and not stale.refreshed
        assert any("serving stale" in note for note in stale.degradations)
        subscription.close()

    @LAYOUTS
    def test_stream_transient_fault_refreshes_bit_identically(self, database, layout):
        twin = layout(
            Database.from_relations(
                {name: sorted(database.relation(name)) for name in ("E", "F")}
            )
        )
        database = layout(database)
        clean_service = CountingService(database, ServiceConfig(executor="serial"))
        plan = FaultPlan(
            seed=7, rules=(FaultRule(site="stream.refresh", kind="crash", times=1),)
        )
        chaos_service = CountingService(
            twin, ServiceConfig(executor="serial", fault_plan=plan, retry=RETRY)
        )
        clean_sub = clean_service.subscribe(parse_query(CQ))
        chaos_sub = chaos_service.subscribe(parse_query(CQ))
        for fact in ((9, 1), (10, 9)):
            database.add_fact("E", fact)
            twin.add_fact("E", fact)
            clean_read, chaos_read = clean_sub.read(), chaos_sub.read()
            assert chaos_read.estimate == clean_read.estimate
            assert chaos_read.fresh
            # The crash was injected and absorbed by a retry, not bypassed.
            assert any("InjectedCrash" in note for note in chaos_read.degradations)
        clean_sub.close()
        chaos_sub.close()


# ---------------------------------------------------------------- chaos smoke
class TestChaosHarness:
    def test_smoke_sweep_is_bit_identical(self):
        from repro.resilience.chaos import run_chaos

        report = run_chaos(seed=2022, rates=(0.5,), smoke=True)
        assert report.ok, [case.to_dict() for case in report.cases]
        assert report.total_checks > 0
        # Chaos that injects nothing tests nothing: the sweep must have
        # actually exercised retries.
        assert sum(case.retries for case in report.cases) > 0

    def test_main_exit_code(self, capsys):
        from repro.resilience.chaos import main

        assert main(["--seed", "2022", "--smoke", "--rates", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "all bit-identical" in out


# ------------------------------------------------------------------ CLI errors
class TestCLIErrorMapping:
    def test_parse_failure_exits_2_with_one_line(self, capsys):
        from repro.cli import main

        assert main(["count", "--query", "Ans(x :- E(x, y)", "--edge-list", "/dev/null"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1

    def test_bad_fault_plan_exits_2(self, capsys):
        from repro.cli import main

        code = main(
            [
                "batch", "--workload", "2", "--seed", "7", "--executor", "serial",
                "--fault-plan", '{"seed": 1, "rules": [{"site": "bogus"}]}',
            ]
        )
        assert code == 2
        assert "unknown fault site" in capsys.readouterr().err

    def test_fault_plan_flag_reproduces_a_chaos_run(self, capsys, tmp_path):
        from repro.cli import main

        plan_file = tmp_path / "plan.json"
        plan_file.write_text(
            '{"seed": 9, "rules": [{"site": "executor.task", "rate": 1.0}]}'
        )
        argv = ["batch", "--workload", "2", "--seed", "7", "--executor", "serial"]
        assert main(argv) == 0
        clean_out = capsys.readouterr().out
        assert main(argv + ["--fault-plan", str(plan_file)]) == 0
        chaos_out = capsys.readouterr().out
        # Same estimates; the chaos run adds resilience lines.
        import re

        def estimates(text):
            return re.findall(r"estimate=\s*([\d.]+)", text)

        assert estimates(clean_out) == estimates(chaos_out) != []
        assert "resilience:" in chaos_out
