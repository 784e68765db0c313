"""The chaos harness: replay workloads under escalating fault rates and
assert bit-identity with the fault-free oracle.

Every layer of the repo promises the same correctness oracle — estimates are
a deterministic function of the derived seeds, never of scheduling, back-end
or (now) injected failure.  The harness makes that promise executable: for
each scenario it runs a **fault-free oracle** and a **chaos twin** of the
same workload under the same seeds, with a deterministic
:func:`~repro.resilience.faults.uniform_plan` injecting crashes at an
escalating rate into the twin, and demands exact estimate equality (plus a
fresh service as a second oracle, guarding against the twin corrupting
shared state).

Three scenarios:

* **batch** — a mixed CQ/DCQ/ECQ workload through ``count_batch`` with
  faults at ``executor.task`` and ``cache.get``, across serial and thread
  back-ends (process adds only pool plumbing already covered by the
  differential tests, at much higher cost per run);
* **shard** — localising queries over 1/2/4-shard databases with faults at
  ``shard.count``, including a permanent-fault case that must take the
  merged-view fallback and still agree;
* **stream** — twin databases replaying one mutation schedule, monolithic
  and 2-shard, each chaos twin's refreshes faulted at ``stream.refresh``;
  every read must agree with its fault-free twin's.

Run it directly (the CI ``chaos`` job does)::

    python -m repro.resilience.chaos --seed 2022 [--smoke] [--rates 0.1 0.5 1.0]

Exit status 0 iff every comparison matched.  This module deliberately lives
outside the package's ``__init__`` exports: it drives
:class:`repro.service.CountingService`, whose executor imports
:mod:`repro.resilience` — importing chaos at package level would close that
cycle.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.resilience.faults import FaultPlan, FaultRule, uniform_plan
from repro.resilience.retry import RetryPolicy

#: Retry budget every chaos twin runs under: enough attempts to absorb the
#: ``times=1`` transient faults the uniform plans inject.
CHAOS_RETRY = RetryPolicy(max_attempts=3)


@dataclass
class ChaosCase:
    """One scenario at one fault rate: how many comparisons ran and agreed."""

    scenario: str
    rate: float
    checks: int = 0
    mismatches: List[str] = field(default_factory=list)
    retries: int = 0
    degradations: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def compare(self, label: str, expected: float, actual: float) -> None:
        self.checks += 1
        if expected != actual:
            self.mismatches.append(f"{label}: expected {expected!r}, got {actual!r}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "rate": self.rate,
            "checks": self.checks,
            "ok": self.ok,
            "mismatches": self.mismatches,
            "retries": self.retries,
            "degradations": self.degradations,
            "seconds": round(self.seconds, 4),
        }


@dataclass
class ChaosReport:
    """All cases of one harness run."""

    seed: int
    cases: List[ChaosCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    @property
    def total_checks(self) -> int:
        return sum(case.checks for case in self.cases)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "total_checks": self.total_checks,
            "cases": [case.to_dict() for case in self.cases],
        }


def _batch_workload(seed: int, num_queries: int):
    from repro.service.workload import mixed_query_workload, workload_database

    database = workload_database(num_vertices=10, edge_probability=0.3, rng=seed)
    queries = mixed_query_workload(num_queries, num_variables=(3, 4), rng=seed + 1)
    return database, queries


def run_chaos_batch(
    seed: int, rate: float, num_queries: int = 6, executors: Sequence[str] = ("serial", "thread")
) -> ChaosCase:
    """Mixed batch workload: chaos twin (faults at ``executor.task`` and
    ``cache.get``) must reproduce the fault-free oracle's estimates."""
    from repro.service import CountingService, ServiceConfig

    case = ChaosCase(scenario="batch", rate=rate)
    started = time.perf_counter()
    database, queries = _batch_workload(seed, num_queries)
    plan = uniform_plan(seed, rate, sites=("executor.task", "cache.get"))
    for executor in executors:
        oracle = CountingService(database, ServiceConfig(executor="serial"))
        clean = oracle.count_batch(queries, seed=seed)
        chaos_service = CountingService(database, ServiceConfig(executor=executor))
        faulted = chaos_service.count_batch(
            queries, seed=seed, fault_plan=plan, retry=CHAOS_RETRY
        )
        case.retries += faulted.retries
        case.degradations += len(faulted.degradations)
        for clean_result, chaos_result in zip(clean.results, faulted.results):
            case.compare(
                f"batch[{executor}] query {clean_result.index} ({clean_result.scheme})",
                clean_result.estimate,
                chaos_result.estimate,
            )
    case.seconds = time.perf_counter() - started
    return case


def run_chaos_shard(
    seed: int, rate: float, shard_counts: Sequence[int] = (1, 2, 4)
) -> ChaosCase:
    """Sharded counts under ``shard.count`` faults, across shard counts;
    one permanent-fault rule per run forces the merged-view fallback."""
    from repro.queries import parse_query
    from repro.service import CountingService, ServiceConfig
    from repro.service.workload import workload_database
    from repro.shard.partition import ByRelationPartitioner
    from repro.shard.sharded import ShardedStructure

    case = ChaosCase(scenario="shard", rate=rate)
    started = time.perf_counter()
    database = workload_database(num_vertices=10, edge_probability=0.3, rng=seed + 2)
    queries = [
        parse_query("Ans(x, y) :- E(x, y)"),
        parse_query("Ans(x, u) :- E(x, y), F(u, v)"),
        parse_query("Ans(x) :- E(x, y), E(y, z), x != z"),
    ]
    transient = uniform_plan(seed, rate, sites=("shard.count",))
    # Shard 0 permanently down: every one of its tasks must exhaust retries
    # and recount on the merged view — and still agree with the oracle.
    permanent = FaultPlan(
        seed=seed,
        rules=(FaultRule(site="shard.count", kind="crash", rate=rate, times=99, match=(0,)),),
    )
    for num_shards in shard_counts:
        sharded = ShardedStructure.from_structure(
            database, ByRelationPartitioner(num_shards, assignment={"E": 0, "F": num_shards - 1})
        )
        oracle = CountingService(sharded, ServiceConfig(executor="serial"))
        clean = oracle.count_batch(queries, seed=seed)
        for label, plan in (("transient", transient), ("permanent", permanent)):
            chaos_service = CountingService(sharded, ServiceConfig(executor="serial"))
            faulted = chaos_service.count_batch(
                queries, seed=seed, fault_plan=plan, retry=CHAOS_RETRY
            )
            case.retries += faulted.retries
            case.degradations += len(faulted.degradations)
            for clean_result, chaos_result in zip(clean.results, faulted.results):
                case.compare(
                    f"shard[{num_shards}] {label} query {clean_result.index} "
                    f"({chaos_result.shard_strategy})",
                    clean_result.estimate,
                    chaos_result.estimate,
                )
    case.seconds = time.perf_counter() - started
    return case


def run_chaos_stream(seed: int, rate: float, num_events: int = 30) -> ChaosCase:
    """Twin services replay one mutation schedule, once on monolithic
    databases and once on 2-shard ones; each chaos twin's refreshes are
    faulted at ``stream.refresh`` and every read must agree with its
    fault-free twin's."""
    from repro.queries import parse_query
    from repro.relational.structure import Database
    from repro.service import CountingService, ServiceConfig
    from repro.shard.partition import ByRelationPartitioner
    from repro.shard.sharded import ShardedStructure
    from repro.stream.workload import stream_schedule
    from repro.util.rng import as_generator

    case = ChaosCase(scenario="stream", rate=rate)
    started = time.perf_counter()

    def build_database() -> Database:
        generator = as_generator(seed + 3)
        facts = set()
        while len(facts) < 12:
            pair = tuple(int(v) for v in generator.integers(0, 10, size=2))
            if pair[0] != pair[1]:
                facts.add(pair)
        return Database.from_relations({"E": sorted(facts)})

    schedule_db = build_database()
    schedule = stream_schedule(num_events, schedule_db, num_queries=1, rng=seed + 4)
    queries = [
        parse_query("Ans(x) :- E(x, y), E(y, z)"),
        parse_query("Ans(x) :- E(x, y), E(y, z), x != z"),
        # Quantifier-free: every solution is its own answer.
        parse_query("Ans(x, y, z) :- E(x, y), E(y, z), x != z"),
    ]
    plan = uniform_plan(seed, rate, sites=("stream.refresh",))

    def two_shards() -> ShardedStructure:
        return ShardedStructure.from_structure(
            build_database(), ByRelationPartitioner(2, assignment={"E": 0, "F": 1})
        )

    # (label, clean database, chaos database) twin pairs.
    pairs = [
        ("stream", build_database(), build_database()),
        ("stream[2 shards]", two_shards(), two_shards()),
    ]
    twins = []
    for label, clean_db, chaos_db in pairs:
        oracle = CountingService(clean_db, ServiceConfig(executor="serial"))
        twin = CountingService(
            chaos_db,
            ServiceConfig(executor="serial", fault_plan=plan, retry=CHAOS_RETRY),
        )
        clean_subs = [oracle.subscribe(query) for query in queries]
        chaos_subs = [twin.subscribe(query) for query in queries]
        twins.append((label, clean_db, chaos_db, clean_subs, chaos_subs))
    for position, event in enumerate(schedule):
        for label, clean_db, chaos_db, clean_subs, chaos_subs in twins:
            if event.kind == "insert":
                clean_db.add_fact(event.relation, event.fact)
                chaos_db.add_fact(event.relation, event.fact)
            elif event.kind == "delete":
                clean_db.remove_fact(event.relation, event.fact)
                chaos_db.remove_fact(event.relation, event.fact)
            else:  # read
                for query_index, (clean_sub, chaos_sub) in enumerate(
                    zip(clean_subs, chaos_subs)
                ):
                    clean_read = clean_sub.read()
                    chaos_read = chaos_sub.read()
                    case.degradations += len(chaos_read.degradations)
                    case.compare(
                        f"{label} event {position} query {query_index} "
                        f"({chaos_read.mode})",
                        clean_read.estimate,
                        chaos_read.estimate,
                    )
    for *_, clean_subs, chaos_subs in twins:
        for subscription in (*clean_subs, *chaos_subs):
            subscription.close()
    case.seconds = time.perf_counter() - started
    return case


def run_telemetry_probe(
    seed: int,
    rate: float,
    num_queries: int = 4,
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
) -> ChaosCase:
    """Telemetry under chaos: a traced + metriced faulted batch must be
    bit-identical to its untraced faulted twin, the span dump must record
    the request path, and the metrics snapshot must expose the core
    executor/cache/breaker series.

    Optionally writes the JSON-lines span dump and the Prometheus snapshot
    to ``trace_path``/``metrics_path`` (the CI chaos job uploads both as
    artifacts)."""
    from repro.obs import Tracer
    from repro.service import CountingService, ServiceConfig

    case = ChaosCase(scenario="telemetry", rate=rate)
    started = time.perf_counter()
    database, queries = _batch_workload(seed, num_queries)
    plan = uniform_plan(seed, rate, sites=("executor.task", "cache.get"))

    untraced = CountingService(database, ServiceConfig(executor="serial"))
    baseline = untraced.count_batch(queries, seed=seed, fault_plan=plan, retry=CHAOS_RETRY)

    tracer = Tracer()
    traced_service = CountingService(
        database, ServiceConfig(executor="serial", tracer=tracer)
    )
    traced = traced_service.count_batch(
        queries, seed=seed, fault_plan=plan, retry=CHAOS_RETRY
    )
    case.retries += traced.retries
    case.degradations += len(traced.degradations)
    for baseline_result, traced_result in zip(baseline.results, traced.results):
        case.compare(
            f"telemetry query {baseline_result.index} ({baseline_result.scheme})",
            baseline_result.estimate,
            traced_result.estimate,
        )

    # The span tree must actually record the request path ...
    for name in ("service.count_batch", "service.request", "executor.task", "scheme.count"):
        found = tracer.find(name)
        case.checks += 1
        if not found:
            case.mismatches.append(f"telemetry: no {name!r} span recorded")
    # ... and the metrics exposition must carry the core series.
    rendered = traced_service.metrics.render_prometheus()
    for series in (
        "repro_service_requests",
        "repro_executor_batches",
        "repro_scheme_latency_seconds",
        "repro_cache_result_hit_rate",
        "repro_breaker",
    ):
        case.checks += 1
        if series not in rendered:
            case.mismatches.append(f"telemetry: metrics snapshot lacks {series!r}")

    if trace_path:
        with open(trace_path, "w") as handle:
            text = tracer.to_jsonl()
            handle.write(text + "\n" if text else "")
    if metrics_path:
        with open(metrics_path, "w") as handle:
            handle.write(rendered)
    case.seconds = time.perf_counter() - started
    return case


def run_chaos(
    seed: int = 2022,
    rates: Sequence[float] = (0.1, 0.5, 1.0),
    smoke: bool = False,
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
) -> ChaosReport:
    """The full harness: every scenario at every escalating fault rate, plus
    one telemetry probe at the highest rate (which writes the span/metrics
    artifacts when paths are given)."""
    if smoke:
        rates = rates[:1] or (0.1,)
    report = ChaosReport(seed=seed)
    for rate in rates:
        report.cases.append(
            run_chaos_batch(seed, rate, num_queries=3 if smoke else 6)
        )
        report.cases.append(
            run_chaos_shard(seed, rate, shard_counts=(2,) if smoke else (1, 2, 4))
        )
        report.cases.append(
            run_chaos_stream(seed, rate, num_events=15 if smoke else 30)
        )
    report.cases.append(
        run_telemetry_probe(
            seed,
            rates[-1],
            num_queries=3 if smoke else 4,
            trace_path=trace_path,
            metrics_path=metrics_path,
        )
    )
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience.chaos",
        description="Replay workloads under deterministic fault injection and "
        "assert estimates equal the fault-free oracle.",
    )
    parser.add_argument("--seed", type=int, default=2022, help="fault-plan seed")
    parser.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[0.1, 0.5, 1.0],
        help="escalating fault rates to sweep",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="one rate, smaller workloads"
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write the telemetry probe's span dump to PATH as JSON lines "
        "(uploaded as a CI artifact by the chaos job)",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write the telemetry probe's Prometheus-style metrics snapshot "
        "to PATH",
    )
    args = parser.parse_args(argv)
    report = run_chaos(
        seed=args.seed,
        rates=tuple(args.rates),
        smoke=args.smoke,
        trace_path=args.trace,
        metrics_path=args.metrics,
    )
    for case in report.cases:
        status = "ok" if case.ok else "MISMATCH"
        print(
            f"chaos {case.scenario:<7} rate={case.rate:<4} checks={case.checks:<3} "
            f"retries={case.retries:<3} degradations={case.degradations:<3} "
            f"{case.seconds:6.2f}s  {status}"
        )
        for mismatch in case.mismatches:
            print(f"  !! {mismatch}")
    print(
        f"chaos: {report.total_checks} comparisons, "
        f"{'all bit-identical' if report.ok else 'MISMATCHES FOUND'} (seed {report.seed})"
    )
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
