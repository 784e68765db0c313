"""Per-layer probes of the traced run.

Each probe calls one layer's public functions on the workload's own
database and queries, inside a ``bench.<layer>.<call>`` span, so the span
dump shows the benchmark's calls next to the program's own spans.  The
probes run after the timed phases and never feed an end-to-end metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence

from harness import Outcome, median, per_call_us, ratio, span_seconds, timed

#: The per-layer metrics of the final JSON line of a traced run.  Every
#: workload reports all of them; figures that exist on one workload only
#: (serve timings, stream and shard reads, the FPRAS split) are reported
#: beside them by name (see ``Outcome.report``).
LAYER_METRICS = (
    ("serve.schema_us", "us"),
    ("queries.parse_us", "us"),
    ("queries.prepare_cold_ms", "ms"),
    ("queries.prepared_hit_ratio", "ratio"),
    ("service.plan_ms", "ms"),
    ("service.plan_cache_hit_ratio", "ratio"),
    ("service.submit_miss_ms", "ms"),
    ("service.submit_hit_ms", "ms"),
    ("executor.handoff_ms", "ms"),
    ("core.scheme_ms", "ms"),
    ("relational.exact_ms.indexed", "ms"),
    ("relational.exact_ms.columnar", "ms"),
    ("relational.propagate_ms.indexed", "ms"),
    ("relational.propagate_ms.columnar", "ms"),
    ("relational.mutate_us", "us"),
    ("obs.unattributed_share", "share"),
    ("obs.trace_overhead", "ratio"),
)

ENGINES = ("indexed", "columnar")


@dataclass(frozen=True)
class Shape:
    """One query of a workload with the scheme and engine it is planned to."""

    query: Any
    scheme: str
    engine: str


def solution_csp(query, database, engine: str):
    """The CSP whose solutions are Sol(query, database), built from the
    relational layer's public constraint types the way
    ``repro.core.count_solutions_exact`` builds it.  ``probe_relational``
    checks that both count the same solutions, so that a change to the
    program's construction fails the run instead of leaving this copy to
    time an old one."""
    from repro.relational import (
        CSPInstance,
        Constraint,
        NotEqualConstraint,
        NotInRelationConstraint,
    )

    universe = database.canonical_universe()
    constraints: List[Any] = [
        Constraint.trusted(
            atom.args,
            index=database.relation_index(atom.relation),
            table=(
                database.columnar_relation(atom.relation)
                if engine == "columnar"
                else None
            ),
        )
        for atom in query.atoms
    ]
    for atom in query.negated_atoms:
        forbidden = (
            database.relation(atom.relation)
            if atom.relation in database.signature
            else frozenset()
        )
        constraints.append(NotInRelationConstraint(scope=atom.args, forbidden=forbidden))
    for disequality in query.disequalities:
        constraints.append(NotEqualConstraint(disequality.left, disequality.right))
    return CSPInstance(
        {variable: universe for variable in query.variables}, constraints, engine=engine
    )


def probe_queries(outcome: Outcome, queries: Sequence[Any]) -> None:
    from repro.obs import span
    from repro.queries import clear_prepared_cache, parse_query, prepare

    texts = [str(query) for query in queries]
    with span("bench.queries.parse"):
        outcome.metric(
            "queries.parse_us",
            median([per_call_us(lambda text=text: parse_query(text), 50) for text in texts]),
            "us",
        )
    cold = []
    with span("bench.queries.prepare_cold"):
        for query in queries:
            clear_prepared_cache()
            cold.append(timed(lambda: prepare(query))[0] * 1000.0)
    outcome.metric("queries.prepare_cold_ms", median(cold), "ms")


def probe_schema(outcome: Outcome, request, result) -> None:
    from repro.obs import span
    from repro.serve import from_json, to_json

    def round_trip() -> None:
        from_json(to_json(request), expect="count_request")
        from_json(to_json(result), expect="count_result")

    with span("bench.serve.schema"):
        outcome.metric("serve.schema_us", per_call_us(round_trip, 100), "us")


def probe_handoff(
    outcome: Outcome,
    make_service: Callable[[], Any],
    batch: Sequence[Any],
    repeats: int,
) -> None:
    """``count_batch`` on the service's default executor minus the same batch
    on ``executor="serial"``, each on a fresh service (so no cache hits)."""
    from repro.obs import span

    differences = []
    for attempt in range(repeats):
        with span("bench.service.count_batch", executor="default"):
            default_seconds, default = timed(lambda: make_service().count_batch(batch))
        with span("bench.service.count_batch", executor="serial"):
            serial_seconds, serial = timed(
                lambda: make_service().count_batch(batch, executor="serial")
            )
        outcome.check(
            default.estimates() == serial.estimates(),
            f"handoff probe {attempt}: default-executor estimates "
            f"{default.estimates()} != serial {serial.estimates()}",
        )
        differences.append((default_seconds - serial_seconds) * 1000.0)
    outcome.metric("executor.handoff_ms", median(differences), "ms")
    outcome.inputs["handoff_executed_executor"] = default.executed_executor


def probe_core(
    outcome: Outcome,
    database,
    shapes: Sequence[Shape],
    epsilon: float,
    delta: float,
    seed: int,
) -> None:
    """``REGISTRY.count`` per shape under its planned scheme and engine, plus
    the Theorem-16 build/sample split and the deterministic work counts."""
    from repro.core import REGISTRY, build_tree_automaton, fpras_count_cq
    from repro.obs import span

    per_scheme: Dict[str, List[float]] = {}
    edgefree_calls = hom_queries = 0
    oracle_runs = 0
    for index, shape in enumerate(shapes):
        with span("bench.core.count", scheme=shape.scheme):
            seconds, result = timed(
                lambda: REGISTRY.count(
                    shape.scheme,
                    shape.query,
                    database,
                    epsilon=epsilon,
                    delta=delta,
                    rng=seed + index,
                    engine=shape.engine,
                )
            )
        per_scheme.setdefault(shape.scheme, []).append(seconds * 1000.0)
        statistics = result.statistics
        if statistics is not None and hasattr(statistics, "edgefree_calls"):
            edgefree_calls += statistics.edgefree_calls
            hom_queries += statistics.hom_queries
            oracle_runs += 1
    outcome.metric(
        "core.scheme_ms",
        median([value for values in per_scheme.values() for value in values]),
        "ms",
    )
    for scheme, values in sorted(per_scheme.items()):
        outcome.note(f"core.scheme_ms.{scheme}", median(values), "ms")
    if oracle_runs:
        outcome.note("core.edgefree_calls", edgefree_calls, "count")
        outcome.note("core.hom_queries", hom_queries, "count")

    fpras = [shape for shape in shapes if shape.scheme == "fpras_cq"]
    if not fpras:
        return
    build, sample, states = [], [], 0
    for index, shape in enumerate(fpras):
        with span("bench.core.fpras_build"):
            build_seconds, _ = timed(
                lambda: build_tree_automaton(shape.query, database, engine=shape.engine)
            )
        with span("bench.core.fpras_count"):
            total_seconds, result = timed(
                lambda: fpras_count_cq(
                    shape.query,
                    database,
                    epsilon=epsilon,
                    delta=delta,
                    rng=seed + index,
                    return_result=True,
                    engine=shape.engine,
                )
            )
        build.append(build_seconds * 1000.0)
        sample.append((total_seconds - build_seconds) * 1000.0)
        states += result.num_states
    outcome.note("core.fpras_build_ms", median(build), "ms")
    outcome.note("core.fpras_sample_ms", median(sample), "ms")
    outcome.note("core.automaton_states", states, "count")


def probe_relational(
    outcome: Outcome, database, queries: Sequence[Any], repeats: int
) -> None:
    """Exact counts and GAC propagation per engine (summed over the
    workload's queries, each the median of ``repeats``), with a cross-engine
    equality check, and the cost of one fact insert or delete."""
    from repro.core import count_answers_exact, count_solutions_exact
    from repro.obs import span

    counts: Dict[str, Dict[str, int]] = {}
    for engine in ENGINES:
        exact_total = propagate_total = 0.0
        for query in queries:
            samples = []
            with span("bench.relational.exact", engine=engine):
                for _ in range(repeats):
                    seconds, count = timed(
                        lambda: count_answers_exact(query, database, engine=engine)
                    )
                    samples.append(seconds)
            counts.setdefault(str(query), {})[engine] = count
            exact_total += median(samples)
            samples = []
            with span("bench.relational.propagate", engine=engine):
                for _ in range(repeats):
                    instance = solution_csp(query, database, engine)
                    samples.append(timed(instance.propagate)[0])
            probed = instance.count_solutions()
            solutions = count_solutions_exact(query, database, engine=engine)
            outcome.check(
                probed == solutions,
                f"the probed CSP of {query} ({engine}) has {probed} solutions, "
                f"count_solutions_exact {solutions}",
            )
            propagate_total += median(samples)
        outcome.metric(f"relational.exact_ms.{engine}", exact_total * 1000.0, "ms")
        outcome.metric(f"relational.propagate_ms.{engine}", propagate_total * 1000.0, "ms")
    for text, by_engine in counts.items():
        outcome.check(
            len(set(by_engine.values())) == 1, f"engines disagree on {text}: {by_engine}"
        )

    scratch = database.copy()
    relation = sorted(scratch.signature.names())[0]
    present = scratch.relation(relation)
    universe = scratch.canonical_universe()
    absent = [
        (u, v) for u in universe for v in universe if (u, v) not in present
    ][:200]
    samples = []
    with span("bench.relational.mutate", relation=relation):
        for fact in absent:
            samples.append(timed(lambda: scratch.add_fact(relation, fact))[0])
            samples.append(timed(lambda: scratch.remove_fact(relation, fact))[0])
    outcome.metric("relational.mutate_us", median(samples) * 1e6, "us")


def probe_submit(
    outcome: Outcome, twin_miss_ms: Sequence[float], twin, requests: Sequence[Any]
) -> None:
    """In-process ``submit`` latency: misses as timed while verifying, hits
    by resubmitting requests the twin has already answered."""
    from repro.obs import span

    hits = []
    for request in list(requests)[:20]:
        with span("bench.service.submit", cache="hit"):
            seconds, result = timed(lambda: twin.submit(request=request))
        outcome.check(result.cache == "hit", f"resubmitted {request.query} missed")
        hits.append(seconds * 1000.0)
    outcome.metric("service.submit_miss_ms", median(twin_miss_ms), "ms")
    outcome.metric("service.submit_hit_ms", median(hits), "ms")


def probe_service_telemetry(
    outcome: Outcome, service, roots: Sequence[Any], prepared_before, prepared_after
) -> None:
    """Planner and prepared-query figures of a traced phase."""
    plans = span_seconds(roots, "service.plan")
    outcome.metric("service.plan_ms", median(plans) * 1000.0 if plans else 0.0, "ms")
    plan_cache = service.planner.cache.stats()
    outcome.metric("service.plan_cache_hit_ratio", plan_cache.hit_rate, "ratio")
    hits = prepared_after.hits - prepared_before.hits
    misses = prepared_after.misses - prepared_before.misses
    outcome.metric("queries.prepared_hit_ratio", ratio(hits, hits + misses), "ratio")
    result_cache = service.result_cache.stats()
    outcome.note("service.result_cache_hit_ratio", result_cache.hit_rate, "ratio")
    outcome.note("service.result_cache_lookups", result_cache.lookups, "count")
