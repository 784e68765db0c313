"""The ``live-updates`` workload: writes beside reads of live counts.

One in-process thread replays a seeded schedule of inserts and deletes
over three relations.  ``E`` and ``G`` are read by the
subscribed query, ``F`` is not.  After every write it reads two exact
subscriptions from ``CountingService.subscribe`` on the same query: one on
the monolithic database (delta-patched through the change log) and one on
the same data held as a 2-shard ``ShardedStructure`` placed by relation
(only the shard a write touches is recounted).

The query has two connected components, one per shard, so its count is the
product of the components' counts.  The output check recounts each
component from scratch after every write with ``method="exact"`` and
multiplies: the product rule lets a recount of the whole query cost two
small counts instead of one enumeration of the product.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Any, List, Tuple

import layers
from harness import (
    MIN_MISSES,
    PROBE_OFFSET,
    Outcome,
    SpeedProbe,
    layer_self_ms,
    median,
    peak_rss_mb,
    percentile,
    ratio,
    request_seed,
    speed_around,
    timed,
    walk,
    workload_record,
)


@dataclass(frozen=True)
class LiveSpec:
    """The live-updates workload: its databases, query and schedule length."""

    nodes: int = 12
    edges: int = 20
    #: Base-graph seeds of ``E`` and ``G``.
    base_seeds: Tuple[int, int] = (21, 22)
    query: str = "Ans(x, u) :- E(x, y), E(y, z), G(u, v)"
    components: Tuple[str, str] = ("Ans(x) :- E(x, y), E(y, z)", "Ans(u) :- G(u, v)")
    schedule_events: int = 40_000
    probe_repeats: int = 5
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups: int = 16
    #: The ``benchmarks/record_perf.py`` suites this workload overlaps.
    overlaps_suite: str = "stream, shard"

    def shrunk(self) -> "LiveSpec":
        """The smoke test's tiny variant."""
        return replace(
            self, nodes=8, edges=10, schedule_events=2_000, probe_repeats=1
        )


LIVE_UPDATES = LiveSpec()

#: Relations the subscribed query reads, all relations written, and where
#: each relation lives.
QUERIED = ("E", "G")
RELATIONS = ("E", "F", "G")
PLACEMENT = {"E": 0, "G": 1, "F": 0}


def build_database(spec: LiveSpec):
    """The fixed starting database: ``E`` and ``G`` are symmetric copies of
    two base graphs G(n, m), and ``F(v, 3v+1 mod n)``."""
    import networkx as nx

    from repro.relational.structure import Database

    database = Database(universe=range(spec.nodes))
    for relation, base_seed in zip(QUERIED, spec.base_seeds):
        for u, v in nx.gnm_random_graph(spec.nodes, spec.edges, seed=base_seed).edges():
            database.add_fact(relation, (u, v))
            database.add_fact(relation, (v, u))
    for vertex in range(spec.nodes):
        database.add_fact("F", (vertex, (3 * vertex + 1) % spec.nodes))
    return database


def build_schedule(spec: LiveSpec, seed: int):
    """A seeded insert/delete schedule in the style of
    ``repro.stream.stream_schedule``, except that every write to a relation
    is undone by the next write to it: an inserted absent fact is deleted
    again, a deleted fact is inserted again.  Each relation is then always
    its starting contents give or take one fact, so the cost of a write is
    drawn from the same distribution all through a run and in every run,
    whatever its length or seed."""
    from repro.stream import StreamEvent

    rng = random.Random(seed)
    database = build_database(spec)
    universe = list(database.canonical_universe())
    present = {name: database.relation(name) for name in RELATIONS}
    start = {name: sorted(facts, key=repr) for name, facts in present.items()}
    absent = {
        name: [(u, v) for u in universe for v in universe if (u, v) not in facts]
        for name, facts in present.items()
    }
    undo = {}
    events = []
    for _ in range(spec.schedule_events):
        relation = rng.choice(RELATIONS)
        if relation in undo:
            kind, fact = undo.pop(relation)
        elif rng.random() < 0.5:
            kind, fact = "insert", rng.choice(absent[relation])
            undo[relation] = ("delete", fact)
        else:
            kind, fact = "delete", rng.choice(start[relation])
            undo[relation] = ("insert", fact)
        events.append(StreamEvent(kind=kind, relation=relation, fact=fact))
    return events


@dataclass
class Step:
    """One replayed write and the two reads after it."""

    relation: str
    write_s: float
    read_s: float
    shard_write_s: float
    shard_read_s: float
    live: Any
    shard_live: Any
    #: When the step ended, in seconds since the replay started.
    ended: float = 0.0

    @property
    def touched(self) -> bool:
        return self.relation in QUERIED

    @property
    def write_read_ms(self) -> float:
        return (self.write_s + self.read_s) * 1000.0

    @property
    def shard_write_read_ms(self) -> float:
        return (self.shard_write_s + self.shard_read_s) * 1000.0


@dataclass
class Phase:
    #: Each set-up's seconds, raw and scaled to the reference speed.
    setup_seconds: List[float]
    setup_scaled: List[float]
    service: Any
    steps: List[Step]
    #: The replay's wall time, less the time spent probing.
    wall_seconds: float
    probe: SpeedProbe
    tracer: Any = None

    @property
    def events_per_s(self) -> float:
        return ratio(len(self.steps), self.wall_seconds)

    @property
    def events_per_s_scaled(self) -> float:
        end = self.steps[-1].ended if self.steps else 0.0
        return ratio(len(self.steps), self.probe.scaled_seconds(end))


def _setup(spec: LiveSpec, tracer):
    """Build both databases, open both subscriptions and read each once."""
    from repro.obs import MetricsRegistry
    from repro.queries import clear_prepared_cache, parse_query
    from repro.service import CountingService, CountRequest, ServiceConfig
    from repro.shard import ByRelationPartitioner, ShardedStructure

    clear_prepared_cache()
    started = time.perf_counter()
    database = build_database(spec)
    sharded = ShardedStructure.from_structure(
        build_database(spec), ByRelationPartitioner(2, assignment=PLACEMENT)
    )
    service = CountingService(
        database,
        ServiceConfig(executor="serial", tracer=tracer, metrics=MetricsRegistry()),
    )
    query = parse_query(spec.query)
    subscription = service.subscribe(CountRequest(query=query, method="exact"))
    shard_subscription = service.subscribe(
        CountRequest(query=query, database=sharded, method="exact")
    )
    subscription.read()
    shard_subscription.read()
    seconds = time.perf_counter() - started
    if tracer is not None:
        tracer.clear()
    return seconds, database, sharded, service, subscription, shard_subscription


def run_phase(
    spec: LiveSpec, seed: int, seconds: float, tracer, setups: int, schedule, outcome: Outcome
) -> Phase:
    """Set up half of ``setups`` times (keeping the last), replay the
    schedule for ``seconds`` timing each write and read and probing the
    host's speed between events, close the subscriptions and set up (and
    close) the other half.  Set-ups on both sides of the replay sample the
    host's speed at two times, so their median moves less with it."""
    from repro.obs import activate, span

    setup_seconds, setup_scaled = [], []
    subscription = shard_subscription = None
    before = (setups + 1) // 2
    for _ in range(before):
        if subscription is not None:
            subscription.close()
            shard_subscription.close()
        made, scale = speed_around(lambda: _setup(spec, tracer))
        elapsed, database, sharded, service, subscription, shard_subscription = made
        setup_seconds.append(elapsed)
        setup_scaled.append(elapsed * scale)
    outcome.check(
        subscription.scheme == "exact" and shard_subscription.scheme == "exact",
        f"subscriptions planned to {subscription.scheme}/{shard_subscription.scheme}",
    )
    steps: List[Step] = []
    started = time.perf_counter()
    deadline = started + seconds
    probe = SpeedProbe(started)
    with activate(tracer):
        for event in schedule:
            if time.perf_counter() >= deadline:
                break
            if probe.due():
                probe.run()
            touched = event.relation in QUERIED
            with span("bench.stream.write_read", touched=touched):
                write_s, _ = timed(lambda: _apply(database, event))
                read_s, live = timed(subscription.read)
            with span("bench.shard.write_read", touched=touched):
                shard_write_s, _ = timed(lambda: _apply(sharded, event))
                shard_read_s, shard_live = timed(shard_subscription.read)
            steps.append(
                Step(
                    event.relation, write_s, read_s, shard_write_s, shard_read_s,
                    live, shard_live, time.perf_counter() - started,
                )
            )
    wall = time.perf_counter() - started - probe.seconds
    outcome.check(len(steps) < len(schedule), "the schedule ran out before the time")
    subscription.close()
    shard_subscription.close()
    for _ in range(setups - before):
        (elapsed, *_, spare, shard_spare), scale = speed_around(lambda: _setup(spec, tracer))
        spare.close()
        shard_spare.close()
        setup_seconds.append(elapsed)
        setup_scaled.append(elapsed * scale)
    outcome.attempted += len(steps)
    return Phase(setup_seconds, setup_scaled, service, steps, wall, probe, tracer)


def _apply(database, event) -> None:
    if event.kind == "insert":
        database.add_fact(event.relation, event.fact)
    else:
        database.remove_fact(event.relation, event.fact)


def verify(spec: LiveSpec, seed: int, phase: Phase, schedule, outcome: Outcome):
    """Replay the writes on a fresh copy and check every read of both
    subscriptions against a from-scratch exact count of that state.
    Returns the twin's miss latencies (ms) and the twin service."""
    from repro.obs import activate, span
    from repro.queries import parse_query
    from repro.service import CountingService, CountRequest, ServiceConfig

    replay = build_database(spec)
    twin = CountingService(replay, ServiceConfig(executor="serial"))
    components = [
        CountRequest(query=parse_query(text), method="exact") for text in spec.components
    ]
    miss_ms: List[float] = []

    def recount() -> int:
        total = 1
        for request in components:
            with span("bench.service.submit"):
                seconds, result = timed(lambda: twin.submit(request=request))
            if result.cache == "miss":
                miss_ms.append(seconds * 1000.0)
            total *= result.estimate
        return total

    failed = set()
    with activate(phase.tracer):
        truth = recount()
        for index, (event, step) in enumerate(zip(schedule, phase.steps)):
            _apply(replay, event)
            if step.touched:
                truth = recount()
            for name, live in (("monolithic", step.live), ("sharded", step.shard_live)):
                if not outcome.check(
                    live.estimate == truth and live.fresh,
                    f"step {index} ({event.kind} {event.relation}{event.fact}): "
                    f"{name} read {live.estimate} (fresh={live.fresh}), recount {truth}",
                ):
                    failed.add(index)
    outcome.failed += len(failed)
    return miss_ms, twin, components


def run(spec: LiveSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.obs import Tracer
    from repro.queries import prepared_cache_stats

    outcome = Outcome()
    schedule = build_schedule(spec, seed)
    untraced = run_phase(
        spec, seed, seconds, None, 1 if trace else spec.setups, schedule, outcome
    )
    verify(spec, seed, untraced, schedule, outcome)
    _end_to_end(spec, untraced, outcome)
    loop = "one in-process thread replaying a seeded write schedule"
    outcome.inputs.update(workload_record(spec, loop, build_database(spec)))
    if not trace:
        return outcome

    outcome.tracer = tracer = Tracer()
    prepared_before = prepared_cache_stats()
    traced = run_phase(spec, seed, seconds, tracer, 1, schedule, outcome)
    prepared_after = prepared_cache_stats()
    for index, (before, after) in enumerate(zip(untraced.steps, traced.steps)):
        outcome.check(
            (before.live.estimate, before.shard_live.estimate)
            == (after.live.estimate, after.shard_live.estimate),
            f"step {index}: traced reads differ from untraced",
        )
    phase_roots = list(tracer.roots)
    twin_ms, twin, components = verify(spec, seed, traced, schedule, outcome)
    _stream_layers(untraced, traced, phase_roots, outcome)
    _probe_layers(spec, seed, traced, twin, twin_ms, components, outcome)
    layers.probe_service_telemetry(
        outcome, traced.service, tracer.roots, prepared_before, prepared_after
    )
    for layer, value in layer_self_ms(tracer.roots).items():
        outcome.note(f"self_ms.{layer}", value, "ms")
    return outcome


def _end_to_end(spec: LiveSpec, phase: Phase, outcome: Outcome) -> None:
    touched = [step for step in phase.steps if step.touched]
    untouched = [step for step in phase.steps if not step.touched]
    if len(touched) < MIN_MISSES:
        outcome.warnings.append(
            f"only {len(touched)} touched writes: fewer than 10 samples lie beyond the p90"
        )
    outcome.check(bool(untouched), "no untouched write in the run")
    write_read = [step.write_read_ms for step in touched]
    outcome.samples["touched"] = [(step.ended, step.write_read_ms) for step in touched]
    outcome.samples["untouched"] = [(step.ended, step.write_read_ms) for step in untouched]
    outcome.samples["op"] = [(step.ended, step.write_read_ms) for step in phase.steps]
    outcome.samples["probe"] = phase.probe.samples
    scaled = phase.probe.scaled(outcome.samples["touched"])
    outcome.metric("setup_s", median(phase.setup_scaled), "s")
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.metric("ops_per_s", phase.events_per_s_scaled, "1/s")
    outcome.metric("latency_p50_ms", median(scaled), "ms")
    outcome.metric("latency_p90_ms", percentile(scaled, 90), "ms")
    outcome.metric(
        "hit_p50_ms", median(phase.probe.scaled(outcome.samples["untouched"])), "ms"
    )
    # Every read is an exact count that the output check compares with a
    # recount, so all estimates are within epsilon.
    outcome.metric("within_eps_share", 1.0, "share")
    outcome.note("probe_p50_ms", phase.probe.median_ms(), "ms")
    outcome.note("raw.setup_s", median(phase.setup_seconds), "s")
    outcome.note("raw.ops_per_s", phase.events_per_s, "1/s")
    outcome.note("raw.latency_p50_ms", median(write_read), "ms")
    outcome.note("raw.latency_p90_ms", percentile(write_read, 90), "ms")
    outcome.note("raw.hit_p50_ms", median([step.write_read_ms for step in untouched]), "ms")
    outcome.note("events_per_s", phase.events_per_s, "1/s")
    outcome.note("write_read_p50_ms", median(write_read), "ms")
    outcome.note("write_read_p90_ms", percentile(write_read, 90), "ms")
    outcome.note(
        "shard_write_read_p50_ms", median([step.shard_write_read_ms for step in touched]), "ms"
    )
    outcome.note("touched_writes", len(touched), "count")
    outcome.note("untouched_writes", len(untouched), "count")
    outcome.note("failed_share", ratio(outcome.failed, outcome.attempted), "share")


def _stream_layers(untraced: Phase, traced: Phase, phase_roots, outcome: Outcome) -> None:
    touched = [step for step in traced.steps if step.touched]
    untouched = [step for step in traced.steps if not step.touched]
    outcome.note("stream.read_ms", median([step.read_s * 1000.0 for step in touched]), "ms")
    refreshed = [step.live for step in traced.steps if step.live.refreshed]
    outcome.note(
        "stream.delta_share",
        ratio(sum(1 for live in refreshed if live.mode == "delta"), len(refreshed)),
        "share",
    )
    outcome.note(
        "stream.untouched_refreshes",
        sum(1 for step in untouched if step.live.refreshed or step.shard_live.refreshed),
        "count",
    )
    outcome.note(
        "shard.read_ms", median([step.shard_read_s * 1000.0 for step in touched]), "ms"
    )
    shard_refreshed = [step.shard_live for step in traced.steps if step.shard_live.refreshed]
    outcome.note(
        "shard.partial_share",
        ratio(
            sum(1 for live in shard_refreshed if live.mode == "shard-partial"),
            len(shard_refreshed),
        ),
        "share",
    )
    # Time inside a write-then-read that no span of the program covers.
    bench = [
        node
        for node in walk(phase_roots)
        if node.name.endswith(".write_read") and node.attrs.get("touched")
    ]
    total = sum(node.seconds for node in bench)
    uncovered = sum(
        node.seconds - sum(child.seconds for child in node.children) for node in bench
    )
    outcome.metric("obs.unattributed_share", ratio(uncovered, total), "share")
    outcome.metric(
        "obs.trace_overhead",
        ratio(untraced.events_per_s, traced.events_per_s),
        "ratio",
    )


def _probe_layers(spec, seed, traced: Phase, twin, twin_ms, components, outcome) -> None:
    from repro.obs import activate
    from repro.queries import parse_query
    from repro.service import CountingService, CountRequest

    database = build_database(spec)
    query = parse_query(spec.query)
    queries = [query] + [request.query for request in components]
    shapes = [
        layers.Shape(q, plan.scheme, plan.engine)
        for q, plan in ((q, traced.service.plan(q, method="exact")) for q in queries)
    ]
    request = CountRequest(query=query, method="exact")
    batch = [
        CountRequest(
            query=queries[index % len(queries)],
            seed=request_seed(seed, PROBE_OFFSET + index),
            method="exact",
        )
        for index in range(8)
    ]
    with activate(traced.tracer):
        layers.probe_submit(outcome, twin_ms, twin, components)
        layers.probe_schema(outcome, request, twin.submit(request=request))
        layers.probe_handoff(
            outcome, lambda: CountingService(database), batch, repeats=2
        )
        layers.probe_core(outcome, database, shapes, epsilon=0.2, delta=0.05, seed=seed)
        layers.probe_relational(outcome, database, queries, spec.probe_repeats)
        layers.probe_queries(outcome, queries)
