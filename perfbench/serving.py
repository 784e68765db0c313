"""The three served workloads: ``serve-exact``, ``serve-approx`` and
``serve-large-exact``.

Each run builds the workload's database, starts the HTTP server on a
background thread (``repro.serve.start_in_thread``) and drives it with
closed-loop ``ServeClient`` threads for the given number of seconds.  Every
served estimate is then checked against a twin in-process
``CountingService`` and against exact counts taken at set-up.

The database of a workload is fixed; the seed picks every request seed and
the traffic mix (which operations repeat an earlier request or are
batches).  The schemes' cost depends on the database down to the order of
its vertex labels, so a database drawn per seed would make the run-to-run
spread measure the draw rather than the program.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import layers
from harness import (
    MIN_MISSES,
    PROBE_OFFSET,
    WARMUP_OFFSET,
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
    workload_record,
)

#: Forced-scheme shapes of ``serve-approx`` (the planner would pick the
#: same schemes; forcing them keeps the mix fixed).
APPROX_SHAPES = (
    ("Ans(x, y) :- E(x, z), E(z, y)", "fpras_cq"),
    ("Ans(x, w) :- E(x, y), E(y, z), E(z, w)", "fpras_cq"),
    ("Ans(x) :- E(x, y), E(y, z), x != z", "fptras_dcq"),
    ("Ans(x) :- E(x, y), E(x, z), y != z", "fptras_dcq"),
    ("Ans(x) :- E(x, y), E(y, z), not F(x, z)", "fptras_ecq"),
)


@dataclass(frozen=True)
class ServeSpec:
    """One served workload: its database, query mix and traffic shape."""

    name: str
    nodes: int
    edges: int
    base_seed: int
    #: (query text, forced method or None for the planner's choice).
    shapes: Tuple[Tuple[str, Optional[str]], ...]
    #: Fresh requests of each shape per cycle through the shapes.
    weights: Tuple[int, ...]
    clients: int
    #: Share of operations that repeat an earlier (query, seed) pair.
    repeat_share: float
    #: Share of operations that are a ``POST /v1/batch``.
    batch_share: float
    batch_size: int
    epsilon: Optional[float]
    delta: Optional[float]
    #: The scheme and engine every request must be planned to.
    expect_scheme: Optional[str]
    expect_engine: str
    #: Engines whose exact counts must agree at set-up.
    check_engines: Tuple[str, ...]
    #: Whether every distinct request is recounted by the twin service
    #: (exact workloads whose counts cost as much as the run itself recount
    #: one request per shape and compare every other one with the exact
    #: count, which for an exact scheme is the same number).
    twin_every_request: bool
    #: Repeats of each measurement inside the layer probes.
    probe_repeats: int
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setups: int
    #: The ``benchmarks/record_perf.py`` suite this workload overlaps.
    overlaps_suite: Optional[str]

    def shrunk(self) -> "ServeSpec":
        """The smoke test's tiny variant."""
        return replace(
            self,
            nodes=6,
            edges=8,
            probe_repeats=1,
            # A tiny database sits below every planner threshold.
            expect_engine="indexed",
        )


SERVE_EXACT = ServeSpec(
    name="serve-exact",
    nodes=15,
    edges=30,
    base_seed=11,
    shapes=(
        ("Ans(x, y) :- E(x, y)", None),
        ("Ans(x) :- E(x, y), E(y, z)", None),
        ("Ans(x, y) :- E(x, y), x != y", None),
        ("Ans(x) :- E(x, y), E(x, z), y != z", None),
        ("Ans(x, z) :- E(x, y), E(y, z), not F(x, z)", None),
    ),
    weights=(1, 1, 1, 1, 1),
    clients=2,
    repeat_share=0.25,
    batch_share=0.1,
    batch_size=8,
    epsilon=None,
    delta=None,
    expect_scheme="exact",
    expect_engine="indexed",
    check_engines=("indexed", "columnar", "naive"),
    twin_every_request=True,
    probe_repeats=5,
    setups=16,
    overlaps_suite="serve",
)

SERVE_APPROX = ServeSpec(
    name="serve-approx",
    nodes=7,
    edges=9,
    base_seed=3,
    shapes=APPROX_SHAPES,
    # In-process costs: about 100 and 320 ms (fpras_cq 2-hop, 3-path), 18
    # and 45 ms (fptras_dcq path, star) and 23 ms (fptras_ecq).  The
    # 3-path takes 1 fresh request in 20, so that a run holds well over
    # MIN_MISSES misses; the p50 then lies inside the star's samples and
    # the p90 inside the 2-hop's, away from any step between cost levels.
    weights=(5, 1, 4, 6, 4),
    clients=1,
    repeat_share=0.25,
    batch_share=0.0,
    batch_size=0,
    epsilon=0.5,
    delta=0.25,
    expect_scheme=None,
    expect_engine="indexed",
    check_engines=("indexed", "columnar"),
    twin_every_request=True,
    probe_repeats=3,
    setups=6,
    overlaps_suite=None,
)

SERVE_LARGE_EXACT = ServeSpec(
    name="serve-large-exact",
    nodes=120,
    edges=1250,
    base_seed=5,
    # Cheap shapes (columnar, in-process: about 15, 13, 70 and 175 ms), so
    # that a run holds well over MIN_MISSES misses.  Their costs are far
    # apart and the triangle takes half the fresh requests, so the p50 lies
    # inside the triangle's samples and the p90 inside the 2-hop's: a
    # percentile that fell on the step between two cost levels would jump
    # from one to the other between runs.
    shapes=(
        ("Ans(x, y) :- E(x, y)", "exact"),
        ("Ans(x) :- E(x, y), E(y, x)", "exact"),
        ("Ans() :- E(x, y), E(y, z), E(z, x)", "exact"),
        ("Ans(x, y) :- E(x, z), E(z, y)", "exact"),
    ),
    weights=(1, 1, 3, 1),
    clients=1,
    repeat_share=0.25,
    batch_share=0.0,
    batch_size=0,
    epsilon=None,
    delta=None,
    expect_scheme="exact",
    expect_engine="columnar",
    check_engines=("indexed", "columnar"),
    twin_every_request=False,
    probe_repeats=1,
    setups=6,
    overlaps_suite="columnar",
)

SPECS = {spec.name: spec for spec in (SERVE_EXACT, SERVE_APPROX, SERVE_LARGE_EXACT)}

#: Health checks timed after a traced loop.
HEALTH_PROBES = 200

#: Operations generated per run: far more than any run completes.
OPS_PER_RUN = 50_000


# ----------------------------------------------------------------- inputs
def build_database(spec: ServeSpec):
    """The workload's fixed database: the base graph G(n, m) as a symmetric
    ``E``, plus a functional ``F(v, 3v+1 mod n)`` for the negated atoms."""
    import networkx as nx

    from repro.relational.signature import RelationSymbol
    from repro.workloads import database_from_graph

    database = database_from_graph(
        nx.gnm_random_graph(spec.nodes, spec.edges, seed=spec.base_seed)
    )
    if any("F(" in text for text, _ in spec.shapes):
        database.add_relation(RelationSymbol("F", 2))
        for vertex in range(spec.nodes):
            database.add_fact("F", (vertex, (3 * vertex + 1) % spec.nodes))
    return database


@dataclass(frozen=True)
class Op:
    """One client operation: a ``/v1/count`` (one request) or a
    ``/v1/batch`` (several)."""

    kind: str
    requests: Tuple[Any, ...]


def make_ops(spec: ServeSpec, queries: Sequence[Any], seed: int, count: int) -> List[Op]:
    """The seeded operation list the clients consume in order.

    Fresh requests cycle through the shapes, ``weights[i]`` of shape ``i``
    per cycle, so every run holds the shapes in the same shares.  Repeats
    reuse a request issued so much earlier that it has completed (more
    requests than all clients can hold in flight), so they hit the result
    cache instead of coalescing with an in-flight twin."""
    from repro.service import CountRequest

    rng = random.Random(seed)
    lag = spec.clients * max(1, spec.batch_size)
    fresh_seeds = (request_seed(seed, offset) for offset in itertools.count())
    cycle = itertools.cycle(
        [index for index, weight in enumerate(spec.weights) for _ in range(weight)]
    )
    issued: List[Any] = []

    def fresh():
        index = next(cycle)
        request = CountRequest(
            query=queries[index],
            seed=next(fresh_seeds),
            method=spec.shapes[index][1],
            epsilon=spec.epsilon,
            delta=spec.delta,
        )
        issued.append(request)
        return request

    ops: List[Op] = []
    for _ in range(count):
        draw = rng.random()
        if draw < spec.batch_share:
            ops.append(Op("batch", tuple(fresh() for _ in range(spec.batch_size))))
        elif draw < spec.batch_share + spec.repeat_share and len(issued) > lag:
            ops.append(Op("count", (issued[rng.randrange(len(issued) - lag)],)))
        else:
            ops.append(Op("count", (fresh(),)))
    return ops


# ----------------------------------------------------------- server phase
@dataclass
class Record:
    """One completed (or failed) client operation."""

    index: int
    kind: str
    seconds: float
    estimates: Tuple[Any, ...] = ()
    cache: Optional[str] = None
    coalesced: bool = False
    executed_executor: Optional[str] = None
    error: Optional[str] = None
    #: When the operation returned, in seconds since the loop started.
    ended: float = 0.0


@dataclass
class Phase:
    """One server lifetime: set-up, the timed closed loop, tear-down."""

    #: Each set-up's seconds, raw and scaled to the reference speed.
    setup_seconds: List[float]
    setup_scaled: List[float]
    database: Any
    service: Any
    records: List[Record]
    #: The loop's wall time, less the time spent probing.
    wall_seconds: float
    probe: SpeedProbe
    ops: List[Op]
    tracer: Any = None
    #: Round trips of ``ServeClient.health()`` after a traced loop (ms).
    health_ms: List[float] = field(default_factory=list)

    def completed(self, kind: Optional[str] = None) -> List[Record]:
        return [
            record
            for record in self.records
            if record.error is None and (kind is None or record.kind == kind)
        ]

    def samples_ms(self, cache: str) -> List[Tuple[float, float]]:
        """``(ended, ms)`` of the uncoalesced ``/v1/count`` operations
        answered with ``cache``."""
        return [
            (record.ended, record.seconds * 1000.0)
            for record in self.completed("count")
            if record.cache == cache and not record.coalesced
        ]

    def latencies_ms(self, cache: str) -> List[float]:
        return [ms for _, ms in self.samples_ms(cache)]

    @property
    def ops_per_s(self) -> float:
        return ratio(len(self.completed()), self.wall_seconds)

    @property
    def ops_per_s_scaled(self) -> float:
        end = max((record.ended for record in self.records), default=0.0)
        return ratio(len(self.completed()), self.probe.scaled_seconds(end))


def _setup(spec: ServeSpec, seed: int, queries, tracer):
    """Build the database, start the server and warm it up: one request per
    shape (and one batch where the workload sends batches) with seeds the
    timed phase never uses.  The warm-up seeds are those of run 0 whatever
    the run's seed, so that every run sets up the same work."""
    from repro.obs import MetricsRegistry
    from repro.queries import clear_prepared_cache
    from repro.serve import ServeClient, ServeConfig, start_in_thread
    from repro.service import CountingService, CountRequest, ServiceConfig

    clear_prepared_cache()
    started = time.perf_counter()
    database = build_database(spec)
    service = CountingService(
        database, ServiceConfig(tracer=tracer, metrics=MetricsRegistry())
    )
    handle = start_in_thread(service, ServeConfig())
    client = ServeClient(handle.host, handle.port, timeout=120.0)
    warmups = [
        CountRequest(
            query=query,
            seed=request_seed(0, WARMUP_OFFSET + index),
            method=spec.shapes[index][1],
            epsilon=spec.epsilon,
            delta=spec.delta,
        )
        for index, query in enumerate(queries)
    ]
    for request in warmups:
        client.count(request)
    if spec.batch_share:
        client.count_batch(
            [
                CountRequest(
                    query=request.query,
                    seed=request_seed(0, WARMUP_OFFSET + 100 + offset),
                )
                for offset, request in enumerate(warmups)
            ]
        )
    seconds = time.perf_counter() - started
    if tracer is not None:
        tracer.clear()
    return seconds, database, service, handle


def closed_loop(
    handle, ops: Sequence[Op], clients: int, seconds: float, tracer
) -> Tuple[List[Record], float, SpeedProbe]:
    """``clients`` threads each send the next unsent operation as soon as
    their previous one returns, until ``seconds`` have passed.  When a speed
    probe is due, the thread that takes the next operation first waits
    until no operation is in flight, so that the probe runs alone."""
    from repro.obs import activate, span
    from repro.serve import ServeClient, ServeError

    lock = threading.Condition()
    cursor = [0]
    in_flight = [0]
    probing = [False]
    records: List[Record] = []
    started = time.perf_counter()
    deadline = started + seconds
    finished = [started]
    probe = SpeedProbe(started)

    def take() -> Optional[int]:
        with lock:
            lock.wait_for(lambda: not probing[0])
            if cursor[0] >= len(ops) or time.perf_counter() >= deadline:
                return None
            if probe.due():
                probing[0] = True
                lock.wait_for(lambda: in_flight[0] == 0)
                probe.run()
                probing[0] = False
                lock.notify_all()
            cursor[0] += 1
            in_flight[0] += 1
            return cursor[0] - 1

    def client_thread() -> None:
        client = ServeClient(handle.host, handle.port, timeout=120.0)
        with activate(tracer):
            while True:
                index = take()
                if index is None:
                    return
                op = ops[index]
                record = Record(index=index, kind=op.kind, seconds=0.0)
                began = time.perf_counter()
                try:
                    with span(f"bench.serve.{op.kind}"):
                        if op.kind == "count":
                            result = client.count(op.requests[0])
                            record.estimates = (result.estimate,)
                            record.cache = result.cache
                            record.coalesced = result.coalesced
                        else:
                            report = client.count_batch(list(op.requests))
                            record.estimates = tuple(report.estimates())
                            record.executed_executor = report.executed_executor
                except ServeError as error:
                    record.error = f"HTTP {error.status}: {error.error}"
                except Exception as error:  # noqa: BLE001 - counted as failed
                    record.error = repr(error)
                ended = time.perf_counter()
                record.seconds = ended - began
                record.ended = ended - started
                with lock:
                    records.append(record)
                    finished[0] = max(finished[0], ended)
                    in_flight[0] -= 1
                    lock.notify_all()

    threads = [threading.Thread(target=client_thread) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 150.0)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a benchmark client did not finish")
    records.sort(key=lambda record: record.index)
    return records, finished[0] - started - probe.seconds, probe


def run_phase(
    spec: ServeSpec, seed: int, seconds: float, tracer, setups: int, outcome: Outcome
) -> Phase:
    """Set up half of ``setups`` times (keeping the last server), check the
    plans, run the closed loop, stop the server, set up (and stop) the
    other half, and count failed operations.  Set-ups on both sides of the
    loop sample the host's speed at two times, so their median moves less
    with it.  A traced phase also times ``HEALTH_PROBES`` health checks
    before the server stops."""
    from repro.serve import ServeClient

    queries = parsed_shapes(spec)
    setup_seconds, setup_scaled = [], []
    handle = None
    before = (setups + 1) // 2
    for _ in range(before):
        if handle is not None:
            handle.stop()
        made, scale = speed_around(lambda: _setup(spec, seed, queries, tracer))
        elapsed, database, service, handle = made
        setup_seconds.append(elapsed)
        setup_scaled.append(elapsed * scale)
    try:
        for query, (_, method) in zip(queries, spec.shapes):
            plan = service.plan(query, method=method)
            outcome.check(
                (spec.expect_scheme in (None, plan.scheme))
                and plan.engine == spec.expect_engine,
                f"{query} planned to {plan.scheme}/{plan.engine}, expected "
                f"{spec.expect_scheme or method}/{spec.expect_engine}",
            )
        ops = make_ops(spec, queries, seed, OPS_PER_RUN)
        records, wall, probe = closed_loop(handle, ops, spec.clients, seconds, tracer)
        health_ms = []
        if tracer is not None:
            client = ServeClient(handle.host, handle.port, timeout=120.0)
            health_ms = [timed(client.health)[0] * 1000.0 for _ in range(HEALTH_PROBES)]
    finally:
        handle.stop()
    for _ in range(setups - before):
        (elapsed, _, _, spare), scale = speed_around(
            lambda: _setup(spec, seed, queries, tracer)
        )
        spare.stop()
        setup_seconds.append(elapsed)
        setup_scaled.append(elapsed * scale)
    outcome.check(len(records) < len(ops), "the operation list ran out before the time")
    phase = Phase(
        setup_seconds, setup_scaled, database, service, records, wall, probe, ops,
        tracer, health_ms,
    )
    for record in records:
        outcome.attempted += len(ops[record.index].requests)
        if record.error is not None:
            outcome.failed += len(ops[record.index].requests)
            outcome.check(False, f"operation {record.index} failed: {record.error}")
    return phase


# ----------------------------------------------------------- output checks
def exact_counts(spec: ServeSpec, database, queries, outcome: Outcome) -> Dict[str, int]:
    """Exact counts per shape, which every engine in ``check_engines`` must
    agree on."""
    from repro.core import count_answers_exact

    counts = {}
    for query in queries:
        by_engine = {
            engine: count_answers_exact(query, database, engine=engine)
            for engine in spec.check_engines
        }
        outcome.check(
            len(set(by_engine.values())) == 1,
            f"engines disagree on {query}: {by_engine}",
        )
        counts[str(query)] = by_engine[spec.check_engines[0]]
    return counts


@dataclass
class Verified:
    """What checking a phase against the twin service leaves behind."""

    twin: Any
    #: ``(served ms, in-process ms)`` per ``/v1/count`` miss the twin also
    #: executed: the same request timed over the wire and in-process.
    pairs: List[Tuple[float, float]] = field(default_factory=list)
    #: Relative errors of the distinct approximate estimates.
    errors: List[float] = field(default_factory=list)
    #: Requests the twin has answered (so resubmitting them hits its cache).
    answered: List[Any] = field(default_factory=list)


def verify(spec: ServeSpec, phase: Phase, exact: Dict[str, int], outcome: Outcome) -> Verified:
    """Check every served estimate: equal to a twin in-process ``submit``
    of the same request, and equal to the exact count on the exact
    workloads."""
    from repro.obs import activate, span
    from repro.service import CountingService, ServiceConfig

    verified = Verified(
        CountingService(build_database(spec), ServiceConfig(executor="serial"))
    )
    checked_shapes = set()
    seen = set()
    with activate(phase.tracer):
        for record in phase.completed():
            count_miss = record.kind == "count" and record.cache == "miss"
            for request, served in zip(phase.ops[record.index].requests, record.estimates):
                key = (str(request.query), request.seed)
                truth = exact[str(request.query)]
                ok = True
                if spec.epsilon is None:
                    ok = outcome.check(
                        served == truth,
                        f"{request.query} seed {request.seed}: served {served}, "
                        f"exact {truth}",
                    )
                elif key not in seen:
                    verified.errors.append(
                        abs(served - truth) / truth if truth else float(served != 0)
                    )
                seen.add(key)
                if spec.twin_every_request or str(request.query) not in checked_shapes:
                    checked_shapes.add(str(request.query))
                    with span("bench.service.submit"):
                        seconds, local = timed(
                            lambda: verified.twin.submit(request=request)
                        )
                    verified.answered.append(request)
                    if count_miss and local.cache == "miss":
                        verified.pairs.append((record.seconds * 1000.0, seconds * 1000.0))
                    ok = outcome.check(
                        local.estimate == served,
                        f"{request.query} seed {request.seed}: served {served}, "
                        f"in-process {local.estimate}",
                    ) and ok
                if not ok:
                    outcome.failed += 1
    return verified


# ------------------------------------------------------------------ runs
def run(spec: ServeSpec, seed: int, seconds: float, trace: bool) -> Outcome:
    """One benchmark run.  Untraced: ``spec.setups`` set-ups (the median is
    ``setup_s``), the timed loop, then the output checks.  Traced: the same
    loop once untraced and once traced, checked against each other, then
    the layer probes."""
    from repro.obs import Tracer
    from repro.queries import prepared_cache_stats

    outcome = Outcome()
    exact = exact_counts(spec, build_database(spec), parsed_shapes(spec), outcome)
    untraced = run_phase(spec, seed, seconds, None, 1 if trace else spec.setups, outcome)
    checked = verify(spec, untraced, exact, outcome)
    _end_to_end(spec, untraced, checked.errors, outcome)
    loop = f"closed loop, {spec.clients} ServeClient threads"
    outcome.inputs.update(workload_record(spec, loop, untraced.database))
    if not trace:
        return outcome

    outcome.tracer = tracer = Tracer()
    prepared_before = prepared_cache_stats()
    traced = run_phase(spec, seed, seconds, tracer, 1, outcome)
    prepared_after = prepared_cache_stats()
    for before, after in zip(untraced.records, traced.records):
        outcome.check(
            before.error is not None
            or after.error is not None
            or before.estimates == after.estimates,
            f"operation {before.index}: traced {after.estimates} != untraced "
            f"{before.estimates}",
        )
    server_roots = list(tracer.roots)
    traced_checked = verify(spec, traced, exact, outcome)
    _serve_layers(untraced, traced, server_roots, checked, outcome)
    _probe_layers(spec, seed, traced, traced_checked, outcome)
    layers.probe_service_telemetry(
        outcome, traced.service, tracer.roots, prepared_before, prepared_after
    )
    for layer, value in layer_self_ms(tracer.roots).items():
        outcome.note(f"self_ms.{layer}", value, "ms")
    return outcome


def parsed_shapes(spec: ServeSpec) -> List[Any]:
    from repro.queries import parse_query

    return [parse_query(text) for text, _ in spec.shapes]


def _end_to_end(spec: ServeSpec, phase: Phase, errors: List[float], outcome: Outcome) -> None:
    misses = phase.latencies_ms("miss")
    hits = phase.latencies_ms("hit")
    for cache in ("miss", "hit"):
        outcome.samples[cache] = phase.samples_ms(cache)
    outcome.samples["op"] = [(r.ended, r.seconds * 1000.0) for r in phase.completed()]
    outcome.samples["probe"] = phase.probe.samples
    scaled_misses = phase.probe.scaled(outcome.samples["miss"])
    if len(misses) < MIN_MISSES:
        outcome.warnings.append(
            f"only {len(misses)} misses: fewer than 10 samples lie beyond the p90"
        )
    outcome.check(bool(hits), "no cache hit in the run")
    within = (
        sum(1 for error in errors if error <= spec.epsilon) / len(errors)
        if errors
        else 1.0
    )
    outcome.metric("setup_s", median(phase.setup_scaled), "s")
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.metric("ops_per_s", phase.ops_per_s_scaled, "1/s")
    outcome.metric("latency_p50_ms", median(scaled_misses), "ms")
    outcome.metric("latency_p90_ms", percentile(scaled_misses, 90), "ms")
    outcome.metric("hit_p50_ms", median(phase.probe.scaled(outcome.samples["hit"])), "ms")
    outcome.metric("within_eps_share", within, "share")
    outcome.note("probe_p50_ms", phase.probe.median_ms(), "ms")
    outcome.note("raw.setup_s", median(phase.setup_seconds), "s")
    outcome.note("raw.ops_per_s", phase.ops_per_s, "1/s")
    outcome.note("raw.latency_p50_ms", median(misses), "ms")
    outcome.note("raw.latency_p90_ms", percentile(misses, 90), "ms")
    outcome.note("raw.hit_p50_ms", median(hits), "ms")
    outcome.note("requests_per_s", phase.ops_per_s, "1/s")
    outcome.note("miss_p50_ms", median(misses), "ms")
    outcome.note("miss_p90_ms", percentile(misses, 90), "ms")
    outcome.note("misses", len(misses), "count")
    outcome.note("hits", len(hits), "count")
    batches = phase.completed("batch")
    if batches:
        outcome.note("batch_p50_ms", median([r.seconds * 1000.0 for r in batches]), "ms")
        outcome.note("batches", len(batches), "count")
        outcome.note(
            "batches_not_on_process",
            sum(1 for r in batches if r.executed_executor != "process"),
            "count",
        )
    outcome.note("failed_share", ratio(outcome.failed, outcome.attempted), "share")


def _serve_layers(
    untraced: Phase, traced: Phase, server_roots, checked: Verified, outcome: Outcome
) -> None:
    metrics = traced.service.metrics

    def server_p50_ms(endpoint: str) -> float:
        histogram = metrics.histogram("serve.request_seconds", endpoint=endpoint)
        return histogram.quantile(0.5) * 1000.0

    counts = traced.completed("count")
    outcome.note("serve.server_p50_ms", server_p50_ms("/v1/count"), "ms")
    # The client's own share of a round trip, measured on the endpoint that
    # does no work: ServeClient.health() minus the server's dispatch time.
    outcome.note(
        "serve.client_p50_ms",
        median(traced.health_ms) - server_p50_ms("/v1/healthz"),
        "ms",
    )
    outcome.note(
        "serve.wire_overhead_ms",
        median([served - local for served, local in checked.pairs]),
        "ms",
    )
    outcome.note(
        "serve.coalesced_share",
        ratio(sum(1 for r in counts if r.coalesced), len(counts)),
        "share",
    )
    rejections = metrics.snapshot()["counters"].get("serve.rejections", {})
    outcome.note("serve.rejections", sum(rejections.values()), "count")

    # The server records one service.count_batch root per executed request
    # on its pool threads; whatever a client waited beyond those is time no
    # span of the program covers.
    covered = sum(
        root.seconds
        for root in server_roots
        if root.name == "service.count_batch"
        and root.attrs.get("requests") == 1
        and root.attrs.get("cache_misses") == 1
    )
    waited = sum(traced.latencies_ms("miss")) / 1000.0
    outcome.metric(
        "obs.unattributed_share", max(0.0, 1.0 - ratio(covered, waited)), "share"
    )
    outcome.metric(
        "obs.trace_overhead",
        ratio(untraced.ops_per_s, traced.ops_per_s),
        "ratio",
    )


def _probe_layers(
    spec: ServeSpec, seed: int, traced: Phase, checked: Verified, outcome: Outcome
) -> None:
    from repro.obs import activate
    from repro.service import CountingService, CountRequest

    database = traced.database
    queries = parsed_shapes(spec)
    shapes = []
    for query, (_, method) in zip(queries, spec.shapes):
        plan = traced.service.plan(query, method=method)
        shapes.append(layers.Shape(query, plan.scheme, plan.engine))
    batch = [
        CountRequest(
            query=queries[index % len(queries)],
            seed=request_seed(seed, PROBE_OFFSET + index),
            method=spec.shapes[index % len(queries)][1],
            epsilon=spec.epsilon,
            delta=spec.delta,
        )
        for index in range(8)
    ]
    twin, first = checked.twin, checked.answered[0]
    with activate(traced.tracer):
        layers.probe_submit(
            outcome, [local for _, local in checked.pairs], twin, checked.answered
        )
        layers.probe_schema(outcome, first, twin.submit(request=first))
        layers.probe_handoff(
            outcome, lambda: CountingService(database), batch, repeats=2
        )
        layers.probe_core(
            outcome,
            database,
            shapes,
            epsilon=spec.epsilon or 0.2,
            delta=spec.delta or 0.05,
            seed=seed,
        )
        layers.probe_relational(outcome, database, queries, spec.probe_repeats)
        layers.probe_queries(outcome, queries)
