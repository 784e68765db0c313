"""The :class:`CountingService` front-end: plan, cache, execute.

The service ties the subsystem together::

    service = CountingService(database, ServiceConfig(executor="process"))
    result = service.submit(CountRequest(query, seed=7))  # one query
    report = service.count_batch(queries, seed=7)     # many, in parallel

Every call goes through four stages:

1. **Prepare** — :func:`repro.queries.prepared.prepare` compiles the query
   (canonical form, hypergraph, lazy widths/decompositions), shared
   process-wide across alpha-renamed shapes.
2. **Plan** — the :class:`~repro.service.plan.Planner` chooses the scheme
   (plan cache: canonical query form + decision inputs), reading the
   prepared widths.
3. **Result cache** — the (canonical query form, database token + version
   fingerprint, scheme, engine, epsilon, delta, seed) key is looked up;
   a hit returns the cached estimate without counting.  Mutating a database
   relation bumps its version counter, which changes the key of every query
   mentioning that relation — stale entries are never served and age out via
   LRU.
4. **Execute** — cache misses become :class:`CountTask`s and run on the
   configured back-end (process pool by default) through the unified
   :data:`repro.core.registry.REGISTRY`; each task's estimate is
   deterministic in its seed alone, so a batch seeded with ``seed=s`` gives
   task ``i`` the seed ``derive_seed(s, i)`` and reproduces the exact
   estimates of serial direct library calls with those seeds.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ProfileStore, label_by_scheme
from repro.obs.trace import Tracer, activate, span, tracing_active
from repro.queries.prepared import prepare
from repro.queries.query import ConjunctiveQuery
from repro.relational.structure import Structure
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultError, FaultPlan
from repro.resilience.retry import Deadline, RetryPolicy
from repro.util.cache import LRUCache

# Imported as a submodule (not the repro.shard package __init__) to stay
# cycle-safe: repro.shard.executor imports repro.service.executor.
from repro.shard.sharded import ShardedStructure
from repro.service.executor import (
    EXECUTOR_MODES,
    CountTask,
    run_tasks,
)
from repro.service.cost import CostModel
from repro.service.keys import database_cache_key
from repro.service.plan import Planner, PlannerConfig, QueryPlan
from repro.util.rng import derive_seed
from repro.util.validation import check_epsilon_delta

#: Ratio buckets for ``planner.prediction_error_ratio`` (actual/predicted —
#: 1.0 means the p95 prediction matched the executed latency exactly).
_RATIO_BUCKETS: Tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 10.0)


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide defaults; per-request values override epsilon/delta/seed."""

    epsilon: float = 0.2
    delta: float = 0.05
    executor: str = "process"
    max_workers: Optional[int] = None  # default: cpu count (min 2)
    result_cache_size: int = 4096
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    #: The failure model (all optional): a deterministic chaos schedule to
    #: inject, the retry budget tasks run under, and a wall-clock budget
    #: (seconds) every batch's tasks must finish within.
    fault_plan: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None
    deadline_seconds: Optional[float] = None
    #: Telemetry (both optional and both zero-RNG — estimates are
    #: bit-identical with telemetry on or off): a tracer to record span trees
    #: onto (None = tracing off, the no-op fast path), and a shared metrics
    #: registry (None = the service creates a private one, isolating tests
    #: and twin services; pass ``repro.obs.METRICS`` to aggregate).
    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    #: Default per-request latency budget (seconds) for the adaptive planner
    #: (``planner.adaptive=True``); ``None`` means unbounded.  Individual
    #: requests override it via ``CountRequest.latency_budget_seconds``.
    latency_budget_seconds: Optional[float] = None
    #: When set, the service loads (merges) the profile snapshot at this
    #: path on construction and :meth:`CountingService.close` saves the
    #: warmed store back — observations survive restarts.  Use the service
    #: as a context manager to get save-on-close for free.
    profile_path: Optional[str] = None

    def __post_init__(self) -> None:
        check_epsilon_delta(self.epsilon, self.delta)
        if self.executor not in EXECUTOR_MODES:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTOR_MODES}"
            )

    def resolved_workers(self) -> int:
        if self.max_workers:
            return max(1, int(self.max_workers))
        return max(2, os.cpu_count() or 2)


@dataclass(frozen=True)
class CountRequest:
    """One query to count — the primary public request shape.

    ``database``/``epsilon``/``delta``/``seed``/``method`` default to the
    service's values when omitted.  This is also the v1 wire schema's
    request object (:mod:`repro.serve.schema`): the server, the sync client,
    the CLI and in-process callers all build the same ``CountRequest`` and
    hand it to :meth:`CountingService.submit` / ``count_batch`` directly.
    """

    query: ConjunctiveQuery
    database: Optional[Structure] = None
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    seed: Optional[int] = None
    method: Optional[str] = None  # planner override, e.g. "exact"
    #: Per-request latency budget for the adaptive planner (seconds);
    #: ``None`` defers to ``ServiceConfig.latency_budget_seconds``.
    latency_budget_seconds: Optional[float] = None
    #: Per-request hard deadline (seconds): the count must finish within
    #: this budget or raise :class:`~repro.resilience.retry.DeadlineExceeded`
    #: (in a batch, the tighter of this and the batch deadline wins).
    #: ``None`` defers to the batch/``ServiceConfig`` deadline.
    deadline_seconds: Optional[float] = None


@dataclass(frozen=True)
class CountResult:
    """A structured counting result with provenance."""

    index: int
    estimate: float
    scheme: str
    query_class: str
    plan: QueryPlan
    seed: Optional[int]
    epsilon: float
    delta: float
    cache: str  # "hit" | "miss" | "bypass"
    plan_seconds: float
    execute_seconds: float
    #: Width parameters the scheme run relied on (from the registry
    #: envelope); ``None`` for cache hits, which skip the scheme run.
    #: Sharded local plans carry the per-component width dicts instead.
    widths: Optional[Dict[str, Any]] = None
    #: The shard strategy (``"single"`` | ``"local"`` | ``"union"`` |
    #: ``"merged"``) when the request's database was sharded and the count
    #: actually ran; ``None`` for monolithic databases and cache hits.
    shard_strategy: Optional[str] = None
    #: Resilience provenance: one note per injected fault absorbed, retry
    #: taken, cache lookup degraded, or shard recounted on the merged view.
    #: Empty for clean runs.
    degradations: Tuple[str, ...] = ()
    #: Serving provenance: ``True`` when this response was coalesced onto
    #: another identical in-flight request (the count ran once and the
    #: estimate is shared).  Always ``False`` for in-process calls; set by
    #: :mod:`repro.serve` on follower responses.
    coalesced: bool = False

    @property
    def count(self) -> int:
        """The estimate rounded to the nearest integer (answer counts are
        integers)."""
        return int(round(self.estimate))


@dataclass
class BatchReport:
    """The results of a :meth:`CountingService.count_batch` call plus the
    batch-level execution/caching summary."""

    results: List[CountResult]
    wall_seconds: float
    requested_executor: str
    executed_executor: str
    max_workers: int
    cache_hits: int
    cache_misses: int
    #: Batch-level resilience summary: executor-ladder degradations plus
    #: every per-result note, and the total retry attempts tasks consumed.
    degradations: List[str] = field(default_factory=list)
    retries: int = 0

    @property
    def throughput_qps(self) -> float:
        return len(self.results) / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def estimates(self) -> List[float]:
        return [result.estimate for result in self.results]


RequestLike = Union[CountRequest, ConjunctiveQuery]


@dataclass
class _Staged:
    """One request's state as it moves through the stages of
    :meth:`CountingService.count_batch`; each stage fills in its fields."""

    index: int
    request: CountRequest  # resolved: database, epsilon, delta, budget set
    seed: Optional[int]
    deadline_at: Optional[float]
    span: Any = None
    query_key: str = ""
    plan: Optional[QueryPlan] = None
    plan_seconds: float = 0.0
    result_key: Any = None
    cache: str = "miss"
    #: Task positions in the batch (single/local shard plans own several).
    slots: range = range(0)
    shard_plan: Any = None
    estimate: Optional[float] = None
    execute_seconds: float = 0.0
    widths: Optional[Dict[str, Any]] = None
    notes: List[str] = field(default_factory=list)
    result: Optional[CountResult] = None


class CountingService:
    """Planning, caching, parallel batch execution — one front door for all
    of the package's counting schemes."""

    def __init__(
        self,
        database: Optional[Structure] = None,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.default_database = database
        self.profiles = ProfileStore()
        if self.config.profile_path and os.path.exists(self.config.profile_path):
            # Warm-start: fold the persisted snapshot in so the adaptive
            # planner starts from past observations instead of cold.
            self.profiles.merge(ProfileStore.load(self.config.profile_path))
        self.cost_model = CostModel(
            self.profiles, min_observations=self.config.planner.min_observations
        )
        self.planner = Planner(config=self.config.planner, cost_model=self.cost_model)
        self.result_cache = LRUCache(self.config.result_cache_size)
        #: One circuit breaker per service instance: executor-rung trips are
        #: remembered across batches, and the "back-end unavailable" warning
        #: fires once per instance rather than once per batch.
        self.breaker = CircuitBreaker()
        #: Per-database streaming state (live subscriptions, plus the change
        #: log of an unsharded database), keyed by structure token;
        #: populated by :meth:`subscribe`.
        self._streams: Dict[int, Any] = {}
        #: Telemetry: the (optional) tracer spans record onto, the metrics
        #: registry every counter/histogram lands in, and the per-(canonical
        #: form, size bucket, scheme) cost profiles fed on every execution.
        self.tracer = self.config.tracer
        self.metrics = self.config.metrics or MetricsRegistry()
        self.metrics.register_collector(
            "cache.plan", lambda: self.planner.cache.stats().to_dict()
        )
        self.metrics.register_collector(
            "cache.result", lambda: self.result_cache.stats().to_dict()
        )
        # The breaker tracks rungs lazily; the tracked_rungs leaf keeps the
        # series present (and scrapable) even before any rung is touched.
        self.metrics.register_collector(
            "breaker",
            lambda: {"tracked_rungs": len(self.breaker.stats()), **self.breaker.stats()},
        )
        self.metrics.register_collector(
            "stream", lambda: {"subscriptions": self._subscription_count()}
        )
        self.metrics.register_collector("profiles", self.profiles.stats)

    def _subscription_count(self) -> int:
        return sum(len(state.subscriptions) for state in self._streams.values())

    # ------------------------------------------------------------- internals
    def resolve(self, request: RequestLike) -> CountRequest:
        """The one request resolution: fill the service defaults (database,
        epsilon, delta, latency budget) into ``request`` and validate its
        accuracy.  ``count_batch``'s first stage, the server's coalescing
        identity and every subscription resolve through here, so they agree
        on what a request means."""
        if isinstance(request, ConjunctiveQuery):
            request = CountRequest(query=request)
        config = self.config
        database = request.database if request.database is not None else self.default_database
        if database is None:
            raise ValueError("request has no database and the service has no default")
        request = replace(
            request,
            database=database,
            epsilon=request.epsilon if request.epsilon is not None else config.epsilon,
            delta=request.delta if request.delta is not None else config.delta,
            latency_budget_seconds=(
                request.latency_budget_seconds
                if request.latency_budget_seconds is not None
                else config.latency_budget_seconds
            ),
        )
        check_epsilon_delta(request.epsilon, request.delta)
        return request

    def result_key(
        self,
        query_key: str,
        request: CountRequest,
        plan: QueryPlan,
        seed: Optional[int],
    ) -> Tuple:
        """The result-cache key of a :meth:`resolve`-d request counted under
        ``plan`` with ``seed``: (canonical query form, database token +
        version fingerprint, scheme, engine, epsilon, delta, seed)."""
        return (
            query_key,
            database_cache_key(request.database, request.query),
            plan.scheme,
            plan.engine,
            request.epsilon,
            request.delta,
            seed,
        )

    def _record_execution(self, record: "_Staged") -> None:
        """Fold one executed count into the telemetry sinks: the per-scheme
        latency histogram and the (canonical form, size bucket, scheme,
        engine) cost profile the adaptive planner will read.  The engine label
        keeps columnar-upgraded runs distinguishable from indexed ones.
        Zero-RNG by construction."""
        plan, seconds = record.plan, record.execute_seconds
        self.metrics.histogram(
            "scheme.latency_seconds", scheme=plan.scheme, engine=plan.engine
        ).observe(seconds)
        self.profiles.record(
            record.query_key,
            record.request.database.size(),
            plan.scheme,
            seconds,
            estimate=record.estimate,
            engine=plan.engine,
        )

    def _score_prediction(self, plan: QueryPlan, seconds: float, span) -> QueryPlan:
        """Predicted-vs-actual accounting: classify the executed latency
        against the plan's predicted cost, fold the verdict into the
        ``planner.predictions{outcome=}`` counter, the
        ``planner.prediction_error_ratio`` histogram, and the request's span
        tree, and return the plan with the accounting attached to its
        ``predicted`` payload.  No-op for plans the adaptive overlay did not
        touch."""
        if plan.predicted is None:
            return plan
        chosen = plan.predicted.get("candidates", {}).get(
            plan.predicted.get("chosen"), {}
        )
        expected = chosen.get("seconds")
        if not expected or expected <= 0.0:
            ratio = None
            outcome = "unscored"
        else:
            ratio = seconds / expected
            if ratio > 2.0:
                outcome = "underestimate"
            elif ratio < 0.5:
                outcome = "overestimate"
            else:
                outcome = "accurate"
        self.metrics.counter("planner.predictions", outcome=outcome).inc()
        if ratio is not None:
            self.metrics.histogram(
                "planner.prediction_error_ratio", boundaries=_RATIO_BUCKETS
            ).observe(ratio)
        span.event(
            "planner.prediction",
            scheme=plan.scheme,
            predicted_seconds=expected,
            actual_seconds=seconds,
            error_ratio=ratio,
            outcome=outcome,
        )
        predicted = dict(plan.predicted)
        predicted.update(
            actual_seconds=seconds, error_ratio=ratio, outcome=outcome
        )
        return replace(plan, predicted=predicted)

    # ---------------------------------------------------------------- public
    def plan(
        self, query: ConjunctiveQuery, database: Optional[Structure] = None,
        method: Optional[str] = None,
        latency_budget_seconds: Optional[float] = None,
    ) -> QueryPlan:
        """Plan a query without executing it (the CLI's ``plan`` command)."""
        request = self.resolve(
            CountRequest(
                query=query,
                database=database,
                method=method,
                latency_budget_seconds=latency_budget_seconds,
            )
        )
        return self.planner.plan(
            request.query,
            request.database,
            override=request.method,
            latency_budget_seconds=request.latency_budget_seconds,
        )

    def submit(self, request: CountRequest) -> CountResult:
        """Count one query synchronously (plan + cache + serial execution).

        ``request`` is the same :class:`CountRequest` the v1 wire API decodes
        to (:mod:`repro.serve.schema`), so in-process and over-the-wire calls
        are one code path.  ``request.deadline_seconds`` bounds the call: the
        deadline propagates into the task (and its shard tasks) and expiry
        raises :class:`~repro.resilience.retry.DeadlineExceeded`.
        ``request.latency_budget_seconds`` is the adaptive planner's budget —
        unlike the hard deadline it never kills a request; it only steers
        scheme choice when ``planner.adaptive`` is on."""
        return self.count_batch([request], executor="serial").results[0]

    def count_batch(
        self,
        requests: Iterable[RequestLike],
        seed: Optional[int] = None,
        executor: Optional[str] = None,
        max_workers: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        deadline_seconds: Optional[float] = None,
    ) -> BatchReport:
        """Count a batch of independent queries, concurrently.

        ``seed`` is the batch master seed: request ``i`` without its own seed
        is counted with ``derive_seed(seed, i)``.  Requests with an explicit
        seed keep it.  Execution back-end and worker count default to the
        service config, as do the failure-model knobs: ``fault_plan``
        injects deterministic chaos, ``retry`` sets the per-task budget, and
        ``deadline_seconds`` stamps an absolute deadline that propagates
        into every task (shard tasks included) — expiry raises
        :class:`~repro.resilience.retry.DeadlineExceeded`.

        Each request moves through the stages resolve → plan → cache lookup
        → enqueue, then the batch's tasks (shard tasks included) run in one
        :func:`~repro.service.executor.run_tasks` call and every request is
        finalized into its :class:`CountResult`.  Cache hits and union/merged
        shard plans (counted inline at enqueue) finalize straight away.

        When the service has a tracer the whole batch records a
        ``service.count_batch`` span tree (per-request plan/cache-lookup
        children, executor rungs, per-task scheme spans shipped home from
        pool workers); metrics and cost profiles are recorded always.
        Telemetry never touches seeds or RNG state — estimates are
        bit-identical with tracing on or off.
        """
        mode = executor if executor is not None else self.config.executor
        workers = (
            max(1, int(max_workers)) if max_workers else self.config.resolved_workers()
        )
        fault_plan = fault_plan if fault_plan is not None else self.config.fault_plan
        retry = retry if retry is not None else self.config.retry
        with activate(self.tracer):
            with span("service.count_batch") as batch_span:
                started = time.perf_counter()
                deadline = Deadline.after(
                    deadline_seconds
                    if deadline_seconds is not None
                    else self.config.deadline_seconds
                )
                deadline_at = None if deadline is None else deadline.expires_at
                staged = [
                    self._resolve_stage(index, request, seed, deadline_at)
                    for index, request in enumerate(requests)
                ]
                tasks: List[CountTask] = []
                databases: Dict[int, Structure] = {}
                degradations: List[str] = []
                pending: List[_Staged] = []
                for record in staged:
                    with span("service.request", index=record.index) as record.span:
                        self._plan_stage(record)
                        if not self._lookup_stage(record, fault_plan):
                            self._enqueue_stage(record, tasks, databases, fault_plan, retry)
                        if record.estimate is None:
                            pending.append(record)
                        else:
                            self._finalize(record, degradations)

                execution = run_tasks(
                    tasks, databases, mode=mode, max_workers=workers, breaker=self.breaker
                )
                if tasks:
                    self.metrics.counter(
                        "executor.batches", mode=execution.executed_mode
                    ).inc()
                    self.metrics.counter("executor.retries").inc(execution.retries)
                degradations.extend(execution.degradations)
                for record in pending:
                    self._collect(record, execution.outcomes)
                    self._finalize(record, degradations)

                cache_hits = sum(record.cache == "hit" for record in staged)
                if tasks:
                    executed = execution.executed_mode
                elif cache_hits < len(staged):
                    executed = "inline"
                else:
                    executed = "cache"
                report = BatchReport(
                    results=[record.result for record in staged],
                    wall_seconds=time.perf_counter() - started,
                    requested_executor=mode,
                    executed_executor=executed,
                    max_workers=workers,
                    cache_hits=cache_hits,
                    cache_misses=len(staged) - cache_hits,
                    degradations=degradations,
                    retries=execution.retries,
                )
                batch_span.set(
                    requests=len(report.results),
                    executor=report.requested_executor,
                    executed=report.executed_executor,
                    cache_hits=report.cache_hits,
                    cache_misses=report.cache_misses,
                    retries=report.retries,
                )
        self.metrics.histogram("service.batch_seconds").observe(report.wall_seconds)
        return report

    # ------------------------------------------------------ pipeline stages
    def _resolve_stage(
        self,
        index: int,
        request: RequestLike,
        batch_seed: Optional[int],
        deadline_at: Optional[float],
    ) -> "_Staged":
        """Resolve: defaults filled in, the task seed derived from the batch
        seed, and the request's own deadline folded into the batch's."""
        request = self.resolve(request)
        if request.seed is not None:
            seed: Optional[int] = request.seed
        elif batch_seed is not None:
            seed = derive_seed(batch_seed, index)
        else:
            seed = None
        # Per-request deadlines (the wire API's deadline_seconds field)
        # tighten — never loosen — the batch deadline.
        if request.deadline_seconds is not None:
            request_deadline = Deadline.after(request.deadline_seconds).expires_at
            deadline_at = (
                request_deadline if deadline_at is None else min(deadline_at, request_deadline)
            )
        return _Staged(index=index, request=request, seed=seed, deadline_at=deadline_at)

    def _plan_stage(self, record: "_Staged") -> None:
        request = record.request
        with span("service.plan") as plan_span:
            plan_started = time.perf_counter()
            # Compile once: the prepared query carries the canonical form and
            # the width/decomposition artifacts the planner and the scheme run
            # both read (shared process-wide across alpha-renamed shapes).
            prepared = prepare(request.query)
            record.query_key = prepared.canonical_key
            plan = self.planner.plan(
                request.query,
                request.database,
                override=request.method,
                prepared=prepared,
                latency_budget_seconds=request.latency_budget_seconds,
            )
            record.plan_seconds = time.perf_counter() - plan_started
            # Attach observed per-scheme costs after the plan-cache fetch, so
            # cached plans never carry stale observations.
            observed = self.profiles.summary(record.query_key, request.database.size())
            if observed:
                plan = replace(plan, observed=observed)
            record.plan = plan
            plan_span.set(
                scheme=plan.scheme,
                query_class=plan.query_class,
                size_class=plan.size_class,
            )

    def _lookup_stage(self, record: "_Staged", fault_plan: Optional[FaultPlan]) -> bool:
        """Cache lookup; ``True`` on a hit (the estimate is then set).

        The cache is best-effort under the failure model: a fault at the
        ``cache.get`` site degrades this lookup to a miss (the count re-runs
        with the same derived seed, so only latency is lost) rather than
        being retried."""
        record.result_key = self.result_key(
            record.query_key, record.request, record.plan, record.seed
        )
        cached = None
        with span("cache.lookup") as cache_span:
            faulted = False
            if fault_plan is not None:
                try:
                    note = fault_plan.apply("cache.get", (record.index,), 0)
                    if note is not None:
                        record.notes.append(note)
                except FaultError as error:
                    faulted = True
                    record.notes.append(
                        f"cache.get[{record.index}]: degraded to miss ({error})"
                    )
                    cache_span.event("degraded to miss", error=str(error))
            if not faulted:
                cached = self.result_cache.get(record.result_key)
            cache_span.set(outcome="hit" if cached is not None else "miss")
        if cached is not None:
            record.cache = "hit"
            record.estimate = cached
        self.metrics.counter("service.requests", cache=record.cache).inc()
        record.span.set(scheme=record.plan.scheme, cache=record.cache)
        return cached is not None

    def _enqueue_stage(
        self,
        record: "_Staged",
        tasks: List[CountTask],
        databases: Dict[int, Structure],
        fault_plan: Optional[FaultPlan],
        retry: Optional[RetryPolicy],
    ) -> None:
        """Turn a cache miss into executor task(s) appended to ``tasks``.

        A monolithic request is one task, faultable at ``executor.task``.  A
        sharded single/local plan appends its shard tasks
        (:func:`~repro.shard.executor.shard_count_tasks`); a union/merged
        plan counts here (:func:`~repro.shard.executor.count_inline`) and
        sets the estimate."""
        request, plan = record.request, record.plan
        database = request.database
        if not isinstance(database, ShardedStructure):
            record.slots = range(len(tasks), len(tasks) + 1)
            databases[database.structure_token] = database
            tasks.append(
                CountTask(
                    index=len(tasks),
                    query=request.query,
                    scheme=plan.scheme,
                    engine=plan.engine,
                    epsilon=request.epsilon,
                    delta=request.delta,
                    seed=record.seed,
                    database_token=database.structure_token,
                    fault_sites=(("executor.task", (record.index,)),),
                    fault_plan=fault_plan,
                    retry=retry,
                    deadline_at=record.deadline_at,
                    traced=tracing_active(),
                )
            )
            return
        from repro.shard.executor import count_inline, shard_count_tasks
        from repro.shard.plan import plan_sharded_count

        record.shard_plan = shard_plan = plan_sharded_count(request.query, database)
        if shard_plan.strategy in ("single", "local"):
            shard_tasks, shard_databases = shard_count_tasks(
                shard_plan, database, plan.scheme, plan.engine,
                request.epsilon, request.delta, record.seed,
                first_index=len(tasks), fault_plan=fault_plan, retry=retry,
                deadline_at=record.deadline_at,
            )
            record.slots = range(len(tasks), len(tasks) + len(shard_tasks))
            tasks.extend(shard_tasks)
            databases.update(shard_databases)
            return
        record.estimate, record.execute_seconds, notes = count_inline(
            shard_plan, request.query, database, plan.scheme, plan.engine,
            request.epsilon, request.delta, record.seed,
            fault_plan=fault_plan, retry=retry, deadline_at=record.deadline_at,
        )
        record.notes.extend(notes)

    def _collect(self, record: "_Staged", outcomes: Sequence[Any]) -> None:
        """Fold the record's task outcomes (worker spans reattached under its
        request span) into its estimate, widths and notes."""
        outcomes = [outcomes[slot] for slot in record.slots]
        if record.shard_plan is None:
            (outcome,) = outcomes
            record.span.attach(outcome.span)
            if outcome.failed:
                raise RuntimeError(
                    f"count of request {record.index} failed after retries: {outcome.error}"
                )
            record.estimate, record.widths = outcome.estimate, outcome.widths
            record.notes.extend(outcome.degradations)
            record.execute_seconds = outcome.seconds
            return
        from repro.shard.executor import combine_shard_outcomes

        request, plan = record.request, record.plan
        record.estimate, record.widths, notes, outcomes = combine_shard_outcomes(
            record.shard_plan, outcomes, request.database, plan.scheme, plan.engine,
            request.epsilon, request.delta, record.seed, attach_span=record.span.attach,
        )
        record.notes.extend(notes)
        record.execute_seconds = sum(outcome.seconds for outcome in outcomes)

    def _finalize(self, record: "_Staged", degradations: List[str]) -> None:
        """The one place a :class:`CountResult` is built.  A counted (not
        cached) estimate is first put in the result cache, recorded in the
        telemetry sinks and scored against the plan's prediction."""
        plan = record.plan
        if record.cache == "miss":
            self.result_cache.put(record.result_key, record.estimate)
            self._record_execution(record)
            plan = self._score_prediction(plan, record.execute_seconds, record.span)
        degradations.extend(record.notes)
        record.result = CountResult(
            index=record.index,
            estimate=record.estimate,
            scheme=plan.scheme,
            query_class=plan.query_class,
            plan=plan,
            seed=record.seed,
            epsilon=record.request.epsilon,
            delta=record.request.delta,
            cache=record.cache,
            plan_seconds=record.plan_seconds,
            execute_seconds=record.execute_seconds,
            widths=record.widths,
            shard_strategy=None if record.shard_plan is None else record.shard_plan.strategy,
            degradations=tuple(record.notes),
        )

    # ------------------------------------------------------------- streaming
    def subscribe(
        self,
        request: RequestLike,
        refresh: str = "eager",
        debounce_ticks: int = 4,
        budget_seconds: float = 1.0,
    ):
        """Open a live handle on one query's count (see
        :mod:`repro.stream.live`).

        The returned :class:`~repro.stream.live.CountSubscription` serves
        untouched-relation updates from its fingerprint for free and folds
        touched-relation updates in per the ``refresh`` policy (``"eager"``,
        ``"debounced"`` or ``"budget"``) — delta-patching exact schemes
        through the database's shared change log, re-estimating approximate
        ones through the registry with deterministically derived seeds.  On
        a :class:`~repro.shard.sharded.ShardedStructure` it is the
        :class:`~repro.shard.subscription.ShardSubscription` subclass, which
        recounts only the components on touched shards.
        """
        from repro.queries.canonical import query_relation_names
        from repro.stream.live import CountSubscription, _StreamState

        resolved = self.resolve(request)
        if isinstance(resolved.database, ShardedStructure):
            # Sharded databases have no change log; the subscription keeps one
            # fingerprint per query component on its owning shard, so only
            # touched shards recount (see repro.shard.subscription).
            from repro.shard.subscription import ShardSubscription as subscription_class
        else:
            subscription_class = CountSubscription
        token = resolved.database.structure_token
        state = self._streams.get(token)
        if state is None:
            state = _StreamState(resolved.database)
            self._streams[token] = state
        # Watch the query's relations before the subscription takes its
        # first fingerprint, so the shared change log records them from the
        # start; undo everything if construction fails (bad policy, invalid
        # query/database pairing) — a failed subscribe must not leave an
        # attached observer behind.
        relations = query_relation_names(resolved.query)
        state.watch(relations)
        try:
            subscription = subscription_class(
                self,
                resolved,
                state,
                refresh=refresh,
                debounce_ticks=debounce_ticks,
                budget_seconds=budget_seconds,
            )
        except BaseException:
            state.unwatch(relations)
            if not state.subscriptions:
                if state.changelog is not None:
                    state.changelog.detach()
                self._streams.pop(token, None)
            raise
        state.subscriptions.append(subscription)
        return subscription

    def _drop_subscription(self, subscription) -> None:
        """Called by :meth:`CountSubscription.close`; detaches the change log
        and forgets the stream state with the last subscription."""
        token = subscription._database.structure_token
        state = self._streams.get(token)
        if state is not None and state.discard(subscription):
            del self._streams[token]

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Persist the warmed profile store to ``config.profile_path`` (when
        configured).  Idempotent; safe to call on a service that recorded
        nothing.  The context-manager protocol calls this on exit."""
        if self.config.profile_path:
            self.profiles.save(self.config.profile_path)

    def __enter__(self) -> "CountingService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def evict(self, database: Structure) -> int:
        """Drop every result-cache entry keyed to ``database`` (any
        fingerprint), returning how many were dropped.

        Version-fingerprinted keys already guarantee stale entries are never
        *served*; this reclaims the capacity they occupy, which matters for
        long streams of mutations where dead fingerprints pile up faster
        than LRU churn retires them.
        """
        token = database.structure_token

        def keyed_to_database(key) -> bool:
            return (
                isinstance(key, tuple)
                and len(key) >= 2
                and isinstance(key[1], tuple)
                and len(key[1]) == 2
                and key[1][0] == token
            )

        return self.result_cache.invalidate_where(keyed_to_database)

    def stats(self) -> Dict[str, Any]:
        """One nested snapshot keyed by subsystem, rebuilt on the metrics
        registry: cache hit/miss/eviction statistics, executor mode tallies
        and breaker state, per-scheme latency sketches, stream subscription
        counts, and the cost-profile store's aggregates."""
        metrics = self.metrics
        batches = {
            labels.get("mode", ""): value
            for labels, value in metrics.series("counters", "executor.batches")
        }
        retries = sum(value for _, value in metrics.series("counters", "executor.retries"))
        schemes = label_by_scheme(
            (labels.get("scheme", ""), labels.get("engine", ""), sketch)
            for labels, sketch in metrics.series("histograms", "scheme.latency_seconds")
        )
        return {
            "caches": {
                "plan": self.planner.cache.stats().to_dict(),
                "result": self.result_cache.stats().to_dict(),
            },
            "executor": {
                "breaker": self.breaker.stats(),
                "batches": batches,
                "retries": int(retries),
            },
            "schemes": schemes,
            "stream": {"subscriptions": self._subscription_count()},
            "profiles": self.profiles.stats(),
        }
