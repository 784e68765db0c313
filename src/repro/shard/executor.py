"""The :class:`ShardExecutor`: run a :class:`ShardCountPlan` and combine.

Single/local plans become :class:`~repro.service.executor.CountTask`s over
the per-shard structures (:func:`shard_count_tasks`) and fan out across the
serial / thread / process back-ends of
:func:`repro.service.executor.run_tasks` — the same pool machinery
(databases shipped once per worker, keyed by structure token) the batch
service uses; :func:`combine_shard_outcomes` multiplies the component
counts back together.  The service's batch calls the same two functions, so
there is one sharded fan-out.  Union plans run the Section-6 machinery over
the tagged database (exactly via
:func:`repro.unions.karp_luby.exact_count_union`, approximately via the
registry's ``union_karp_luby`` scheme); merged plans count the reassembled
monolith.

Seeds: a single-strategy plan passes the request seed through (bit-identical
to the unsharded run); local tasks get ``derive_seed(seed, shard, component)``
so the fan-out is reproducible regardless of back-end or completion order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.registry import EXACT_SCHEMES
from repro.obs.trace import attach, span, tracing_active
from repro.queries.query import ConjunctiveQuery
from repro.relational.csp import DEFAULT_ENGINE
from repro.relational.structure import Structure
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy, run_with_retry
from repro.service.executor import CountTask, TaskOutcome, execute_scheme_result, run_tasks
from repro.shard.plan import ShardCountPlan, ShardTask, component_accuracy, plan_sharded_count
from repro.shard.sharded import ShardedStructure
from repro.util.rng import derive_seed


def shard_task_seed(seed: Optional[int], task: ShardTask) -> Optional[int]:
    """The deterministic seed of one shard task (``None`` stays ``None``)."""
    if seed is None or task.seed_path is None:
        return seed
    return derive_seed(seed, *task.seed_path)


@dataclass(frozen=True)
class ShardCountResult:
    """A sharded count with its provenance."""

    estimate: float
    scheme: str
    strategy: str
    num_components: int
    num_tasks: int
    shards_involved: Tuple[int, ...]
    executed_mode: str
    wall_seconds: float
    #: Per-task ``(shard, component, estimate, seconds)`` rows (single/local).
    task_rows: Tuple[Tuple[int, int, float, float], ...] = ()
    trace: Tuple[str, ...] = field(default_factory=tuple)
    #: Resilience provenance: injected faults absorbed by retries, executor
    #: rungs degraded, shard tasks recounted on the merged view.
    degradations: Tuple[str, ...] = ()
    retries: int = 0

    @property
    def count(self) -> int:
        return int(round(self.estimate))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "estimate": self.estimate,
            "count": self.count,
            "scheme": self.scheme,
            "strategy": self.strategy,
            "num_components": self.num_components,
            "num_tasks": self.num_tasks,
            "shards_involved": list(self.shards_involved),
            "executed_mode": self.executed_mode,
            "wall_seconds": round(self.wall_seconds, 6),
            "trace": list(self.trace),
            "degradations": list(self.degradations),
            "retries": self.retries,
        }


def combine_local_estimates(estimates: List[float]) -> float:
    """Product of per-component counts (components share no variables, so
    answer tuples factor; integer inputs keep an exact integer product)."""
    product: float = 1
    for estimate in estimates:
        product = product * estimate
    return product


def shard_count_tasks(
    plan: ShardCountPlan,
    sharded: ShardedStructure,
    scheme: str,
    engine: str,
    epsilon: float,
    delta: float,
    seed: Optional[int],
    first_index: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    deadline_at: Optional[float] = None,
) -> Tuple[List[CountTask], Dict[int, Structure]]:
    """The fan-out of a single/local plan: one :class:`CountTask` per shard
    task, numbered from ``first_index``, plus the per-shard structures they
    read (keyed by structure token).

    Each task runs at the plan's :func:`component_accuracy` of the request's
    ``(epsilon, delta)`` with its :func:`shard_task_seed`, and is faultable
    at ``shard.count[shard, component]``.  Both the :class:`ShardExecutor`
    and the service's batch (which folds these tasks into its one
    ``run_tasks`` call) build their shard tasks here."""
    task_epsilon, task_delta = component_accuracy(plan, scheme, epsilon, delta)
    traced = tracing_active()
    tasks: List[CountTask] = []
    databases: Dict[int, Structure] = {}
    for offset, shard_task in enumerate(plan.tasks):
        shard_structure = sharded.shards[shard_task.shard]
        databases[shard_structure.structure_token] = shard_structure
        tasks.append(
            CountTask(
                index=first_index + offset,
                query=shard_task.query,
                scheme=scheme,
                engine=engine,
                epsilon=task_epsilon,
                delta=task_delta,
                seed=shard_task_seed(seed, shard_task),
                database_token=shard_structure.structure_token,
                fault_sites=(("shard.count", (shard_task.shard, shard_task.component)),),
                fault_plan=fault_plan,
                retry=retry,
                deadline_at=deadline_at,
                traced=traced,
            )
        )
    return tasks, databases


def combine_shard_outcomes(
    plan: ShardCountPlan,
    outcomes: Sequence[TaskOutcome],
    sharded: ShardedStructure,
    scheme: str,
    engine: str,
    epsilon: float,
    delta: float,
    seed: Optional[int],
    attach_span: Callable[[Any], None] = attach,
) -> Tuple[float, Optional[Dict[str, Any]], List[str], List[TaskOutcome]]:
    """The fan-in of :func:`shard_count_tasks`: ``(estimate, widths, notes,
    repaired outcomes)``.

    Each outcome's worker span goes to ``attach_span`` (by default the open
    span).  A shard task that exhausted its retries (its shard is "down") is
    recounted on the ``merged()`` view with the *same* derived seed and
    component accuracy — the degradation of last resort.  Shards keep the
    full universe and whole relations of their components, so the recount
    is bit-identical to the healthy shard's answer, just not
    shard-parallel.  The estimate is the product of the component counts;
    ``widths`` are the one task's widths, or ``{"components": [...]}``."""
    task_epsilon, task_delta = component_accuracy(plan, scheme, epsilon, delta)
    notes: List[str] = []
    repaired: List[TaskOutcome] = []
    for shard_task, outcome in zip(plan.tasks, outcomes):
        attach_span(outcome.span)
        if outcome.failed:
            started = time.perf_counter()
            result = execute_scheme_result(
                scheme,
                shard_task.query,
                sharded.merged(),
                epsilon=task_epsilon,
                delta=task_delta,
                seed=shard_task_seed(seed, shard_task),
                engine=engine,
            )
            note = (
                f"shard.count[{shard_task.shard}, {shard_task.component}]: "
                f"retries exhausted ({outcome.error}); recounted component on merged view"
            )
            outcome = TaskOutcome(
                index=outcome.index,
                estimate=result.estimate,
                seconds=time.perf_counter() - started,
                widths=result.widths,
                attempts=outcome.attempts,
                degradations=outcome.degradations + (note,),
            )
            notes.append(note)
        else:
            notes.extend(outcome.degradations)
        repaired.append(outcome)
    estimate = combine_local_estimates([outcome.estimate for outcome in repaired])
    if len(repaired) == 1:
        widths = repaired[0].widths
    else:
        widths = {"components": [outcome.widths for outcome in repaired]}
    return estimate, widths, notes, repaired


class ShardExecutor:
    """Plan and execute sharded counts over one :class:`ShardedStructure`."""

    def __init__(
        self,
        mode: str = "process",
        max_workers: Optional[int] = None,
        union_exact_components: bool = True,
        fault_plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.mode = mode
        self.max_workers = max_workers
        #: The failure model (usually handed down by the service): injected
        #: faults, the retry budget, and the shared executor circuit breaker.
        self.fault_plan = fault_plan
        self.retry = retry
        self.breaker = breaker
        #: Approximate union plans run Karp–Luby with exact per-restriction
        #: counts and exactly uniform samples by default (the estimator's
        #: only error is sampling error; each restriction is one shard's
        #: slice, so exact per-component evaluation is cheap).  Set ``False``
        #: to count the restrictions with the paper's FPTRAS/FPRAS schemes
        #: at the tightened per-component ``(epsilon/3, delta/3m)`` — the
        #: Section-6 construction verbatim, far slower.
        self.union_exact_components = union_exact_components

    def count(
        self,
        query: ConjunctiveQuery,
        sharded: ShardedStructure,
        scheme: str = "exact",
        epsilon: float = 0.2,
        delta: float = 0.05,
        seed: Optional[int] = None,
        engine: str = DEFAULT_ENGINE,
        plan: Optional[ShardCountPlan] = None,
        deadline_at: Optional[float] = None,
    ) -> ShardCountResult:
        """Count ``|Ans(query, sharded)|`` with the given scheme.

        ``plan`` may be passed in when the caller already planned (the
        service does); otherwise :func:`plan_sharded_count` runs here.
        ``deadline_at`` (absolute monotonic) rides into every shard task.

        With tracing active the fan-out records a ``shard.count`` span:
        strategy, per-task spans shipped home from pool workers, and one
        event per degradation (retry absorbed, merged-view recount).
        """
        with span("shard.count", scheme=scheme) as shard_span:
            result = self._count_inner(
                query, sharded, scheme, epsilon, delta, seed, engine, plan, deadline_at
            )
            shard_span.set(
                strategy=result.strategy,
                components=result.num_components,
                tasks=result.num_tasks,
                executed_mode=result.executed_mode,
                retries=result.retries,
            )
            for note in result.degradations:
                shard_span.event(note)
        return result

    def _count_inner(
        self,
        query: ConjunctiveQuery,
        sharded: ShardedStructure,
        scheme: str,
        epsilon: float,
        delta: float,
        seed: Optional[int],
        engine: str,
        plan: Optional[ShardCountPlan],
        deadline_at: Optional[float],
    ) -> ShardCountResult:
        started = time.perf_counter()
        if plan is None:
            plan = plan_sharded_count(query, sharded)

        if plan.strategy in ("single", "local"):
            tasks, databases = shard_count_tasks(
                plan, sharded, scheme, engine, epsilon, delta, seed,
                fault_plan=self.fault_plan, retry=self.retry, deadline_at=deadline_at,
            )
            report = run_tasks(
                tasks,
                databases,
                mode=self.mode,
                max_workers=self.max_workers,
                breaker=self.breaker,
            )
            estimate, _, notes, outcomes = combine_shard_outcomes(
                plan, report.outcomes, sharded, scheme, engine, epsilon, delta, seed
            )
            task_epsilon, task_delta = component_accuracy(plan, scheme, epsilon, delta)
            trace = plan.trace
            if (task_epsilon, task_delta) != (epsilon, delta):
                trace += (
                    f"accuracy split over {len(plan.tasks)} components: each runs at "
                    f"epsilon={task_epsilon:.6g}, delta={task_delta:.6g} so the "
                    f"product keeps ({epsilon:g}, {delta:g})",
                )
            rows = tuple(
                (shard_task.shard, shard_task.component, outcome.estimate, outcome.seconds)
                for shard_task, outcome in zip(plan.tasks, outcomes)
            )
            return ShardCountResult(
                estimate=estimate,
                scheme=scheme,
                strategy=plan.strategy,
                num_components=plan.num_components,
                num_tasks=len(tasks),
                shards_involved=plan.shards_involved,
                executed_mode=report.executed_mode,
                wall_seconds=time.perf_counter() - started,
                task_rows=rows,
                trace=trace,
                degradations=tuple(report.degradations) + tuple(notes),
                retries=report.retries,
            )

        # Union and merged plans count inline: the Section-6 union over the
        # tagged database, or the reassembled monolith (the fallback that is
        # correct on any input, not shard-parallel).
        if plan.strategy == "union":
            num_tasks = len(plan.union.queries)

            def count() -> float:
                return self._count_union(
                    plan,
                    scheme,
                    epsilon=epsilon,
                    delta=delta,
                    seed=seed,
                    engine=engine,
                    exact_components=self.union_exact_components,
                )
        else:
            num_tasks = 1

            def count() -> float:
                from repro.core.registry import REGISTRY

                return REGISTRY.count(
                    scheme, query, sharded.merged(),
                    epsilon=epsilon, delta=delta, rng=seed, engine=engine,
                ).estimate

        estimate, trace = run_with_retry(
            count,
            sites=(("shard.count", (plan.strategy,)),),
            policy=self.retry,
            plan=self.fault_plan,
        )
        return ShardCountResult(
            estimate=estimate,
            scheme=scheme,
            strategy=plan.strategy,
            num_components=plan.num_components,
            num_tasks=num_tasks,
            shards_involved=tuple(range(sharded.num_shards)),
            executed_mode=f"{plan.strategy}-inline",
            wall_seconds=time.perf_counter() - started,
            trace=plan.trace,
            degradations=tuple(trace.notes),
            retries=trace.attempts - 1,
        )

    @staticmethod
    def _count_union(
        plan: ShardCountPlan,
        scheme: str,
        epsilon: float,
        delta: float,
        seed: Optional[int],
        engine: str,
        exact_components: bool,
    ) -> float:
        decomposition = plan.union
        if not decomposition.queries:
            # Some positive atom's relation is empty everywhere: no answers.
            return 0 if scheme in EXACT_SCHEMES else 0.0
        if scheme in EXACT_SCHEMES:
            from repro.unions.karp_luby import exact_count_union

            return exact_count_union(decomposition.queries, decomposition.tagged, engine=engine)
        from repro.core.registry import REGISTRY

        return REGISTRY.count_union(
            decomposition.queries,
            decomposition.tagged,
            epsilon=epsilon,
            delta=delta,
            rng=seed,
            engine=engine,
            exact_components=exact_components,
        ).estimate
