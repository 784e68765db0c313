"""Sharded counting: the fan-out helpers of the service's staged pipeline.

:class:`~repro.service.service.CountingService` is the one driver of a
sharded count; this module holds what it calls per plan strategy.
Single/local plans become :class:`~repro.service.executor.CountTask`s over
the per-shard structures (:func:`shard_count_tasks`), which the service
folds into its batch's one :func:`repro.service.executor.run_tasks` call —
the same serial / thread / process back-ends, databases shipped once per
worker keyed by structure token; :func:`combine_shard_outcomes` multiplies
the component counts back together.  Union and merged plans count in the
calling thread (:func:`count_inline`): the Section-6 machinery over the
tagged database, or the reassembled monolith.

Seeds: a single-strategy plan passes the request seed through (bit-identical
to the unsharded run); local tasks get ``derive_seed(seed, shard, component)``
so the fan-out is reproducible regardless of back-end or completion order.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.registry import EXACT_SCHEMES, REGISTRY
from repro.obs.trace import attach, span, tracing_active
from repro.queries.query import ConjunctiveQuery
from repro.relational.structure import Structure
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import Deadline, RetryPolicy, run_with_retry
from repro.service.executor import CountTask, TaskOutcome
from repro.shard.plan import ShardCountPlan, ShardTask
from repro.shard.sharded import ShardedStructure
from repro.util.estimation import PRODUCT, Budget
from repro.util.rng import derive_seed


def shard_task_seed(seed: Optional[int], task: ShardTask) -> Optional[int]:
    """The deterministic seed of one shard task (``None`` stays ``None``)."""
    if seed is None or task.seed_path is None:
        return seed
    return derive_seed(seed, *task.seed_path)


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

    Each task runs at the plan's :meth:`~ShardCountPlan.task_budget` of the
    request's ``(epsilon, delta)`` with its :func:`shard_task_seed`, and is
    faultable at ``shard.count[shard, component]``.  The service's batch
    folds these tasks into its one ``run_tasks`` call."""
    task_budget = plan.task_budget(scheme, Budget(epsilon, delta))
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
                epsilon=task_budget.epsilon,
                delta=task_budget.delta,
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
    task budget — the degradation of last resort.  Shards keep the full
    universe and whole relations of their components, so the recount is
    bit-identical to the healthy shard's answer, just not shard-parallel.
    The estimate is the product of the component counts; ``widths`` are
    the one task's widths, or ``{"components": [...]}``."""
    budget = Budget(epsilon, delta)
    task_budget = plan.task_budget(scheme, budget)
    notes: List[str] = []
    repaired: List[TaskOutcome] = []
    for shard_task, outcome in zip(plan.tasks, outcomes):
        attach_span(outcome.span)
        if outcome.failed:
            started = time.perf_counter()
            result = REGISTRY.count(
                scheme,
                shard_task.query,
                sharded.merged(),
                epsilon=task_budget.epsilon,
                delta=task_budget.delta,
                rng=shard_task_seed(seed, shard_task),
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
    if task_budget != budget:
        task_budget.spend("shard.product", len(plan.tasks), kind=PRODUCT)
    if len(repaired) == 1:
        widths = repaired[0].widths
    else:
        widths = {"components": [outcome.widths for outcome in repaired]}
    return estimate, widths, notes, repaired


def count_inline(
    plan: ShardCountPlan,
    query: ConjunctiveQuery,
    sharded: ShardedStructure,
    scheme: str,
    engine: str,
    epsilon: float,
    delta: float,
    seed: Optional[int],
    fault_plan: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    deadline_at: Optional[float] = None,
) -> Tuple[float, float, Tuple[str, ...]]:
    """Count a union or merged plan in the calling thread: ``(estimate,
    seconds, notes)``.

    A union plan runs the Section-6 machinery over the tagged database:
    exactly via :func:`~repro.unions.karp_luby.exact_count_union`, or
    approximately via the registry's ``union_karp_luby`` with exact
    per-restriction counts and exactly uniform samples (each restriction is
    one shard's slice, so exact evaluation is cheap and the estimator's only
    error is sampling error).  A merged plan counts the reassembled
    monolith — correct on any input, not shard-parallel.

    The count is one retryable operation at the ``shard.count[strategy]``
    fault site, bounded by ``deadline_at`` (absolute monotonic), and records
    a ``shard.count`` span with one event per absorbed fault."""
    started = time.perf_counter()
    if plan.strategy == "union":
        decomposition = plan.union
        num_tasks = len(decomposition.queries)

        def count() -> float:
            if not decomposition.queries:
                # Some positive atom's relation is empty everywhere: no answers.
                return 0 if scheme in EXACT_SCHEMES else 0.0
            if scheme in EXACT_SCHEMES:
                from repro.unions.karp_luby import exact_count_union

                return exact_count_union(
                    decomposition.queries, decomposition.tagged, engine=engine
                )
            return REGISTRY.count_union(
                decomposition.queries,
                decomposition.tagged,
                epsilon=epsilon,
                delta=delta,
                rng=seed,
                engine=engine,
                exact_components=True,
            ).estimate
    else:
        num_tasks = 1

        def count() -> float:
            return REGISTRY.count(
                scheme, query, sharded.merged(),
                epsilon=epsilon, delta=delta, rng=seed, engine=engine,
            ).estimate

    with span("shard.count", scheme=scheme) as shard_span:
        estimate, trace = run_with_retry(
            count,
            sites=(("shard.count", (plan.strategy,)),),
            policy=retry,
            plan=fault_plan,
            deadline=None if deadline_at is None else Deadline(expires_at=deadline_at),
        )
        shard_span.set(
            strategy=plan.strategy,
            components=plan.num_components,
            tasks=num_tasks,
            executed_mode=f"{plan.strategy}-inline",
            retries=trace.attempts - 1,
        )
        for note in trace.notes:
            shard_span.event(note)
    return estimate, time.perf_counter() - started, tuple(trace.notes)
