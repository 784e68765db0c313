"""Batch task execution: serial, thread-pool, and process-pool back-ends.

Counting is CPU-bound pure Python, so the parallel back-end of choice is a
``concurrent.futures.ProcessPoolExecutor``; a thread back-end is provided for
environments where spawning processes is not allowed (it interleaves rather
than parallelises, but exercises the same code path), and ``serial`` is the
baseline the throughput benches compare against.

Determinism: every task carries its own integer seed (derived by the service
via :func:`repro.util.rng.derive_seed`), and each scheme builds a fresh
generator from it — so the estimate of a task depends only on its payload,
never on which back-end ran it or in which order.  The failure model keeps
that contract: a task that faults is retried *in the worker* with the same
payload and therefore the same seed, so a recovered batch is bit-identical
to a fault-free one.

Worker processes receive the batch's databases **once**, through the pool
initializer, keyed by structure token; task payloads then reference databases
by token instead of re-pickling them per task (the fault plan and retry
policy ride along inside each task — both are frozen primitive dataclasses,
so the per-task pickle cost stays negligible).

Back-end failures walk the degradation ladder **process → thread → serial**
(:data:`repro.resilience.breaker.EXECUTOR_LADDER`): if creating or using the
process pool fails (sandboxed environments commonly forbid the required
semaphores), the batch re-runs on the thread pool, and only if that too is
unavailable does it run serially.  A :class:`CircuitBreaker` passed by the
service remembers trips across batches (and dedupes the unavailable warning
to once per service instance); bare ``run_tasks`` calls warn on every
degradation, as before.
"""

from __future__ import annotations

import multiprocessing
import time
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.registry import REGISTRY, CountResult as SchemeCountResult
from repro.obs.trace import Span, Tracer, activate, span
from repro.queries.query import ConjunctiveQuery
from repro.relational.structure import Structure
from repro.resilience.breaker import EXECUTOR_LADDER, CircuitBreaker
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import (
    Deadline,
    FaultSites,
    RetriesExhausted,
    RetryPolicy,
    run_with_retry,
)

EXECUTOR_MODES = ("serial", "thread", "process")


@dataclass(frozen=True)
class CountTask:
    """One unit of work: count one query over one database with one scheme.

    The resilience fields default to "no failure model": ``fault_plan=None``
    means no injection and a single attempt (unless a ``retry`` policy asks
    for more).  ``fault_sites`` names this task's injection points; empty
    resolves to ``(("executor.task", (index,)),)``.  ``deadline_at`` is an
    absolute :func:`time.monotonic` timestamp (monotonic is system-wide on
    Linux, so the value stamped by the service front-end is meaningful
    inside same-host pool workers)."""

    index: int
    query: ConjunctiveQuery
    scheme: str
    engine: str
    epsilon: float
    delta: float
    seed: Optional[int]
    database_token: int
    fault_sites: FaultSites = ()
    fault_plan: Optional[FaultPlan] = None
    retry: Optional[RetryPolicy] = None
    deadline_at: Optional[float] = None
    #: Whether the submitting context had tracing active.  Pool workers start
    #: with an empty context, so the flag (not a context variable) tells them
    #: to run under a worker-local tracer; the finished span rides back on
    #: the outcome and is reattached to the request span by the service.
    traced: bool = False

    def resolved_sites(self) -> FaultSites:
        return self.fault_sites or (("executor.task", (self.index,)),)


@dataclass(frozen=True)
class TaskOutcome:
    """What came back: the estimate, how long the scheme took, the width
    parameters the scheme run relied on (from the registry envelope), and
    the task's resilience provenance — how many attempts it took, any
    injected-fault/retry notes, and (if retries were exhausted) the error
    instead of an estimate."""

    index: int
    estimate: float
    seconds: float
    widths: Dict[str, Any] = field(default_factory=dict)
    attempts: int = 1
    degradations: Tuple[str, ...] = ()
    error: Optional[str] = None
    #: The task's ``executor.task`` span tree (only when the task was
    #: ``traced``): recorded by a worker-local tracer, pickled home with the
    #: outcome, and reattached under the request span by the service.
    span: Optional[Span] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def _run_task(task: CountTask, database: Structure) -> TaskOutcome:
    """Run one task under the failure model, retrying *in place* so the pool
    plumbing stays a plain ``map``.

    Every retry re-runs with the task's own seed — bit-identical recovery.
    Exhausted retries become an error-carrying outcome rather than an
    exception: the caller (service or shard executor) decides per task
    whether a fallback exists (shard merged-view recount) or the batch
    fails.  An expired deadline, by contrast, *raises* — there is no point
    finishing a batch nobody is waiting for.

    Traced tasks run under a worker-local tracer (pool workers have no
    context to inherit); the finished ``executor.task`` span — scheme run,
    retry/fault events, attempt count — is shipped home on the outcome."""
    if not task.traced:
        return _run_task_untraced(task, database)
    tracer = Tracer()
    with activate(tracer):
        with span(
            "executor.task",
            index=task.index,
            scheme=task.scheme,
            engine=task.engine,
            seed=task.seed,
        ) as task_span:
            outcome = _run_task_untraced(task, database)
            task_span.set(
                attempts=outcome.attempts,
                seconds=round(outcome.seconds, 9),
                failed=outcome.failed,
            )
            for note in outcome.degradations:
                task_span.event(note)
    return replace(outcome, span=tracer.roots[0] if tracer.roots else None)


def _run_task_untraced(task: CountTask, database: Structure) -> TaskOutcome:
    started = time.perf_counter()
    deadline = (
        None if task.deadline_at is None else Deadline(expires_at=task.deadline_at)
    )

    def operation() -> SchemeCountResult:
        return REGISTRY.count(
            task.scheme,
            task.query,
            database,
            epsilon=task.epsilon,
            delta=task.delta,
            rng=task.seed,
            engine=task.engine,
        )

    try:
        result, trace = run_with_retry(
            operation,
            sites=task.resolved_sites(),
            policy=task.retry,
            plan=task.fault_plan,
            deadline=deadline,
        )
    except RetriesExhausted as error:
        return TaskOutcome(
            index=task.index,
            estimate=float("nan"),
            seconds=time.perf_counter() - started,
            attempts=error.attempts,
            degradations=(str(error),),
            error=str(error),
        )
    return TaskOutcome(
        index=task.index,
        estimate=result.estimate,
        seconds=time.perf_counter() - started,
        widths=result.widths,
        attempts=trace.attempts,
        degradations=tuple(trace.notes),
    )


# ------------------------------------------------------------ process workers
#: Databases of the current batch, installed in each worker by the pool
#: initializer (on fork platforms this is inherited copy-on-write).
_WORKER_DATABASES: Dict[int, Structure] = {}


def _init_worker(databases: Dict[int, Structure]) -> None:
    _WORKER_DATABASES.clear()
    _WORKER_DATABASES.update(databases)


def _run_task_in_worker(task: CountTask) -> TaskOutcome:
    return _run_task(task, _WORKER_DATABASES[task.database_token])


@dataclass
class ExecutionReport:
    """The outcomes (in task order) plus how they were actually executed:
    ``degradations`` records back-end rungs skipped or abandoned (per-task
    retry notes live on the outcomes), ``retries`` totals the extra attempts
    tasks needed."""

    outcomes: List[TaskOutcome]
    requested_mode: str
    executed_mode: str
    max_workers: int
    wall_seconds: float
    degradations: List[str] = field(default_factory=list)
    retries: int = 0


class ExecutorUnavailable(RuntimeError):
    """A back-end could not start or died beneath the batch (infrastructure
    failure, not a task failure) — the signal to step down the ladder."""

    def __init__(self, mode: str, cause: BaseException) -> None:
        super().__init__(f"{mode} executor unavailable ({type(cause).__name__}: {cause})")
        self.mode = mode
        self.cause = cause


def _run_serial(tasks: Sequence[CountTask], databases: Dict[int, Structure]) -> List[TaskOutcome]:
    return [_run_task(task, databases[task.database_token]) for task in tasks]


def _run_thread(
    tasks: Sequence[CountTask], databases: Dict[int, Structure], workers: int
) -> List[TaskOutcome]:
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = []
        try:
            for task in tasks:
                futures.append(
                    pool.submit(_run_task, task, databases[task.database_token])
                )
        except RuntimeError as error:  # "can't start new thread"
            for future in futures:
                future.cancel()
            raise ExecutorUnavailable("thread", error) from error
        # future.result() re-raises task exceptions unchanged (deadline
        # expiry must abort the batch, not degrade it).
        return [future.result() for future in futures]


def _run_process(
    tasks: Sequence[CountTask], databases: Dict[int, Structure], workers: int
) -> List[TaskOutcome]:
    # Only pool-infrastructure failures are ladder-worthy: sandboxed
    # environments commonly have no usable multiprocessing start method at
    # all (get_context raises), or forbid the required semaphores (OSError
    # at pool creation), and a crashed worker raises BrokenExecutor.  An
    # exception raised *by a task* propagates unchanged, as it would
    # serially — hence the preflight is separate from the pool, so a
    # RuntimeError raised by a task inside pool.map is not mistaken for an
    # unavailable start method.
    try:
        multiprocessing.get_context()
    except (ValueError, RuntimeError, OSError) as error:
        raise ExecutorUnavailable("process", error) from error
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(dict(databases),),
        ) as pool:
            return list(pool.map(_run_task_in_worker, tasks, chunksize=1))
    except (OSError, BrokenExecutor) as error:
        raise ExecutorUnavailable("process", error) from error


_BACKENDS = {"serial": None, "thread": _run_thread, "process": _run_process}


def run_tasks(
    tasks: Sequence[CountTask],
    databases: Dict[int, Structure],
    mode: str = "process",
    max_workers: Optional[int] = None,
    breaker: Optional[CircuitBreaker] = None,
) -> ExecutionReport:
    """Execute ``tasks`` with the requested back-end, returning outcomes in
    task order.  Back-end failures degrade down the process→thread→serial
    ladder; a ``breaker`` (normally the service's) skips rungs whose circuit
    is open and dedupes the degradation warning to once per breaker."""
    if mode not in EXECUTOR_MODES:
        raise ValueError(f"unknown executor mode {mode!r}; expected one of {EXECUTOR_MODES}")
    workers = max(1, int(max_workers)) if max_workers else 2
    with span("executor.run_tasks", mode=mode, tasks=len(tasks)) as batch_span:
        report = _run_tasks_inner(tasks, databases, mode, workers, breaker)
        batch_span.set(
            executed_mode=report.executed_mode,
            retries=report.retries,
            degradations=len(report.degradations),
        )
        for note in report.degradations:
            batch_span.event(note)
    return report


def _run_tasks_inner(
    tasks: Sequence[CountTask],
    databases: Dict[int, Structure],
    mode: str,
    workers: int,
    breaker: Optional[CircuitBreaker],
) -> ExecutionReport:
    started = time.perf_counter()
    degradations: List[str] = []
    executed_mode = mode

    if mode == "serial" or workers == 1 or len(tasks) <= 1:
        outcomes: Optional[List[TaskOutcome]] = _run_serial(tasks, databases)
        executed_mode = "serial"
    else:
        rungs = (
            breaker.plan_modes(mode)
            if breaker is not None
            else EXECUTOR_LADDER[EXECUTOR_LADDER.index(mode):]
        )
        outcomes = None
        for position, rung in enumerate(rungs):
            try:
                if rung == "serial":
                    outcomes = _run_serial(tasks, databases)
                else:
                    outcomes = _BACKENDS[rung](tasks, databases, workers)
            except ExecutorUnavailable as error:
                next_rung = rungs[position + 1] if position + 1 < len(rungs) else "serial"
                degradations.append(f"executor: {error}; degrading to {next_rung}")
                if breaker is not None:
                    breaker.record_failure(rung)
                if breaker is None or breaker.should_warn(f"executor.{rung}"):
                    warnings.warn(
                        f"{error}; falling back to {next_rung} execution",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                continue
            executed_mode = rung if rung == mode else f"{rung}-fallback"
            if breaker is not None:
                breaker.record_success(rung)
            break
        if outcomes is None:  # every rung skipped/failed; serial is the floor
            outcomes = _run_serial(tasks, databases)
            executed_mode = "serial-fallback"

    return ExecutionReport(
        outcomes=list(outcomes),
        requested_mode=mode,
        executed_mode=executed_mode,
        max_workers=workers,
        wall_seconds=time.perf_counter() - started,
        degradations=degradations,
        retries=sum(max(0, outcome.attempts - 1) for outcome in outcomes),
    )
