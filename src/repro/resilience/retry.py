"""Bounded retries, deadlines, and the shared retry loop.

The determinism contract: a retried attempt re-runs the *same* operation
with the *same* derived seed, so a task that crashes once and succeeds on
retry produces the exact estimate of a fault-free run.  Only injected faults
(:class:`~repro.resilience.faults.FaultError`) are treated as transient —
genuine task errors are deterministic (a bad query fails identically on
every attempt) and propagate unchanged.

Backoff jitter is deterministic too: the jittered fraction of each delay is
a stable hash of the operation's site/key/attempt, not fresh entropy, so a
chaos replay sleeps the same schedule it slept the first time.

Deadlines are absolute :func:`time.monotonic` timestamps.  On Linux the
monotonic clock is system-wide, so a deadline stamped by the service
front-end is meaningful inside pool worker processes on the same host —
which is all the current executors span (the ROADMAP's multi-node transport
will need a wire-level budget instead, and gets one honest building block
here: remaining-time propagation, checked between attempts).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.resilience.faults import FaultError, FaultKey, FaultPlan
from repro.util.hashing import stable_fraction

#: Injection points of one operation: ``((site, key), ...)``.
FaultSites = Tuple[Tuple[str, FaultKey], ...]


class RetriesExhausted(RuntimeError):
    """Every attempt of an operation faulted; carries the last fault."""

    def __init__(self, site: str, key: FaultKey, attempts: int, last: BaseException) -> None:
        super().__init__(
            f"{site}{list(key)}: {attempts} attempt(s) exhausted "
            f"({type(last).__name__}: {last})"
        )
        self.site = site
        self.key = tuple(key)
        self.attempts = attempts
        self.last = last


class DeadlineExceeded(RuntimeError):
    """The request's deadline expired before the operation completed."""


@dataclass(frozen=True)
class Deadline:
    """An absolute point on the monotonic clock a request must finish by."""

    expires_at: float

    @classmethod
    def after(cls, seconds: Optional[float]) -> Optional["Deadline"]:
        """A deadline ``seconds`` from now (``None`` stays ``None``)."""
        if seconds is None:
            return None
        if not seconds > 0:  # NaN compares false both ways
            raise ValueError("deadline seconds must be positive")
        return cls(expires_at=time.monotonic() + float(seconds))

    def remaining(self) -> float:
        return self.expires_at - time.monotonic()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic exponential backoff.

    ``max_attempts`` counts the first try; ``timeout_seconds`` is the
    per-attempt watchdog hint handed to injected hangs (a hang sleeps at
    most this long before raising).  ``jitter`` spreads each backoff delay
    by up to that fraction, derived from the operation key — reproducible,
    unlike random jitter, yet still decorrelating distinct tasks.
    """

    max_attempts: int = 3
    base_delay_seconds: float = 0.0
    backoff_factor: float = 2.0
    max_delay_seconds: float = 0.25
    jitter: float = 0.0
    timeout_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_seconds < 0 or self.max_delay_seconds < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be at least 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")

    def backoff_delay(self, attempt: int, site: str = "", key: FaultKey = ()) -> float:
        """The delay before retry number ``attempt + 1`` (deterministic)."""
        if self.base_delay_seconds <= 0:
            return 0.0
        delay = min(
            self.base_delay_seconds * (self.backoff_factor**attempt),
            self.max_delay_seconds,
        )
        if self.jitter > 0:
            delay *= 1.0 - self.jitter * stable_fraction(site, tuple(key), attempt)
        return delay


#: The policy used whenever a fault plan is active but no policy was given:
#: enough attempts to absorb the chaos harness's one-fault-per-site default.
DEFAULT_RETRY_POLICY = RetryPolicy(max_attempts=3)


@dataclass
class RetryTrace:
    """What one resilient operation went through: attempts and provenance
    notes (one human-readable string per fault seen, latency paid, or
    backoff slept)."""

    attempts: int = 1
    notes: List[str] = field(default_factory=list)

    @property
    def retried(self) -> bool:
        return self.attempts > 1


def run_with_retry(
    operation: Callable[[], Any],
    sites: FaultSites,
    policy: Optional[RetryPolicy] = None,
    plan: Optional[FaultPlan] = None,
    deadline: Optional[Deadline] = None,
    sleeper: Callable[[float], None] = time.sleep,
    retryable: Tuple[type, ...] = (FaultError,),
) -> Tuple[Any, RetryTrace]:
    """Run ``operation`` under the failure model, returning
    ``(value, trace)``.

    Before each attempt the fault plan (if any) is applied at every listed
    ``(site, key)`` injection point; a raised fault consumes one attempt,
    backs off per the policy, and retries.  Exhausting ``max_attempts``
    raises :class:`RetriesExhausted`; an expired deadline raises
    :class:`DeadlineExceeded` instead of starting another attempt.  Errors
    outside ``retryable`` propagate unchanged — determinism means genuine
    failures do not deserve retries.
    """
    if policy is None:
        policy = DEFAULT_RETRY_POLICY if plan is not None else RetryPolicy(max_attempts=1)
    primary_site, primary_key = sites[0] if sites else ("", ())
    trace = RetryTrace()
    attempt = 0
    while True:
        if deadline is not None and deadline.expired:
            raise DeadlineExceeded(
                f"{primary_site}{list(primary_key)}: deadline expired before "
                f"attempt {attempt}"
            )
        trace.attempts = attempt + 1
        try:
            if plan is not None:
                timeout_hint = policy.timeout_seconds
                if deadline is not None:
                    remaining = max(0.0, deadline.remaining())
                    timeout_hint = (
                        remaining if timeout_hint is None else min(timeout_hint, remaining)
                    )
                for site, key in sites:
                    note = plan.apply(
                        site, key, attempt, timeout_hint=timeout_hint, sleeper=sleeper
                    )
                    if note is not None:
                        trace.notes.append(note)
            return operation(), trace
        except retryable as error:
            trace.notes.append(
                f"{getattr(error, 'site', primary_site)}"
                f"{list(getattr(error, 'key', primary_key))}: "
                f"{type(error).__name__} on attempt {attempt + 1}/{policy.max_attempts}"
            )
            if attempt + 1 >= policy.max_attempts:
                raise RetriesExhausted(primary_site, primary_key, attempt + 1, error) from error
            delay = policy.backoff_delay(attempt, primary_site, primary_key)
            if deadline is not None:
                delay = min(delay, max(0.0, deadline.remaining()))
            if delay > 0:
                sleeper(delay)
                trace.notes.append(
                    f"{primary_site}{list(primary_key)}: backed off {delay:.3f}s"
                )
            attempt += 1


def describe_sites(sites: Sequence[Tuple[str, FaultKey]]) -> str:
    """A compact human-readable rendering of an operation's fault sites."""
    return ", ".join(f"{site}{list(key)}" for site, key in sites)


__all__ = [
    "Deadline",
    "DeadlineExceeded",
    "RetriesExhausted",
    "RetryPolicy",
    "RetryTrace",
    "DEFAULT_RETRY_POLICY",
    "run_with_retry",
    "describe_sites",
    "FaultSites",
]
