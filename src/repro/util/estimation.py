"""The (epsilon, delta) budget of an approximation scheme, and its ledger.

The paper's algorithms return *(epsilon, delta)-approximations*: random
variables X with Pr(|X - V| <= epsilon * V) >= 1 - delta (Section 1.1).  A
scheme built out of randomised sub-steps keeps that promise only if their
budgets add up, so child budgets come only from :class:`Budget`'s methods,
and every leaf that spends budget records it with :meth:`Budget.spend` in
the :func:`budget_ledger` open around it.  Recording draws no random
numbers, so it never moves an estimate.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from repro.util.validation import check_epsilon_delta

#: Ledger row kinds: a leaf that spends its delta each time it runs; a leaf
#: whose accuracy is not derived from its budget; a product split, whose
#: components' leaves spend the delta (the row carries their epsilon).
SPEND, UNDERIVED, PRODUCT = "spend", "underived", "product"


@dataclass(frozen=True)
class Budget:
    """The (epsilon, delta) contract of one estimate: relative error
    ``epsilon`` and failure probability ``delta``, both in (0, 1)."""

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        check_epsilon_delta(self.epsilon, self.delta)

    def split_delta(self, parts: int) -> "Budget":
        """The budget of each of ``parts`` sub-steps that must all succeed
        (union bound): the same epsilon, ``delta / parts``."""
        if parts <= 0:
            raise ValueError("parts must be positive")
        return Budget(self.epsilon, self.delta / parts)

    def product(self, components: int) -> "Budget":
        """The budget of each of ``c`` estimates whose product estimates the
        whole: ``epsilon' = (1+epsilon)^(1/c) - 1`` makes the product's upper
        error ``(1+epsilon')^c = 1+epsilon`` and its lower error
        ``(1-epsilon')^c >= 1 - c*epsilon' >= 1-epsilon``, and
        ``delta' = delta/c`` bounds the chance that any component misses
        (union bound).  One component keeps this budget."""
        if components <= 0:
            raise ValueError("components must be positive")
        if components == 1:
            return self
        return Budget((1.0 + self.epsilon) ** (1.0 / components) - 1.0, self.delta / components)

    def repetitions(self, base_failure: float) -> int:
        """How many independent runs, each failing with probability at most
        ``base_failure`` < 1/2, a median needs to fail with probability at
        most ``delta``: the standard Chernoff-bound computation of median
        amplification (see e.g. the proof of Lemma 22), uncapped and odd."""
        if not 0 < base_failure < 0.5:
            raise ValueError("base_failure must be in (0, 1/2)")
        gap = 0.5 - base_failure
        repetitions = math.ceil(math.log(1.0 / self.delta) / (2.0 * gap * gap))
        # Always use an odd number so the median is unambiguous.
        return repetitions + 1 - repetitions % 2

    def spend(self, site: str, multiplicity: int = 1, kind: str = SPEND) -> None:
        """Record in the open ledger that ``site`` spent this budget
        ``multiplicity`` times (a :data:`PRODUCT` row: split it into that
        many components)."""
        ledger = _LEDGER.get()
        if ledger is not None and multiplicity > 0:
            ledger[(site, self.epsilon, self.delta, kind)] += multiplicity


class BudgetLedger(Counter):
    """The budget spent inside one :func:`budget_ledger`: the multiplicity
    of every ``(site, epsilon, delta, kind)``, in first-spent order."""

    def delta_spent(self) -> float:
        """The union bound over the leaves: the sum of multiplicity * delta."""
        return sum(count * delta for (_, _, delta, kind), count in self.items() if kind != PRODUCT)

    def lines(self) -> Tuple[str, ...]:
        return tuple(
            f"budget {site}: eps={epsilon:.6g} delta={delta:.6g} x{count}"
            + ("" if kind == SPEND else f" ({kind})")
            for (site, epsilon, delta, kind), count in self.items()
        )


_LEDGER: ContextVar[Optional[BudgetLedger]] = ContextVar("budget_ledger", default=None)


@contextmanager
def budget_ledger() -> Iterator[Optional[BudgetLedger]]:
    """Open a ledger for the estimates computed inside the block and yield
    it; inside an open ledger, join it and yield ``None`` (nested estimates
    add to the outermost ledger, whose opener reports it)."""
    if _LEDGER.get() is not None:
        yield None
        return
    token = _LEDGER.set(BudgetLedger())
    try:
        yield _LEDGER.get()
    finally:
        _LEDGER.reset(token)


def relative_error(estimate: float, truth: float) -> float:
    """Relative error |estimate - truth| / truth (0 if both are zero)."""
    if truth == 0:
        return 0.0 if estimate == 0 else math.inf
    return abs(estimate - truth) / abs(truth)
