"""Shared utilities: RNG handling, the (epsilon, delta) budget and its
ledger, and validation helpers used across the package."""

from repro.util.rng import as_generator, spawn_generators
from repro.util.estimation import (
    Budget,
    budget_ledger,
    relative_error,
)
from repro.util.validation import (
    check_epsilon_delta,
    check_positive_int,
    check_probability,
)

__all__ = [
    "as_generator",
    "spawn_generators",
    "Budget",
    "budget_ledger",
    "relative_error",
    "check_epsilon_delta",
    "check_positive_int",
    "check_probability",
]
