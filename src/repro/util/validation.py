"""Input-validation helpers shared by the public API."""

from __future__ import annotations

from typing import Any


def check_probability(value: float, name: str = "probability") -> float:
    """Ensure ``value`` is a probability in [0, 1] and return it as a float."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_epsilon_delta(epsilon: float, delta: float) -> None:
    """Validate the (epsilon, delta) parameters of an approximation scheme."""
    if not 0.0 < float(epsilon) < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not 0.0 < float(delta) < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")


def check_positive_int(value: Any, name: str = "value") -> int:
    """Ensure ``value`` is a positive integer and return it as an ``int``."""
    if value != int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value
