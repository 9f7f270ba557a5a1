"""Exception types shared across the package, and the checks of finite, nonnegative and
whole-number inputs: each raises ValueError naming the quantity it checks."""

import cmath
import math


class NumericalConsistencyError(RuntimeError):
    """A computed quantity violates a consistency bound (e.g. pmf mass > 1)."""


class BracketError(RuntimeError):
    """A root bracket shows no sign change; the search cannot proceed."""


def nonnegative(value, name: str):
    """`value`, if it is finite and >= 0; else ValueError naming the quantity."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def finite(value, name: str):
    """`value`, if it is finite (a complex one in both parts); else ValueError naming it."""
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def whole_number(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """`value` as an int, if it is a whole number in [low, high] (an open side where a bound
    is None); 2.0 and np.int64(2) read as 2, and 1.5, NaN, +-inf and values out of bounds
    raise ValueError naming the quantity."""
    k = value if value.__class__ is int else int(value) if -math.inf < value < math.inf else None
    if k is None or k != value or low is not None and k < low or high is not None and k > high:
        bounds = ("" if low is None and high is None else f" >= {low}" if high is None
                  else f" <= {high}" if low is None else f" in [{low}, {high}]")
        raise ValueError(f"{name} must be a whole number{bounds}, got {value!r}")
    return k
