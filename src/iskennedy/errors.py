"""Exception types shared across the package, and the checks of finite and nonnegative inputs."""

import cmath
import math


class NumericalConsistencyError(RuntimeError):
    """A computed quantity violates a consistency bound (e.g. pmf mass > 1)."""


class DegenerateSqueezingError(ValueError):
    """Squeezing magnitude is zero/negative where the DSS formula is invalid.

    Callers should fall back to Poisson statistics (coherent-state limit)
    instead of catching and retrying.
    """


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
