"""Closed-form error-probability benchmarks for the two BPSK alphabets.

HB_* are Helstrom (minimum-error) bounds, SQL_* the homodyne limits; the
_CS variants are for coherent-state BPSK at the same mean photon number.
Equal priors (1/2, 1/2) throughout.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import BracketError, nonnegative


def _helstrom_from_overlap_exponent(x: float) -> float:
    """(1 - sqrt(1 - e^{-x}))/2 computed as e^{-x} / (2 (1 + sqrt(1 - e^{-x}))).

    The rewritten form stays accurate (and positive) when e^{-x} is tiny,
    where the direct subtraction would round to zero.
    """
    E = math.exp(-x)
    return E / (2.0 * (1.0 + math.sqrt(-math.expm1(-x))))


def helstrom_dss(alpha: float, r: float) -> float:
    """Helstrom bound for the squeezed alphabet, (1 - sqrt(1 - e^{-4 a^2 e^{2r}}))/2."""
    nonnegative(alpha, "alpha")
    nonnegative(r, "r")
    return _helstrom_from_overlap_exponent(4.0 * alpha * alpha * math.exp(2.0 * r))


def sql_dss(alpha: float, r: float) -> float:
    """Homodyne limit for the squeezed alphabet, erfc(sqrt(2) a e^r)/2."""
    nonnegative(alpha, "alpha")
    nonnegative(r, "r")
    return 0.5 * math.erfc(math.sqrt(2.0) * alpha * math.exp(r))


def helstrom_cs(N: float) -> float:
    """Helstrom bound for coherent-state BPSK at energy N."""
    nonnegative(N, "N")
    return _helstrom_from_overlap_exponent(4.0 * N)


def sql_cs(N: float) -> float:
    """Homodyne limit for coherent-state BPSK, erfc(sqrt(2N))/2."""
    nonnegative(N, "N")
    return 0.5 * math.erfc(math.sqrt(2.0 * N))


def hb_dss_opt(N: float) -> float:
    """Squeezed-alphabet Helstrom bound at the optimal energy split."""
    nonnegative(N, "N")
    return _helstrom_from_overlap_exponent(4.0 * N * (N + 1.0))


def sql_dss_opt(N: float) -> float:
    """Squeezed-alphabet homodyne limit at the optimal energy split."""
    nonnegative(N, "N")
    return 0.5 * math.erfc(math.sqrt(2.0 * N * (N + 1.0)))


def ratio_db(a: float, b: float) -> float:
    """10 log10(a/b); both inputs must be positive.  Where a/b under- or overflows
    (a subnormal p_err under sql_cs), it is 10 (log10 a - log10 b), still finite."""
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"ratio_db requires finite positive probabilities, got ({a!r}, {b!r})")
    q = a / b
    if 0.0 < q < math.inf:
        return 10.0 * math.log10(q)
    return 10.0 * (math.log10(a) - math.log10(b))


def bisect_root(f: Callable[[float], float], lo: float, hi: float, xtol: float = 1e-6) -> float:
    """Plain bisection; robust at desk scale and immune to flat spots.  A NaN from f,
    at either end or at a midpoint, raises ValueError naming x."""
    def at(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"f is NaN at x = {x!r}")
        return fx

    flo, fhi = at(lo), at(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0:
        raise BracketError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        fm = at(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def crossover_sql_dss_vs_hb_cs() -> float:
    """Energy at which the squeezed-alphabet homodyne limit meets the
    coherent-state Helstrom bound at the optimal split (about N = 0.659)."""
    return bisect_root(lambda N: sql_dss_opt(N) - helstrom_cs(N), 0.1, 2.0)
