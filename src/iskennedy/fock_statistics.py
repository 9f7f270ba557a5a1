"""Photon-number statistics: Poisson, squeezed vacuum, displaced squeezed states.

Everything that can under/overflow (factorials, tanh^n powers, Hermite
polynomial magnitudes) is evaluated in log space.  Hermite polynomials are
the physicists' convention H_{n+1}(z) = 2 z H_n(z) - 2 n H_{n-1}(z).

The displaced-squeezed-state pmf implemented here is, as a quantum state,
the photon distribution of squeezing applied after displacement,
S(r e^{j theta}) D(alpha_c) |0>; its n = 0 element is the vacuum overlap
(1/cosh r) exp(-|a|^2 + Re[e^{-j theta} a^2] tanh r), and the Hermite
argument alpha_c e^{-j theta/2} / sqrt(sinh 2r) is the unique scaling for
which the distribution is normalized (checked against an independent
Fock-space oracle in the test suite).  One law runs one Hermite recurrence
and keeps its values, so its first n values cost O(n), not O(n^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateSqueezingError, NumericalConsistencyError

# Partial pmf mass may exceed 1 by accumulated rounding; anything above this
# slack indicates a real bug in the pmf, not rounding.
_MASS_SLACK = 1e-9

# Magnitude at which the Hermite recurrence is rescaled to avoid overflow.
_RESCALE_AT = 1e150

# Squeezing below this is numerically indistinguishable from none; the
# coherent-state (Poisson) statistics take over.
_POISSON_CUTOFF_R = 1e-8

# Terms a direct upper-tail sum may take before it gives up.
_SV_TAIL_TERMS = 100_000


def resolution(M) -> int:
    """A detector resolution as an int; 2.0 reads as 2, and anything but a
    whole number >= 1 (0, 1.5, NaN, +-inf) raises ValueError."""
    if not (M >= 1 and math.isfinite(M)) or M != int(M):
        raise ValueError(f"resolution must be an integer >= 1, got {M!r}")
    return int(M)


def _count(n) -> int:
    if n < 0 or n != int(n):
        raise ValueError(f"count must be a nonnegative integer, got {n!r}")
    return int(n)


def poisson_pmf(n: int, mu: float) -> float:
    """e^{-mu} mu^n / n!  (log-gamma evaluation once n exceeds 20)."""
    if mu < 0:
        raise ValueError(f"Poisson mean must be >= 0, got {mu}")
    n = _count(n)
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    if n <= 20:
        return math.exp(-mu) * mu ** n / math.factorial(n)
    return math.exp(n * math.log(mu) - mu - math.lgamma(n + 1))


def _split_at(k: int, mean: float, pmf: Callable[[int, float], float], p: float,
              a: float, c: float) -> tuple[float, float]:
    """(P(i < k), P(i >= k)) of the pmf i -> pmf(i, p), whose terms step as
    pmf(i, p) = pmf(i - 1, p) (a + c/i) and whose mode is at or below mean.

    Only the side of k away from the mean is summed, outward from k until a
    term falls to 2^-53 of the first; the other side is its complement, so
    no small side is the difference of large ones.  Below the mean that is
    at most k terms; above it, _SV_TAIL_TERMS terms raise.
    """
    if k <= 0:
        return 0.0, 1.0
    if k <= mean:
        term = total = pmf(k - 1, p)
        cut = 2.0 ** -53 * term
        for i in range(k - 1, 0, -1):
            term /= a + c / i
            total += term
            if term <= cut:
                break
        return total, 1.0 - total
    term = total = pmf(k, p)
    cut = 2.0 ** -53 * term
    for i in range(k + 1, k + _SV_TAIL_TERMS):
        if term <= cut:
            return 1.0 - total, total
        term *= a + c / i
        total += term
    raise NumericalConsistencyError(
        f"tail sum from i = {k} did not converge in {_SV_TAIL_TERMS} terms")


def poisson_tail_ge(k: int, mu: float) -> float:
    """P(X >= k) for X ~ Poisson(mu), as a finite sum from the stable side."""
    return _split_at(k, mu, poisson_pmf, mu, 0.0, mu)[1]


def poisson_cdf_below(k: int, mu: float) -> float:
    """P(X < k) for X ~ Poisson(mu), as a finite sum from the stable side."""
    return _split_at(k, mu, poisson_pmf, mu, 0.0, mu)[0]


def sv_pmf(n: int, r: float) -> float:
    """Squeezed-vacuum photon pmf: zero for odd n, else
    (2k)!/(2^{2k} (k!)^2) tanh^{2k}(r) / cosh(r) with n = 2k."""
    if r < 0:
        raise ValueError(f"squeezing magnitude must be >= 0, got {r}")
    n = _count(n)
    if n % 2 == 1:
        return 0.0
    if r == 0.0:
        return 1.0 if n == 0 else 0.0
    k = n // 2
    if k == 0:
        return 1.0 / math.cosh(r)
    log_t = math.log(math.tanh(r))
    log_p = (
        math.lgamma(2 * k + 1)
        - 2 * k * math.log(2.0)
        - 2 * math.lgamma(k + 1)
        + 2 * k * log_t
        - math.log(math.cosh(r))
    )
    return math.exp(log_p)


def sv_tail_ge(n_min: int, r: float) -> float:
    """Squeezed-vacuum mass at n >= n_min: _split_at over n = 2i, step tanh^2(r) (1 - 1/2i)."""
    t2 = math.tanh(r) ** 2
    return _split_at((n_min + 1) // 2, 0.5 * math.sinh(r) ** 2, lambda i, r: sv_pmf(2 * i, r),
                     r, t2, -0.5 * t2)[1]


def _dss_law(A: complex, r: float, theta: float) -> Callable[[int], float]:
    """DSS pmf (r > 0) as one running recurrence: the state (H_{k-1}, H_k,
    log-scale) advances to the largest n asked so far and every value is
    kept, so the first n values cost O(n) in all, read in any order."""
    A = complex(A)
    t = math.tanh(r)
    two_z = 2.0 * complex(A * np.exp(-0.5j * theta) / math.sqrt(math.sinh(2.0 * r)))
    log_half_t = math.log(t / 2.0)
    log_cosh = math.log(math.cosh(r))
    abs2 = abs(A) ** 2
    quad = (np.exp(-1j * theta) * A * A).real * t
    probs: list[float] = []
    h_prev, h, log_scale = 0.0 + 0.0j, 1.0 + 0.0j, 0.0

    def law(n: int) -> float:
        nonlocal h_prev, h, log_scale
        n = _count(n)
        for k in range(len(probs), n + 1):
            if k:
                h_prev, h = h, two_z * h - 2.0 * (k - 1) * h_prev
                m = max(abs(h), abs(h_prev))
                if m > _RESCALE_AT:
                    h /= m
                    h_prev /= m
                    log_scale += math.log(m)
            if h == 0:
                probs.append(0.0)
                continue
            log_p = (k * log_half_t - math.lgamma(k + 1) - log_cosh
                     + 2.0 * (math.log(abs(h)) + log_scale) - abs2 + quad)
            probs.append(math.exp(log_p) if log_p < 0 else float(np.exp(log_p)))
        return probs[n]

    return law


def dss_pmf(n: int, alpha_c: complex, r: float, theta: float = 0.0) -> float:
    """Photon pmf of a displaced squeezed state with complex displacement.

    Valid only for r > 0; the r -> 0 limit is a coherent state, which
    photon_pmf switches to below r = 1e-8.
    """
    if r <= 0:
        raise DegenerateSqueezingError(
            f"dss_pmf requires r > 0 (got {r}); use poisson_pmf(|alpha_c|^2) instead"
        )
    return _dss_law(alpha_c, r, theta)(n)


def photon_pmf(A: complex, r: float, theta: float = 0.0) -> Callable[[int], float]:
    """Photon pmf n -> P(n) of S(r e^{j theta}) D(A)|0>.

    The one place that picks the law: Poisson of mean |A|^2 below
    r = 1e-8, the squeezed vacuum at A = 0, the displaced-squeezed law
    (one running recurrence) otherwise.
    """
    if r < _POISSON_CUTOFF_R:
        mu = abs(A) ** 2
        return lambda n: poisson_pmf(n, mu)
    if A == 0:
        return lambda n: sv_pmf(n, r)
    return _dss_law(A, r, theta)


@dataclass(frozen=True)
class CountDistribution:
    """Pmf over detector outcomes 0..M, the last bin lumping all counts >= M: M + 1
    values in [-1e-15, 1 + 1e-12] summing left to right to 1 within 1e-12, checked as
    Python floats in one pass and stored as float64 clipped to [0, 1] (x < 0 reads +0.0)."""

    probs: np.ndarray
    M: int

    def __post_init__(self):
        if getattr(self.probs, "ndim", 1) != 1 or len(self.probs) != self.M + 1:
            raise ValueError(f"expected {self.M + 1} probabilities, got {np.shape(self.probs)}")
        mass, clipped = 0.0, []
        for x in map(float, self.probs):
            if not -1e-15 <= x <= 1.0 + 1e-12:
                raise ValueError(f"probability {x!r} out of [0, 1]")
            mass += x
            clipped.append(0.0 if x < 0.0 else 1.0 if x > 1.0 else x)
        if abs(mass - 1.0) > 1e-12:
            raise NumericalConsistencyError(f"pmf mass {mass!r} != 1")
        object.__setattr__(self, "probs", np.array(clipped))


def clamp_to_resolution(pmf: Callable[[int], float], M: int) -> CountDistribution:
    """Truncate an unbounded pmf to resolution M, lumping the tail into bin M."""
    M = resolution(M)
    probs, partial = [], 0.0
    for n in range(M):
        probs.append(float(pmf(n)))
        partial += probs[n]
    if partial > 1.0 + _MASS_SLACK:
        raise NumericalConsistencyError(f"partial pmf mass {partial} exceeds 1")
    probs.append(max(0.0, 1.0 - partial))
    return CountDistribution(probs=probs, M=M)
