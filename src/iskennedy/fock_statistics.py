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
Fock-space oracle in the test suite).  photon_pmf shares one law per
argument triple (A, r, theta), holding the last _LAW_CAP = 8.  A law computes
each value once, in order of n, and keeps those up to the largest n read (at
most 4M + 401 through apply_detector_to_pmf at resolution M); extending a law
holds its own lock, so laws are safe to share between threads.  Plain Python
floats throughout: no numpy (see _dss_args for its complex division).
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from dataclasses import dataclass
from itertools import count, islice
from typing import Callable, Iterator

from .errors import DegenerateSqueezingError, NumericalConsistencyError, nonnegative

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

# Laws photon_pmf keeps: room for the two symbol laws of a few operating points.
_LAW_CAP = 8


def resolution(M) -> int:
    """A detector resolution as an int; 2.0 reads as 2, and anything but a
    whole number >= 1 (0, 1.5, NaN, +-inf) raises ValueError."""
    k = M if M.__class__ is int else int(M) if 1 <= M < math.inf else 0
    if k < 1 or k != M:
        raise ValueError(f"resolution must be an integer >= 1, got {M!r}")
    return k


def _count(n) -> int:
    k = n if n.__class__ is int else int(n) if 0 <= n < math.inf else -1
    if k < 0 or k != n:
        raise ValueError(f"count must be a nonnegative integer, got {n!r}")
    return k


def poisson_pmf(n: int, mu: float) -> float:
    """e^{-mu} mu^n / n!  (log-gamma evaluation once n exceeds 20 or mu^n overflows)."""
    if not mu >= 0:  # mu = +inf is the limit where every value is 0
        raise ValueError(f"Poisson mean must be >= 0, got {mu!r}")
    n = _count(n)
    if mu == 0.0:
        return 1.0 if n == 0 else 0.0
    if n <= 20:
        try:
            return math.exp(-mu) * mu ** n / math.factorial(n)
        except OverflowError:
            pass
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
    nonnegative(r, "r")
    n = _count(n)
    if n % 2 == 1 or r == 0.0:
        return 1.0 if n == 0 else 0.0
    if n == 0:
        return 1.0 / math.cosh(r)
    return _sv_term(n // 2, math.log(math.tanh(r)), math.log(math.cosh(r)))


def _sv_term(k: int, log_t: float, log_cosh: float) -> float:
    """Squeezed-vacuum P(2k), k >= 1, from log tanh r and log cosh r."""
    return math.exp(math.lgamma(2 * k + 1) - 2 * k * math.log(2.0) - 2 * math.lgamma(k + 1)
                    + 2 * k * log_t - log_cosh)


def _sv_values(r: float) -> Iterator[float]:
    """Squeezed-vacuum pmf (r > 0) for n = 0, 1, ..., the logs taken once."""
    yield 1.0 / math.cosh(r)
    log_t, log_cosh = math.log(math.tanh(r)), math.log(math.cosh(r))
    for k in count(1):
        yield 0.0
        yield _sv_term(k, log_t, log_cosh)


def sv_tail_ge(n_min: int, r: float) -> float:
    """Squeezed-vacuum mass at n >= n_min: _split_at over n = 2i, step tanh^2(r) (1 - 1/2i)."""
    t2 = math.tanh(r) ** 2
    return _split_at((n_min + 1) // 2, 0.5 * math.sinh(r) ** 2, lambda i, r: sv_pmf(2 * i, r),
                     r, t2, -0.5 * t2)[1]


def _dss_args(A: complex, r: float, theta: float) -> tuple[complex, float]:
    """(2z, Re[e^{-j theta} A^2] tanh r), z = A e^{-j theta/2} / sqrt(sinh 2r), in the bits the
    golden tables pin: z divides as numpy does, times the reciprocal with 0.0 cross terms."""
    w = A * cmath.exp(-0.5j * theta)
    s = 1.0 / math.sqrt(math.sinh(2.0 * r))
    return (2.0 * complex((w.real + w.imag * 0.0) * s, (w.imag - w.real * 0.0) * s),
            (cmath.exp(-1j * theta) * A * A).real * math.tanh(r))


def _dss_values(A: complex, r: float, theta: float) -> Iterator[float]:
    """DSS pmf (r > 0) for n = 0, 1, ...: one Hermite recurrence on (H_{n-1}, H_n, log-scale)."""
    A = complex(A)
    two_z, quad = _dss_args(A, r, theta)
    log_half_t = math.log(math.tanh(r) / 2.0)
    log_cosh = math.log(math.cosh(r))
    abs2 = abs(A) ** 2
    h_prev, h, log_scale = 0.0 + 0.0j, 1.0 + 0.0j, 0.0
    for k in count():
        if k:
            h_prev, h = h, two_z * h - 2.0 * (k - 1) * h_prev
            m = max(abs(h), abs(h_prev))
            if m > _RESCALE_AT:
                h /= m
                h_prev /= m
                log_scale += math.log(m)
        if h == 0:
            yield 0.0
            continue
        log_p = (k * log_half_t - math.lgamma(k + 1) - log_cosh
                 + 2.0 * (math.log(abs(h)) + log_scale) - abs2 + quad)
        yield math.exp(log_p)


def _kept(values: Iterator[float]) -> Callable[[int], float]:
    """n -> the n-th of `values`, each computed once and kept.  A read past the
    end advances `values` under the law's own lock; a warm read only checks n.
    Once `values` raises, its values so far stay and a read past them re-raises."""
    probs, lock, failure = [], threading.Lock(), []

    def law(n) -> float:
        n = _count(n)
        if n >= len(probs):
            with lock:
                try:
                    probs.extend(islice(values, max(0, n + 1 - len(probs))))
                except Exception as exc:
                    failure.append(exc)
                if n >= len(probs):
                    raise failure[0]
        return probs[n]

    return law


def dss_pmf(n: int, alpha_c: complex, r: float, theta: float = 0.0) -> float:
    """Photon pmf of a displaced squeezed state with complex displacement.

    Valid only for finite r > 0; the r -> 0 limit is a coherent state, which
    photon_pmf switches to below r = 1e-8.
    """
    if not 0.0 < r < math.inf:
        raise DegenerateSqueezingError(
            f"dss_pmf requires finite r > 0, got {r!r}; at r = 0 use poisson_pmf(|alpha_c|^2)")
    return _kept(_dss_values(alpha_c, r, theta))(n)


@functools.lru_cache(maxsize=_LAW_CAP)
def _law(A: complex, r: float, theta: float) -> Callable[[int], float]:
    """Kept law of S(r e^{j theta}) D(A)|0>: Poisson of mean |A|^2 below r = 1e-8,
    the squeezed vacuum at A = 0, else the DSS law.  _law.__wrapped__ builds anew."""
    if nonnegative(r, "r") < _POISSON_CUTOFF_R:
        mu = abs(A) ** 2
        return _kept(poisson_pmf(n, mu) for n in count())
    if A == 0:
        return _kept(_sv_values(r))
    return _kept(_dss_values(A, r, theta))


def photon_pmf(A: complex, r: float, theta: float = 0.0) -> Callable[[int], float]:
    """Photon pmf n -> P(n) of S(r e^{j theta}) D(A)|0> (see _law); equal arguments,
    however spelled (0, -0.0, complex(x, -0.0), np.float64), share one kept law."""
    return _law(complex(A), float(r), float(theta))


@dataclass(frozen=True)
class CountDistribution:
    """Pmf over detector outcomes 0..M, the last bin lumping all counts >= M: M + 1
    values in [-1e-15, 1 + 1e-12] summing left to right to 1 within 1e-12, from any 1-D
    sequence, checked in one pass and kept as a tuple of Python floats clipped to [0, 1]
    (x < 0 reads +0.0)."""

    probs: tuple[float, ...]
    M: int

    def __post_init__(self):
        object.__setattr__(self, "M", resolution(self.M))
        shape = self.probs.shape if hasattr(self.probs, "shape") else (len(self.probs),)
        if shape != (self.M + 1,):
            raise ValueError(f"expected {self.M + 1} probabilities, got {shape}")
        mass, clipped = 0.0, []
        for x in map(float, self.probs):
            if not -1e-15 <= x <= 1.0 + 1e-12:
                raise ValueError(f"probability {x!r} out of [0, 1]")
            mass += x
            clipped.append(0.0 if x < 0.0 else 1.0 if x > 1.0 else x)
        if abs(mass - 1.0) > 1e-12:
            raise NumericalConsistencyError(f"pmf mass {mass!r} != 1")
        object.__setattr__(self, "probs", tuple(clipped))


def clamp_to_resolution(pmf: Callable[[int], float], M: int) -> CountDistribution:
    """Truncate an unbounded pmf to resolution M, lumping the tail into bin M."""
    M = resolution(M)
    # Read from n = M - 1 down, so that a kept law computes its head in one pass.
    probs = list(map(pmf, range(M - 1, -1, -1)))[::-1]
    partial = 0.0
    for p in probs:
        partial += p
    if partial > 1.0 + _MASS_SLACK:
        raise NumericalConsistencyError(f"partial pmf mass {partial} exceeds 1")
    probs.append(max(0.0, 1.0 - partial))
    return CountDistribution(probs=probs, M=M)
