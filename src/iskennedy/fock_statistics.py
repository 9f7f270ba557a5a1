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
Fock-space oracle in the test suite).  A KeptLaw computes each value once, in
order of n, keeps those up to the largest n read (at most 4M + 401 through
apply_detector_to_pmf at resolution M) and gives clamp_to_resolution its head
P(0..M-1) in one read; extending a law holds its own lock, so photon_pmf can
share one per (A, r, theta), holding the last _LAW_CAP = 8.  The kept laws and
apply_detector_to_pmf's thinning matrix read log n! from one process-wide table,
_LOG_FACT, whose entry n is the double math.lgamma(n + 1) itself: it grows in
order of n under its own lock, and only as far as the counts a law has produced
or a matrix indexes; single values (poisson_pmf, sv_pmf) never grow it.
Plain Python floats throughout: no numpy.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from dataclasses import dataclass
from itertools import count, islice
from typing import Callable, Iterator

from .errors import DegenerateSqueezingError, NumericalConsistencyError, finite, nonnegative

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

# log n! for n = 0, 1, ..., entry n the double math.lgamma(n + 1); see log_factorials.
_LOG_FACT: list[float] = []
_LOG_FACT_LOCK = threading.Lock()


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


def log_factorials(size: int) -> list[float]:
    """The shared table [log 0!, log 1!, ...] of at least `size` entries, each math.lgamma(n + 1);
    grown in order of n, under its own lock, only when `size` reads past its end.  The list
    itself is returned: read it, never write it."""
    table = _LOG_FACT
    if size > len(table):
        with _LOG_FACT_LOCK:
            table.extend(map(math.lgamma, range(len(table) + 1, size + 1)))
    return table


def poisson_pmf(n: int, mu: float) -> float:
    """e^{-mu} mu^n / n!  (log-gamma evaluation once n exceeds 20 or mu^n overflows)."""
    if not mu >= 0:  # mu = +inf is the limit where every value is 0
        raise ValueError(f"Poisson mean must be >= 0, got {mu!r}")
    n = _count(n)
    if not 0.0 < mu < math.inf:  # the limits: all mass at n = 0 (mu = 0), none anywhere (inf)
        return 1.0 if n == 0 and mu == 0.0 else 0.0
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
    """Squeezed-vacuum pmf (r > 0) for n = 0, 1, ..., the logs taken once: _sv_term's
    expression with its log-factorials read from the shared table."""
    yield 1.0 / math.cosh(r)
    log_t, log_cosh, log_2 = math.log(math.tanh(r)), math.log(math.cosh(r)), math.log(2.0)
    log_fact = _LOG_FACT
    for n in count(2, 2):
        yield 0.0
        if n >= len(log_fact):
            log_fact = log_factorials(n + 1)
        yield math.exp(log_fact[n] - n * log_2 - 2 * log_fact[n >> 1] + n * log_t - log_cosh)


def sv_tail_ge(n_min: int, r: float) -> float:
    """Squeezed-vacuum mass at n >= n_min: _split_at over n = 2i, step tanh^2(r) (1 - 1/2i)."""
    t2 = math.tanh(r) ** 2
    return _split_at((n_min + 1) // 2, 0.5 * math.sinh(r) ** 2, lambda i, r: sv_pmf(2 * i, r),
                     r, t2, -0.5 * t2)[1]


def _dss_values(A: complex, r: float, theta: float) -> Iterator[float]:
    """DSS pmf (r > 0) for n = 0, 1, ...: one Hermite recurrence on (H_{n-1}, H_n, log-scale)
    from z = w / sqrt(sinh 2r), w = A e^{-j theta/2}, taken as a reciprocal multiply.  The
    Gaussian factor -|A|^2 + Re(w^2) tanh r is summed as written up to |A|^2 = 1024 (rounding
    of order |A|^2 2^-52 in log P), above that as -(|A|^2 (1 - tanh r) + 2 Im(w)^2 tanh r),
    which keeps its digits where tanh r rounds to 1 (r >= 19.06) and the sum would cancel.
    |H_n| is taken once a step: the last step left |H_{n-1}| <= _RESCALE_AT, so |H_n| alone
    decides a rescale, and is the larger of the two when it does."""
    A, t = complex(A), math.tanh(r)
    w = A * cmath.exp(-0.5j * theta)
    two_z = 2.0 * (w * (1.0 / math.sqrt(math.sinh(2.0 * r))))
    quad = (cmath.exp(-1j * theta) * A * A).real * t
    log_half_t, log_cosh, abs2 = math.log(t / 2.0), math.log(math.cosh(r)), abs(A) ** 2
    if abs2 > 1024.0:  # 1 - tanh r = e^-r / cosh r
        abs2, quad = 0.0, -(abs2 * (math.exp(-r) / math.cosh(r)) + 2.0 * w.imag ** 2 * t)
    h_prev, h, abs_h, log_scale, log_fact = 0.0 + 0.0j, 1.0 + 0.0j, 1.0, 0.0, _LOG_FACT
    for k in count():
        if k:
            h_prev, h = h, two_z * h - 2.0 * (k - 1) * h_prev
            abs_h = abs(h)
            if abs_h > _RESCALE_AT:
                h /= abs_h
                h_prev /= abs_h
                log_scale += math.log(abs_h)
                abs_h = abs(h)  # h / abs_h need not have modulus exactly 1
        if abs_h == 0.0:
            yield 0.0
            continue
        if k >= len(log_fact):
            log_fact = log_factorials(k + 1)
        log_p = (k * log_half_t - log_fact[k] - log_cosh
                 + 2.0 * (math.log(abs_h) + log_scale) - abs2 + quad)
        yield math.exp(log_p)


class KeptLaw:
    """n -> the n-th of `values`, each computed once, kept, and extended under the law's own
    lock; head(M) reads P(0..M-1) at once.  Once `values` raises, a read past it re-raises;
    once it ends, a read past it raises IndexError."""

    __slots__ = ("_probs", "_values", "_lock", "_failure")

    def __init__(self, values: Iterator[float]):
        self._probs, self._values, self._lock, self._failure = [], values, threading.Lock(), None

    def __call__(self, n) -> float:
        n = _count(n)
        return (self._probs if n < len(self._probs) else self._extend(n + 1))[n]

    def head(self, M: int) -> list[float]:
        """[P(0), ..., P(M - 1)] as a new list, for a resolution M (not checked here)."""
        return (self._probs if M <= len(self._probs) else self._extend(M))[:M]

    def kept(self, size: int) -> list[float]:
        """The values computed so far, at most `size` of them, as a new list; computes none."""
        return self._probs[:size]

    def _extend(self, size: int) -> list[float]:
        with self._lock:
            if self._failure is None:
                try:
                    self._probs.extend(islice(self._values, max(0, size - len(self._probs))))
                except Exception as exc:
                    self._failure = exc, exc.__traceback__  # so re-raises do not grow it
            if size > len(self._probs):
                if self._failure is None:
                    raise IndexError(f"the law holds {len(self._probs)} values, "
                                     f"read up to n = {size - 1}")
                raise self._failure[0].with_traceback(self._failure[1])
            return self._probs


def poisson_law(mu: float) -> KeptLaw:
    """Uncached law n -> poisson_pmf(n, mu)."""
    return KeptLaw(poisson_pmf(n, mu) for n in count())


def dss_pmf(n: int, alpha_c: complex, r: float, theta: float = 0.0) -> float:
    """Photon pmf of a displaced squeezed state with complex displacement.

    Valid only for finite r > 0; the r -> 0 limit is a coherent state, which
    photon_pmf switches to below r = 1e-8.
    """
    if not 0.0 < r < math.inf:
        raise DegenerateSqueezingError(
            f"dss_pmf requires finite r > 0, got {r!r}; at r = 0 use poisson_pmf(|alpha_c|^2)")
    return KeptLaw(_dss_values(finite(alpha_c, "alpha_c"), r, finite(theta, "theta")))(n)


@functools.lru_cache(maxsize=_LAW_CAP)
def _law(A: complex, r: float, theta: float) -> KeptLaw:
    """Kept law of S(r e^{j theta}) D(A)|0>: Poisson of mean |A|^2 below r = 1e-8,
    the squeezed vacuum at A = 0, else the DSS law.  _law.__wrapped__ builds anew."""
    finite(A, "A"), finite(theta, "theta")
    if nonnegative(r, "r") < _POISSON_CUTOFF_R:
        return poisson_law(abs(A) ** 2)
    return KeptLaw(_sv_values(r) if A == 0 else _dss_values(A, r, theta))


def photon_pmf(A: complex, r: float, theta: float = 0.0) -> KeptLaw:
    """Photon pmf n -> P(n) of S(r e^{j theta}) D(A)|0> (see _law); equal arguments,
    however spelled (0, -0.0, complex(x, -0.0), np.float64), share one kept law."""
    return _law(complex(A), float(r), float(theta))


@dataclass(frozen=True, slots=True)
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
    """Truncate an unbounded pmf to resolution M, lumping the tail into bin M; a
    callable that is not a KeptLaw is read as a fresh one over pmf(0), pmf(1), ..."""
    M = resolution(M)
    law = pmf if isinstance(pmf, KeptLaw) else KeptLaw(map(pmf, count()))
    probs = law.head(M)
    partial = 0.0
    for p in probs:
        partial += p
    if partial > 1.0 + _MASS_SLACK:
        raise NumericalConsistencyError(f"partial pmf mass {partial} exceeds 1")
    probs.append(max(0.0, 1.0 - partial))
    return CountDistribution(probs=probs, M=M)
