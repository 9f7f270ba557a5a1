"""Output checks, computed with the standard library only.

Every check returns a list of problems (empty when the value passes), so a
workload can collect them outside its timed region.  The reference values
here share no code with the program: bounds and Poisson sums are computed
from their definitions with `math`.
"""

from __future__ import annotations

import math
from statistics import NormalDist

# Relative agreement expected between a closed form and its recomputation:
# both are a few roundings away from the exact value.
CLOSED_FORM_RTOL = 1e-12
# Relative agreement between the program's Poisson tails (scipy incomplete
# gamma) and direct sums.
POISSON_RTOL = 1e-9
# p_err computed at a finer resolution may exceed the coarser one only by the
# rounding of the lumped bin 1 - sum(p_n), a few units in the last place of 1.
MONOTONE_ATOL = 4 * 2.0 ** -52
# Chance that a correct sampler fails the error-count check anywhere in one run.
Z_FAMILY_ALPHA = 1e-9
# Below this many expected errors a call's z-score is far from normal: at
# p_err = 3.9e-8 and 10^6 trials one error gives z = 4.9 and two give 10.0.
# Such calls are tested on their error count's Poisson tail instead.
NORMAL_MIN_EXPECTED = 100


def _one_minus_sqrt_one_minus(E: float) -> float:
    """1 - sqrt(1 - E) without cancellation, as -expm1(log1p(-E) / 2)."""
    return -math.expm1(0.5 * math.log1p(-E)) if E < 1.0 else 1.0


def hb_cs(N: float) -> float:
    return 0.5 * _one_minus_sqrt_one_minus(math.exp(-4.0 * N))


def hb_dss(N: float) -> float:
    """Helstrom bound of the squeezed alphabet at the optimal split."""
    return 0.5 * _one_minus_sqrt_one_minus(math.exp(-4.0 * N * (N + 1.0)))


def sql_cs(N: float) -> float:
    return 0.5 * math.erfc(math.sqrt(2.0 * N))


def sql_dss(N: float) -> float:
    return 0.5 * math.erfc(math.sqrt(2.0 * N * (N + 1.0)))


def p_err_ideal(N: float) -> float:
    return 0.5 * math.exp(-4.0 * N * (N + 1.0))


def _poisson_term(k: int, mu: float) -> float:
    return math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))


def poisson_below(k: int, mu: float) -> float:
    """P(X < k) for X ~ Poisson(mu), summed term by term."""
    if k <= 0:
        return 0.0
    if mu == 0.0:
        return 1.0
    return math.fsum(_poisson_term(j, mu) for j in range(k))


def poisson_at_least(k: int, mu: float) -> float:
    """P(X >= k), summed upward from k until the terms stop mattering."""
    if k <= 0:
        return 1.0
    if mu == 0.0:
        return 0.0
    if k <= mu:
        return 1.0 - poisson_below(k, mu)
    terms, j = [], k
    while True:
        term = _poisson_term(j, mu)
        terms.append(term)
        if term < 1e-20 * terms[0]:
            return math.fsum(terms)
        j += 1


def close(label: str, got: float, want: float, rtol: float) -> list[str]:
    if abs(got - want) <= rtol * abs(want):
        return []
    return [f"{label}: {got!r} != {want!r} (rtol {rtol})"]


def p_err_in_range(label: str, N: float, p_err: float) -> list[str]:
    """hb_dss_opt(N) <= p_err <= 1/2: no receiver beats Helstrom or guessing."""
    floor = hb_dss(N)
    if floor * (1.0 - CLOSED_FORM_RTOL) <= p_err <= 0.5:
        return []
    return [f"{label}: p_err {p_err!r} outside [hb_dss_opt({N!r}) = {floor!r}, 0.5]"]


def sandwich(label: str, p_err: float, hb: float) -> list[str]:
    """The ideal receiver is within 3 dB of Helstrom: hb <= p_err <= 2 hb."""
    if hb * (1.0 - CLOSED_FORM_RTOL) <= p_err <= 2.0 * hb * (1.0 + CLOSED_FORM_RTOL):
        return []
    return [f"{label}: p_err {p_err!r} outside [hb, 2 hb] with hb = {hb!r}"]


def wigner_in_range(label: str, w: float) -> list[str]:
    if 0.0 <= w <= 1.0 / math.pi:
        return []
    return [f"{label}: Wigner value {w!r} outside [0, 1/pi]"]


def symbol0_even(label: str, n: int, p0: float) -> list[str]:
    """Symbol 0 after nulling is a squeezed vacuum: odd counts never occur."""
    if n % 2 == 0 or p0 == 0.0:
        return []
    return [f"{label}: symbol-0 population {p0!r} at odd n = {n}"]


def threshold_rates(label: str, N: float, eta: float, nu: float, n_th: int,
                    p_fa: float, p_mi: float) -> list[str]:
    """False alarms are P(dark >= n_th), misses P(signal + dark < n_th)."""
    mu1 = 4.0 * eta * N * (N + 1.0) + nu
    return (close(f"{label} p_fa", p_fa, poisson_at_least(n_th, nu), POISSON_RTOL)
            + close(f"{label} p_mi", p_mi, poisson_below(n_th, mu1), POISSON_RTOL))


def monotone_in_M(label: str, Ms, p_errs) -> list[str]:
    """A finer counter refines the outcomes, so the MAP error cannot grow."""
    out = []
    for (m0, p0), (m1, p1) in zip(zip(Ms, p_errs), zip(Ms[1:], p_errs[1:])):
        if p1 > p0 + MONOTONE_ATOL:
            out.append(f"{label}: p_err rises from {p0!r} at M={m0} to {p1!r} at M={m1}")
    return out


def z_bound(count: int) -> float:
    """|z| bound for `count` z-scores: exceeded by chance with probability
    Z_FAMILY_ALPHA in a run (normal approximation, Bonferroni)."""
    return NormalDist().inv_cdf(1.0 - Z_FAMILY_ALPHA / (2 * max(count, 1)))


def z_within(label: str, z: float, bound: float) -> list[str]:
    if abs(z) <= bound:
        return []
    return [f"{label}: |z| = {abs(z):.3f} above the bound {bound:.3f}"]


def poisson_two_sided(k: int, mu: float) -> float:
    """2 min(P(X <= k), P(X >= k)) for X ~ Poisson(mu), capped at 1."""
    return min(1.0, 2.0 * min(poisson_below(k + 1, mu), poisson_at_least(k, mu)))


def errors_consistent(label: str, trials: int, errors: int, p_ref: float, z: float,
                      count: int) -> list[str]:
    """One Monte Carlo call against its reference, `count` calls in the run.

    Where at least NORMAL_MIN_EXPECTED errors are expected, |z| must stay
    within z_bound(count); below that, the error count must not lie in a
    Poisson tail rarer than Z_FAMILY_ALPHA / count.
    """
    mu = trials * p_ref
    if mu >= NORMAL_MIN_EXPECTED:
        return z_within(label, z, z_bound(count))
    tail = poisson_two_sided(errors, mu)
    if tail >= Z_FAMILY_ALPHA / count:
        return []
    return [f"{label}: {errors} errors where {mu:.3g} are expected (Poisson tail {tail:.3g})"]


def trials_add_up(label: str, trials: int, sent0: int, sent1: int, fa: int, mi: int) -> list[str]:
    if sent0 + sent1 == trials and 0 <= fa <= sent0 and 0 <= mi <= sent1:
        return []
    return [f"{label}: sent {sent0} + {sent1}, errors {fa} + {mi}, for {trials} trials"]
