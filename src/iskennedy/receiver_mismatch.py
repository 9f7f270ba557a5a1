"""Receiver performance when the inverse squeezer is slightly wrong.

The inverse-squeezing module applies squeezing parameter (-r + dr) e^{j dt}
instead of -r.  Composing it with the transmitter squeezing leaves a single
residual squeezing (r_m, theta_m) after factoring out a photon-number-
preserving rotation; the symbol-0 output becomes a weakly squeezed vacuum
(even photon numbers only) and the symbol-1 output, for every mismatch, the
same residual squeezing applied to the coherent state |2 gamma>, gamma =
alpha e^r.  The MAP decision is then a set over outcomes rather than a
single threshold.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from itertools import compress
from operator import ge

from .errors import finite, nonnegative, whole_number
from .fock_statistics import (CountDistribution, KeptLaw, clamp_to_resolution, photon_pmf,
                              sv_tail_ge)
from .gaussian_states import SignalDesign
from .receiver_ideal import DecisionProblem, DecisionRule, threshold_accept_set


@dataclass(frozen=True, slots=True)
class MismatchModel:
    """Magnitude error dr and axis error dt (radians) of the inverse squeezer."""

    delta_r: float
    delta_theta: float

    def __post_init__(self):
        finite(self.delta_r, "delta_r")
        if abs(finite(self.delta_theta, "delta_theta")) >= math.pi:
            raise ValueError(f"|delta_theta| must be < pi, got {self.delta_theta}")


@dataclass(frozen=True, slots=True)
class ResidualSqueezing:
    """Reduction of transmitter + receiver squeezing to a single operation.

    From the composite's Bogoliubov coefficients x, y (`bogoliubov`,
    |x|^2 - |y|^2 = 1): r_m = asinh|y| is the residual magnitude, theta_m
    its phase in (-pi, pi], and vartheta = -arg x the factored-out rotation
    angle (photon statistics ignore it).  The symbol-1 output is
    S(r_m e^{j theta_m}) D(2 gamma)|0> with the matched amplitude
    gamma = alpha e^r at every mismatch.
    """

    r_m: float
    theta_m: float
    vartheta: float


def bogoliubov(r: float, mm: MismatchModel) -> tuple[complex, complex]:
    """Coefficients of a -> x a + y a^dag for receiver-then-transmitter squeezing."""
    nonnegative(r, "r")
    r_s = -r + mm.delta_r
    phase = cmath.exp(1j * mm.delta_theta)
    x = math.cosh(r_s) * math.cosh(r) + phase * math.sinh(r_s) * math.sinh(r)
    y = -math.cosh(r_s) * math.sinh(r) - phase * math.sinh(r_s) * math.cosh(r)
    return x, y


def _wrap_angle(t: float) -> float:
    """Wrap to (-pi, pi]."""
    w = math.remainder(t, math.tau)
    if w <= -math.pi:
        w += math.tau
    return w


def residual(design: SignalDesign, mm: MismatchModel) -> ResidualSqueezing:
    """Residual squeezing of the full receiver chain for a given signal design, reduced
    once per (design.r, mm): the last 8 are kept, room for a few operating points."""
    return _reduction(design.r, mm)


@functools.lru_cache(maxsize=8)
def _reduction(r: float, mm: MismatchModel) -> ResidualSqueezing:
    x, y = bogoliubov(r, mm)
    r_m = math.asinh(abs(y))
    vartheta = -cmath.phase(x)
    if abs(y) == 0.0:
        theta_m = 0.0  # degenerate phase: matched squeezing
    else:
        theta_m = _wrap_angle(cmath.phase(-y) - cmath.phase(x))
    # D(2 alpha) S(r) = S(r) D(2 gamma) for real alpha, and the composite
    # squeezing factors as S(z_s) S(r) = R S(z_m), R a rotation by vartheta,
    # up to a global phase, so the symbol-1 output is R S(z_m) D(2 gamma)|0>.
    return ResidualSqueezing(r_m=r_m, theta_m=theta_m, vartheta=vartheta)


def first_order_residual(r: float, mm: MismatchModel) -> tuple[float, float]:
    """Small-mismatch approximations of (r_m, theta_m).

    r_m ~ sqrt(dr^2 + (dt/2 sinh 2r)^2) is accurate to second order; the
    theta_m expression arg(dr - j dt/2 sinh 2r) + dt sinh^2 r carries a
    first-order phase error of order dt/2 and is validation-only.
    """
    nonnegative(r, "r")
    if abs(mm.delta_r) > 0.2 or abs(mm.delta_theta) > 0.2:
        raise ValueError("first-order form is restricted to |dr|, |dt| <= 0.2")
    s2r = math.sinh(2.0 * r)
    r_m = math.hypot(mm.delta_r, 0.5 * mm.delta_theta * s2r)
    theta_m = (
        cmath.phase(complex(mm.delta_r, -0.5 * mm.delta_theta * s2r))
        + mm.delta_theta * math.sinh(r) ** 2
    )
    return r_m, _wrap_angle(theta_m)


def mismatch_law(design: SignalDesign, res: ResidualSqueezing, symbol: int) -> KeptLaw:
    """Unbounded photon pmf n -> P(n | symbol) behind the mismatched receiver.

    Symbol 0 sees S(r_m e^{j theta_m})|0>, symbol 1 S(r_m e^{j theta_m})
    D(2 gamma)|0> (see ResidualSqueezing).  At negligible r_m both collapse
    to the matched-case statistics.
    """
    A = 2.0 * design.gamma * whole_number(symbol, "symbol", 0, 1)
    return photon_pmf(A, res.r_m, res.theta_m)


def mismatch_count_pmf(design: SignalDesign, res: ResidualSqueezing, M: int,
                       symbol: int) -> CountDistribution:
    """Count statistics under residual squeezing (mismatch_law), truncated to resolution M."""
    return clamp_to_resolution(mismatch_law(design, res, symbol), M)


def mismatch_problem(design: SignalDesign, res: ResidualSqueezing, M: int) -> DecisionProblem:
    """Both symbols' count statistics (mismatch_count_pmf) as one problem at resolution M."""
    return DecisionProblem(*(mismatch_count_pmf(design, res, M, s) for s in (0, 1)))


def map_set_decision(problem: DecisionProblem) -> DecisionRule:
    """Bayes-optimal outcome labeling over the truncated space.

    Accept (decide 1) exactly where the likelihood of symbol 1 is at least
    that of symbol 0; under equal priors the resulting error is
    1 - sum_n max{P(n|0), P(n|1)}/2, the minimum over all labelings.
    """
    p0, p1, M = problem.dist0.probs, problem.dist1.probs, problem.M
    accept = frozenset(compress(range(M + 1), map(ge, p1, p0)))
    p_fa = p_mi = 0.0
    for n in accept:  # plain loops: sum() compensates floats on Python >= 3.12
        p_fa += p0[n]
    for x0, x1 in zip(p0, p1):  # ascending n, over the rejected outcomes
        if x1 < x0:
            p_mi += x1
    if accept and len(accept) == M + 1 - min(accept):  # {n_th, ..., M}, a threshold rule,
        accept = threshold_accept_set(min(accept), M)  # is the range every threshold rule holds
    return DecisionRule.from_rates(accept, p_fa, p_mi)


def spd_mismatch_error(design: SignalDesign, res: ResidualSqueezing) -> DecisionRule:
    """Click/no-click receiver under mismatch: P_FA = 1 - 1/cosh r_m (squeezed vacuum is
    not empty), and P_Mi is the vacuum element of the symbol-1 law (mismatch_law)."""
    p_fa = -math.expm1(-math.log(math.cosh(res.r_m)))  # 1 - 1/cosh r_m
    p_mi = mismatch_law(design, res, 1)(0)
    return DecisionRule.from_rates(threshold_accept_set(1, 1), p_fa, p_mi)


def parity_saturation_floor(M: int, delta_r: float) -> float:
    """Small-mismatch, high-energy error floor.

    Only even photon numbers populate the symbol-0 state, so the floor is
    set by the lowest even count at or above the detector resolution:
    n_min = 2 ceil(M/2) and
    P_sat ~ (1/2) n_min! / (2^{n_min} ((n_min/2)!)^2) dr^{n_min}; dr must be finite.
    """
    n_min = 2 * math.ceil(whole_number(M, "M", 1) / 2)
    k = n_min // 2
    log_coef = math.lgamma(n_min + 1) - n_min * math.log(2.0) - 2.0 * math.lgamma(k + 1)
    return 0.5 * math.exp(log_coef) * abs(finite(delta_r, "delta_r")) ** n_min


def exact_parity_floor(M: int, r_m: float) -> float:
    """High-energy limit of the mismatch error: half the squeezed-vacuum tail
    over counts >= M (only even terms contribute)."""
    return 0.5 * sv_tail_ge(whole_number(M, "M", 1), r_m)


def p_err_mismatch(design: SignalDesign, mm: MismatchModel, M: int) -> DecisionRule:
    """Full pipeline: residual reduction, mismatch_problem, then set-based MAP."""
    return map_set_decision(mismatch_problem(design, residual(design, mm), M))
