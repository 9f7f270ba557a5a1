"""Signal alphabet for binary phase-shift keying with displaced squeezed vacuum.

The two symbols are phase-opposite displaced squeezed states D(+/-alpha)S(r)|0>
with real alpha >= 0 and r >= 0.  Total mean photon number N = alpha^2 + sinh^2(r)
is split between displacement and squeezing by the squeezing fraction
beta = sinh^2(r)/N.  Quadrature convention: X = (a + a^dag)/sqrt(2), so the
vacuum variance is 1/2 and the squeezed X-variance is exp(-2r)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import finite, nonnegative, whole_number


@dataclass(frozen=True, slots=True)
class SignalDesign:
    """One point of the alphabet parameterization, built from (N, beta) alone.

    alpha, r, gamma and n_eff are derived, never passed: `dataclasses.replace`
    recomputes them, and raises ValueError if asked to set one.

    Attributes
    ----------
    N : float
        Mean photon number per symbol, N = alpha^2 + sinh^2(r).
    beta : float
        Squeezing fraction sinh^2(r)/N, in [0, 1].
    alpha : float
        Real displacement amplitude sqrt(N(1 - beta)), >= 0.
    r : float
        Squeezing magnitude asinh sqrt(N beta), >= 0.
    gamma : float
        Effective amplitude alpha*exp(r) seen after inverse squeezing.
    n_eff : float
        Effective photon number gamma^2.  Equals N(N+1) at the optimal beta.
    """

    N: float
    beta: float
    alpha: float = field(init=False)
    r: float = field(init=False)
    gamma: float = field(init=False)
    n_eff: float = field(init=False)

    def __post_init__(self):
        N, beta = self.N, self.beta
        nonnegative(N, "N")
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta, the squeezing fraction, must lie in [0, 1], got {beta!r}")
        alpha = math.sqrt(N * (1.0 - beta))
        r = math.asinh(math.sqrt(N * beta))
        gamma = alpha * math.exp(r)
        n_eff = gamma * gamma
        if n_eff == math.inf:
            raise OverflowError(f"the effective photon number overflows at N = {N!r}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "n_eff", n_eff)


def _mean_x(design: SignalDesign, symbol: int) -> float:
    """<X> of the symbol state, -/+ sqrt(2) alpha for symbol 0/1."""
    side = 1.0 if whole_number(symbol, "symbol", 0, 1) == 1 else -1.0
    return side * math.sqrt(2.0) * design.alpha


def optimal_beta(N: float) -> float:
    """Energy split that minimizes the discrimination error at fixed N."""
    nonnegative(N, "N")
    return N / (2.0 * N + 1.0)


def make_design(N: float, beta: float) -> SignalDesign:
    """The alphabet point for total energy N and squeezing fraction beta: SignalDesign(N, beta)."""
    return SignalDesign(N, beta)


def design_at_optimal_beta(N: float) -> SignalDesign:
    return make_design(N, optimal_beta(N))


def wigner_dss(x: float, p: float, design: SignalDesign, symbol: int) -> float:
    """Wigner density (1/pi) exp{-e^2r (x -/+ sqrt(2)a)^2 - e^-2r p^2} at (x, p), both
    finite: wigner_grid's value there, bit for bit."""
    return next(wigner_grid([finite(x, "x")], [finite(p, "p")], design, symbol))[0]


def wigner_grid(xs: list[float], ps: list[float], design: SignalDesign, symbol: int):
    """The Wigner density over xs x ps, one x line (a list over ps) at a time, with
    the x and p terms hoisted.  The symbol and the axes are checked at the call;
    the lines are made as they are read."""
    if not all(map(math.isfinite, [*xs, *ps])):
        raise ValueError("phase-space coordinates must be finite")
    centre = _mean_x(design, symbol)
    minus_e2r, em2r = -math.exp(2.0 * design.r), math.exp(-2.0 * design.r)
    p_terms = [em2r * p * p for p in ps]
    x_terms = (minus_e2r * (x - centre) * (x - centre) for x in xs)
    return ([math.exp(x_term - p_term) / math.pi for p_term in p_terms] for x_term in x_terms)


def homodyne_pdf(x: float, design: SignalDesign, symbol: int) -> float:
    """Probability density of the X-quadrature outcome given the sent symbol.

    This is the p-marginal of the Wigner function: a Gaussian of variance
    exp(-2r)/2 centered at +/- sqrt(2) alpha; x must be finite.
    """
    dx = finite(x, "x") - _mean_x(design, symbol)
    return math.exp(design.r) / math.sqrt(math.pi) * math.exp(-math.exp(2.0 * design.r) * dx * dx)
