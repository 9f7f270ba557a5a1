"""The inverse-squeezing Kennedy receiver with perfect optics and detection.

Chain: a nulling displacement D(alpha) maps the BPSK pair to on-off keying,
then the inverse squeezer S(-r) turns both hypotheses into coherent states
{|0>, |2 gamma>} with gamma = alpha e^r.  Photon counting then sees Poisson
statistics with means mu0 = 0 and mu1 = 4 n_eff, and the MAP rule reduces to
an integer threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .benchmarks import helstrom_cs, sql_cs, sql_dss_opt, bisect_root
from .errors import nonnegative
from .fock_statistics import CountDistribution, clamp_to_resolution, poisson_law, resolution
from .gaussian_states import SignalDesign, binary_symbol


@dataclass(frozen=True, slots=True)
class DecisionProblem:
    """Binary hypothesis test, under equal priors, over a shared truncated outcome space."""

    dist0: CountDistribution
    dist1: CountDistribution

    def __post_init__(self):
        if self.dist0.M != self.dist1.M:
            raise ValueError("both conditionals must share the same resolution M")

    @property
    def M(self) -> int:
        return self.dist0.M


@dataclass(frozen=True, slots=True)
class DecisionRule:
    """Outcome -> symbol map plus its error budget, a slotted frozen record.

    accept_set holds the outcomes mapped to symbol 1: range(n_th, M + 1)
    (threshold_accept_set) for a rule of the form {n >= n_th}, and a frozenset
    otherwise; range(1, 3) != frozenset({1, 2}), so compare like with like.
    p_err must equal (p_fa + p_mi)/2 (from_rates computes it).
    """

    accept_set: range | frozenset[int]
    p_fa: float
    p_mi: float
    p_err: float

    def __post_init__(self):
        expected = 0.5 * (self.p_fa + self.p_mi)
        if abs(self.p_err - expected) > 1e-14:
            raise ValueError("p_err inconsistent with (p_fa + p_mi)/2")

    @property
    def threshold(self) -> int | None:
        """n_th of a threshold rule, read from its range; None for a frozenset."""
        return self.accept_set.start if isinstance(self.accept_set, range) else None

    @classmethod
    def from_rates(cls, accept_set: range | frozenset[int], p_fa: float,
                   p_mi: float) -> "DecisionRule":
        return cls(accept_set=accept_set, p_fa=p_fa, p_mi=p_mi, p_err=0.5 * (p_fa + p_mi))


def threshold_accept_set(n_th: int, M: int) -> range:
    """{max(n_th, 0), ..., M} as a range, O(1) in M; n_th is read as a whole
    number (1.0 as 1; 1.5, NaN and +-inf raise ValueError) and M as a resolution."""
    k = n_th if n_th.__class__ is int else int(n_th) if -math.inf < n_th < math.inf else None
    if k is None or k != n_th:
        raise ValueError(f"n_th must be a whole number, got {n_th!r}")
    return range(k if k > 0 else 0, resolution(M) + 1)


def transform_means(design: SignalDesign) -> tuple[float, float]:
    """Poisson means after the receiver front end: (0, 4 n_eff)."""
    return 0.0, 4.0 * design.n_eff


def ideal_count_pmf(design: SignalDesign, symbol: int, M: int) -> CountDistribution:
    """Count statistics behind a perfect detector, truncated to resolution M."""
    mu = transform_means(design)[binary_symbol(symbol)]
    return clamp_to_resolution(poisson_law(mu), M)


def _map_threshold(mu0: float, signal: float) -> int:
    """Smallest n >= 1 where Poisson(mu0 + signal) is as likely as Poisson(mu0) or more:
    ceil(signal / ln(1 + signal/mu0)).  It is 1 at mu0 = 0 and where signal/mu0
    overflows, and the continuous limit ceil(mu0) where signal/mu0 underflows."""
    if mu0 == 0.0:
        return 1
    log_ratio = math.log1p(signal / mu0)
    if log_ratio == 0.0:
        return math.ceil(mu0)
    return math.ceil(signal / log_ratio) or 1  # 0 only where signal/mu0 overflows


def map_threshold_ideal(mu0: float, mu1: float) -> int:
    """Smallest count deciding Poisson(mu1) over Poisson(mu0): ceil((mu1 - mu0) /
    ln(1 + (mu1 - mu0)/mu0)), 1 at mu0 = 0; accurate where ln mu1 - ln mu0 would cancel."""
    if not 0.0 <= mu0 < mu1 < math.inf:
        raise ValueError(f"need finite mu1 > mu0 >= 0, got ({mu0!r}, {mu1!r})")
    return _map_threshold(mu0, mu1 - mu0)


def p_err_ideal(N: float) -> float:
    """Receiver error exp(-4N(N+1))/2 at the optimal energy split."""
    nonnegative(N, "N")
    return 0.5 * math.exp(-4.0 * N * (N + 1.0))


def p_err_kennedy(N: float) -> float:
    """Conventional Kennedy (coherent-state on-off) error exp(-4N)/2."""
    nonnegative(N, "N")
    return 0.5 * math.exp(-4.0 * N)


def ratio_to_helstrom(N: float) -> float:
    """p_err_ideal / Helstrom bound.

    Algebraically E/(1 - sqrt(1-E)) = 1 + sqrt(1-E) with E = exp(-4N(N+1)),
    which avoids the cancellation in the quotient form and makes the [1, 2]
    range explicit.
    """
    nonnegative(N, "N")
    E = math.exp(-4.0 * N * (N + 1.0))
    return 1.0 + math.sqrt(1.0 - E)


@dataclass(frozen=True, slots=True)
class BenchmarkCrossings:
    """Energies where the ideal receiver curve crosses each benchmark."""

    vs_sql_cs: float
    vs_sql_dss: float
    vs_hb_cs: float


def crossings_vs_benchmarks() -> BenchmarkCrossings:
    """Locate the three crossings on N in (0.05, 1]; about 0.21, 0.30, 0.40."""
    return BenchmarkCrossings(
        vs_sql_cs=bisect_root(lambda N: p_err_ideal(N) - sql_cs(N), 0.05, 1.0),
        vs_sql_dss=bisect_root(lambda N: p_err_ideal(N) - sql_dss_opt(N), 0.05, 1.0),
        vs_hb_cs=bisect_root(lambda N: p_err_ideal(N) - helstrom_cs(N), 0.05, 1.0),
    )


def ideal_decision(design: SignalDesign, M: int) -> DecisionRule:
    """Threshold-1 rule, the MAP rule at mu0 = 0, with its exact error rates over
    the truncated space.  At zero energy both hypotheses are the vacuum and the
    rule errs half the time (p_err 0.5)."""
    p_mi = math.exp(-transform_means(design)[1])  # P(n = 0 | symbol 1)
    return DecisionRule.from_rates(threshold_accept_set(1, M), 0.0, p_mi)
