"""The inverse-squeezing Kennedy receiver with perfect optics and detection.

Chain: a nulling displacement D(alpha) maps the BPSK pair to on-off keying,
then the inverse squeezer S(-r) turns both hypotheses into coherent states
{|0>, |2 gamma>} with gamma = alpha e^r.  Photon counting then sees Poisson
statistics with means mu0 = 0 and mu1 = 4 n_eff, and the MAP rule reduces to
an integer threshold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .benchmarks import helstrom_cs, sql_cs, sql_dss_opt, bisect_root
from .errors import UndefinedProblemError, nonnegative
from .fock_statistics import CountDistribution, clamp_to_resolution, poisson_pmf
from .gaussian_states import SignalDesign, binary_symbol

# Threshold accept sets kept: every (n_th, M) of a sweep over a few detectors.  Keys
# are typed, so a float M misses the cache and fails in range() as it does uncached.
_ACCEPT_SET_CAP = 64


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

    accept_set holds the outcomes mapped to symbol 1.  threshold is set when
    the rule is of the form {n >= n_th} and None otherwise; such rules share
    the one set threshold_accept_set keeps, so compare accept sets with ==.
    """

    accept_set: frozenset[int]
    threshold: int | None
    p_fa: float
    p_mi: float
    p_err: float

    def __post_init__(self):
        expected = 0.5 * (self.p_fa + self.p_mi)
        if abs(self.p_err - expected) > 1e-14:
            raise ValueError("p_err inconsistent with (p_fa + p_mi)/2")

    @classmethod
    def from_rates(cls, accept_set: frozenset[int], threshold: int | None,
                   p_fa: float, p_mi: float) -> "DecisionRule":
        return cls(accept_set=accept_set, threshold=threshold, p_fa=p_fa, p_mi=p_mi,
                   p_err=0.5 * (p_fa + p_mi))


@functools.lru_cache(maxsize=_ACCEPT_SET_CAP, typed=True)
def threshold_accept_set(n_th: int, M: int) -> frozenset[int]:
    """{max(n_th, 0), ..., M}: one shared immutable set per (n_th, M), the last
    _ACCEPT_SET_CAP kept."""
    return frozenset(range(max(n_th, 0), M + 1))


def transform_means(design: SignalDesign) -> tuple[float, float]:
    """Poisson means after the receiver front end: (0, 4 n_eff)."""
    return 0.0, 4.0 * design.n_eff


def ideal_count_pmf(design: SignalDesign, symbol: int, M: int) -> CountDistribution:
    """Count statistics behind a perfect detector, truncated to resolution M."""
    mu = transform_means(design)[binary_symbol(symbol)]
    return clamp_to_resolution(lambda n: poisson_pmf(n, mu), M)


def map_threshold_ideal(mu0: float, mu1: float) -> int:
    """Smallest count deciding symbol 1: ceil((mu1-mu0)/(ln mu1 - ln mu0)).

    The mu0 -> 0 limit of the ratio is 0+, so the threshold is 1 there.
    """
    if not 0.0 <= mu0 < mu1 < math.inf:
        raise ValueError(f"need finite mu1 > mu0 >= 0, got ({mu0!r}, {mu1!r})")
    if mu0 == 0.0:
        return 1
    return math.ceil((mu1 - mu0) / (math.log(mu1) - math.log(mu0)))


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
    """Threshold-1 rule with its exact error rates over the truncated space."""
    mu0, mu1 = transform_means(design)
    if mu1 <= mu0:
        raise UndefinedProblemError("hypotheses are identical at zero energy")
    p_mi = math.exp(-mu1)  # P(n = 0 | symbol 1)
    return DecisionRule.from_rates(threshold_accept_set(1, M), 1, 0.0, p_mi)
