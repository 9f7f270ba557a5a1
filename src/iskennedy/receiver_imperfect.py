"""Receiver performance with a lossy, noisy, finite-resolution photon counter.

Detection efficiency eta and mean dark count rate nu turn the ideal Poisson
statistics into Poisson(eta * mu_i + nu); resolution M lumps all counts >= M
into one bin.  The likelihood ratio stays monotone in n, so the MAP decision
is an integer threshold, clipped at M.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from itertools import chain

from .errors import NumericalConsistencyError, nonnegative
from .fock_statistics import (_LAW_CAP, CountDistribution, KeptLaw, clamp_to_resolution,
                              log_factorials, poisson_cdf_below, poisson_law, poisson_tail_ge,
                              resolution)
from .gaussian_states import SignalDesign, binary_symbol
from .receiver_ideal import DecisionRule, _map_threshold, threshold_accept_set, transform_means


@dataclass(frozen=True, slots=True)
class DetectorModel:
    """Photon counter with efficiency eta, dark rate nu, resolution M.

    M = 1 models a single-photon (click / no-click) detector.
    """

    eta: float
    nu: float
    M: int

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        nonnegative(self.nu, "nu")
        object.__setattr__(self, "M", resolution(self.M))


def detected_count_pmf(design: SignalDesign, det: DetectorModel, symbol: int) -> CountDistribution:
    """Poisson(eta * mu_i + nu) truncated to the detector resolution."""
    mu = det.eta * transform_means(design)[binary_symbol(symbol)] + det.nu
    return clamp_to_resolution(poisson_law(mu), det.M)


def optimal_threshold(det: DetectorModel, n_eff: float) -> int:
    """MAP threshold min{ceil(4 eta n_eff / ln(1 + 4 eta n_eff / nu)), M}: 1 at
    nu = 0, also at zero energy, where both hypotheses are the vacuum."""
    return min(_map_threshold(det.nu, 4.0 * det.eta * nonnegative(n_eff, "n_eff")), det.M)


@functools.lru_cache(maxsize=64, typed=True)  # every (n_th, nu) step of a few detectors
def _false_alarm(n_th: int, nu: float) -> float:
    """P(n >= n_th) of the darks alone, kept per typed key; a miss calls poisson_tail_ge."""
    return poisson_tail_ge(n_th, nu)


def p_err_imperfect(design: SignalDesign, det: DetectorModel) -> DecisionRule:
    """Threshold rule and its exact error rates.

    False alarms are the upper Poisson tail of the dark-count mean at the
    threshold; misses are the lower tail of the signal+dark mean.  Lumping
    counts >= M into one bin changes neither tail for thresholds <= M.
    """
    signal = 4.0 * det.eta * design.n_eff
    n_th = _map_threshold(det.nu, signal)  # optimal_threshold inline, with no min() call
    if n_th > det.M:
        n_th = det.M
    p_fa = _false_alarm(n_th, det.nu)
    p_mi = poisson_cdf_below(n_th, signal + det.nu)
    return DecisionRule.from_rates(threshold_accept_set(n_th, det.M), p_fa, p_mi)


def saturation_floor(M: int, nu: float) -> float:
    """High-energy error floor nu^M / (2 M!)."""
    nonnegative(nu, "nu")
    M = resolution(M)
    if nu == 0.0:
        return 0.0
    return 0.5 * math.exp(M * math.log(nu) - math.lgamma(M + 1))


def exact_saturation_floor(M: int, nu: float) -> float:
    """Exact high-energy limit: half the dark-count tail P(n >= M; nu)."""
    nonnegative(nu, "nu")
    return 0.5 * poisson_tail_ge(resolution(M), nu)


class _Thinning:
    """Binomial thinning matrix of one (eta, M), read-only, as wide as the largest K read: a
    wider read builds the matrix anew at its K under the lock and replaces the old one."""

    __slots__ = ("eta", "M", "matrix", "_lock")

    def __init__(self, eta: float, M: int):
        self.eta, self.M, self._lock = eta, M, threading.Lock()
        self.matrix = _thinning_matrix(eta, M, 0)

    def columns(self, K: int):
        """B[:, :K] as a new C-contiguous array, so the product keeps a fresh build's bits."""
        import numpy as np
        matrix = self.matrix
        if matrix.shape[1] < K:
            with self._lock:
                if self.matrix.shape[1] < K:
                    self.matrix = _thinning_matrix(self.eta, self.M, K)
                matrix = self.matrix
        return np.ascontiguousarray(matrix[:, :K])


def _thinning_matrix(eta: float, M: int, K: int):
    """B[j, k] = Binom(j; k, eta) for j < M, k < K (the identity at eta = 1), read-only."""
    import numpy as np
    if eta == 1.0:
        thinning = np.eye(M, K)
    else:
        j, k = np.arange(M)[:, None], np.arange(K)
        lost = np.maximum(k - j, 0)
        size = max(M, K)
        log_fact = np.array(log_factorials(size)[:size])
        log_b = (log_fact[k] - log_fact[j] - log_fact[lost]
                 + j * math.log(eta) + lost * math.log1p(-eta))
        thinning = np.where(k >= j, np.exp(log_b), 0.0)
    thinning.flags.writeable = False
    return thinning


@functools.lru_cache(maxsize=_LAW_CAP)
def _thinning(eta: float, M: int) -> _Thinning:
    """The kept thinning matrix of one (eta, M); the last _LAW_CAP detectors are kept."""
    return _Thinning(eta, M)


@functools.lru_cache(maxsize=_LAW_CAP, typed=True)
def _dark_head(nu: float, M: int):
    """Dark counts P(0..M-1; nu) as one read-only array, kept per typed (nu, M)."""
    import numpy as np
    head = np.array(poisson_law(nu).head(M))
    head.flags.writeable = False
    return head


def apply_detector_to_pmf(pmf, det: DetectorModel) -> CountDistribution:
    """Push an arbitrary incident-photon pmf through the (eta, nu) detector.

    Experimental composition used only by the CLI: detected counts are a
    binomial thinning of the incident count plus independent Poisson darks.
    `pmf` maps an incident photon number to its probability; incident numbers
    are gathered until 1 - 1e-12 of the mass is covered, or up to 4M + 400, and
    none past that is read (a KeptLaw's kept values in one slice, then pmf(k));
    the rest is lumped into bin M, exact only at eta = 1 (else NumericalConsistencyError).
    Loss is one thinning matrix B[j, k] = Binom(j; k, eta), j < M, k < K for the K
    terms read (the identity at eta = 1); the darks P(0..M-1; nu) are convolved in,
    truncated at M.  Both are kept per process, bit-equal to a fresh build: B per
    (eta, M), as wide as the largest K read (at most 4M + 401 columns), and the dark
    head per (nu, M), the last _LAW_CAP keys of each.
    """
    import numpy as np  # the one array kernel here; the scalar receivers need no numpy
    limit = 4 * det.M + 401
    kept = pmf.kept(limit) if isinstance(pmf, KeptLaw) else []
    incident, covered = [], 0.0
    for p in chain(kept, map(pmf, range(len(kept), limit))):
        incident.append(p)
        covered += p
        if 1.0 - covered < 1e-12:
            break
    M, K = det.M, len(incident)
    if det.eta < 1.0 and 1.0 - covered >= 1e-12:
        raise NumericalConsistencyError(f"incident mass {1.0 - covered:.3g} lies past {K} terms")
    thinning = _thinning(det.eta, M).columns(K)
    detected = np.convolve(thinning @ np.array(incident), _dark_head(det.nu, M))[:M]
    probs = detected.tolist()
    probs.append(max(0.0, 1.0 - detected.sum()))
    return CountDistribution(probs=probs, M=M)
