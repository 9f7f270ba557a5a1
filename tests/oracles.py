"""Independent truncated-Fock-space oracle used to validate closed forms.

Operators are dense matrices built from the truncated ladder operator and
exponentiated with scipy; nothing here shares code with the package under
test.  Squeezing convention: S(z) = exp[(z* a^2 - z a'^2)/2], so S(r)|0>
with r > 0 squeezes the X = (a + a')/sqrt(2) quadrature.

`detector_composition` is the direct sum over incident, detected-signal and
dark counts that the detector's thinning matrix is checked against, and
`hermite_complex` the plain recurrence whose magnitudes show where the DSS
law's running recurrence must rescale.  `GaussianState` holds the first and
second moments of a symbol state.  `sample_counts` is the exception to
sharing no code: it histograms the Monte Carlo sampler's own inverse-CDF
draws, so the sampler's empirical pmf can be checked against the law.
`whole_shard_counts` and `whole_shard_physical_counts` share the sampler's
shard seeding and laws too: they draw each shard in one call per stage, the
reference that the chunked samplers must match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from iskennedy.gaussian_states import SignalDesign
from iskennedy.monte_carlo import (ImperfectScenario, Scenario, TrialConfig, _shards,
                                   scenario_problem)
from iskennedy.receiver_ideal import transform_means
from iskennedy.receiver_imperfect import DetectorModel, p_err_imperfect


def ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)).astype(complex), 1)


def displacement(alpha: complex, dim: int) -> np.ndarray:
    a = ladder(dim)
    return expm(alpha * a.conj().T - np.conjugate(alpha) * a)


def squeeze(z: complex, dim: int) -> np.ndarray:
    a = ladder(dim)
    ad = a.conj().T
    return expm(0.5 * (np.conjugate(z) * (a @ a) - z * (ad @ ad)))


def vacuum(dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    return v


def fock_pmf(psi: np.ndarray) -> np.ndarray:
    return np.abs(psi) ** 2


def squeezed_displaced_pmf(alpha: complex, r: float, theta: float, dim: int = 200) -> np.ndarray:
    """Photon pmf of S(r e^{j theta}) D(alpha) |0> (squeeze after displace)."""
    psi = squeeze(r * np.exp(1j * theta), dim) @ displacement(alpha, dim) @ vacuum(dim)
    return fock_pmf(psi)


def displaced_squeezed_pmf(alpha: complex, r: float, theta: float, dim: int = 200) -> np.ndarray:
    """Photon pmf of D(alpha) S(r e^{j theta}) |0> (displace after squeeze)."""
    psi = displacement(alpha, dim) @ squeeze(r * np.exp(1j * theta), dim) @ vacuum(dim)
    return fock_pmf(psi)


def receiver_output_pmf(alpha: float, r: float, z_receiver: complex, symbol: int,
                        dim: int = 200) -> np.ndarray:
    """Photon pmf after the full chain: displace by alpha, then squeeze by z_receiver.

    The input symbol state is D(+/- alpha) S(r)|0>; the nulling displacement
    D(alpha) turns it into S(r)|0> or D(2 alpha) S(r)|0>.
    """
    state = squeeze(r, dim) @ vacuum(dim)
    if symbol == 1:
        state = displacement(2.0 * alpha, dim) @ state
    return fock_pmf(squeeze(z_receiver, dim) @ state)


def hermite_complex(n: int, z: complex) -> complex:
    """Physicists' Hermite polynomial H_n(z) by the three-term recurrence."""
    if n < 0 or n != int(n):
        raise ValueError(f"order must be a nonnegative integer, got {n!r}")
    h_prev, h = 0.0 + 0.0j, 1.0 + 0.0j
    for k in range(int(n)):
        h_prev, h = h, 2.0 * z * h - 2.0 * k * h_prev
    return h


def pmf_mean(pmf: np.ndarray) -> float:
    return float(np.arange(len(pmf)) @ pmf)


def detector_composition(pmf, eta: float, nu: float, M: int, cutoff: int) -> tuple[list, int]:
    """Detected-count pmf over 0..M (bin M lumps counts >= M) of an incident
    pmf after binomial loss eta and additive Poisson(nu) darks, by the direct
    triple sum over incident k, detected signal j and dark count n - j.

    Incident numbers are read until 1 - 1e-12 of the mass is covered or k
    reaches `cutoff`; returns the bins and the number of pmf(k) calls.
    """
    dark = [math.exp(-nu) * nu ** j / math.factorial(j) for j in range(M)]
    detected = [0.0] * M
    covered, calls = 0.0, 0
    for k in range(cutoff + 1):
        pk = pmf(k)
        calls += 1
        covered += pk
        for j in range(min(k, M - 1) + 1):
            b = math.comb(k, j) * eta ** j * (1.0 - eta) ** (k - j)
            for n in range(j, M):
                detected[n] += pk * b * dark[n - j]
        if 1.0 - covered < 1e-12:
            break
    return detected + [1.0 - sum(detected)], calls


def sample_counts(design: SignalDesign, scenario: Scenario, symbol: int,
                  trials: int, seed: int) -> np.ndarray:
    """Histogram of sampled detector outcomes for one fixed symbol.

    Each count is the inverse-CDF draw searchsorted(cdf, u, "right") clipped
    at M, whose decision `simulate` reads without forming it; mainly for
    checking the sampler's empirical pmf against the analytic one.
    """
    if symbol not in (0, 1):
        raise ValueError(f"symbol must be 0 or 1, got {symbol!r}")
    config = TrialConfig(trials=trials, seed=seed, scenario=scenario)
    problem, _ = scenario_problem(design, scenario)
    dist = problem.dist0 if symbol == 0 else problem.dist1
    cdf = np.cumsum(dist.probs)
    hist = np.zeros(problem.M + 1, dtype=np.int64)
    for size, rng in _shards(config.trials, config.seed):
        counts = np.searchsorted(cdf, rng.random(size), side="right")
        np.clip(counts, 0, problem.M, out=counts)
        hist += np.bincount(counts, minlength=problem.M + 1)
    return hist


def whole_shard_counts(design: SignalDesign, config: TrialConfig) -> tuple[int, int, int, int]:
    """(fa_count, mi_count, sent0, sent1) of `simulate` with every shard drawn whole:
    one integers call for the symbols, one random call for u, and each flip
    edge gathered as edge[symbols]."""
    problem, rule = scenario_problem(design, config.scenario)
    accept = np.array([n in rule.accept_set for n in range(problem.M + 1)])
    flips = np.flatnonzero(accept[:-1] != accept[1:])
    edges = np.stack((np.cumsum(problem.dist0.probs)[flips],
                      np.cumsum(problem.dist1.probs)[flips]), axis=1)

    def decide(rng, symbols):
        u = rng.random(symbols.size)
        decide1 = np.full(u.size, accept[0])
        for edge in edges:
            decide1 ^= u >= edge[symbols]
        return decide1
    return _whole_shard_tally(config, decide)


def whole_shard_physical_counts(design: SignalDesign, det: DetectorModel,
                                trials: int, seed: int) -> tuple[int, int, int, int]:
    """(fa_count, mi_count, sent0, sent1) of `simulate_physical_imperfect` with
    every stage of a shard drawn in one call: incident, thinned, dark."""
    mu0, mu1 = transform_means(design)
    rule = p_err_imperfect(design, det)
    accept = np.array([n in rule.accept_set for n in range(det.M + 1)])

    def decide(rng, symbols):
        incident = rng.poisson(np.where(symbols == 1, mu1, mu0))
        detected = rng.binomial(incident, det.eta) + rng.poisson(det.nu, size=symbols.size)
        return accept[np.minimum(detected, det.M)]
    config = TrialConfig(trials=trials, seed=seed, scenario=ImperfectScenario(det))
    return _whole_shard_tally(config, decide)


def _whole_shard_tally(config: TrialConfig, decide) -> tuple[int, int, int, int]:
    sent1 = decided1 = hits = 0
    for size, rng in _shards(config.trials, config.seed):
        symbols = rng.integers(0, 2, size=size)
        decide1 = decide(rng, symbols)
        sent = symbols == 1
        sent1 += int(np.count_nonzero(sent))
        decided1 += int(np.count_nonzero(decide1))
        hits += int(np.count_nonzero(decide1 & sent))
    return decided1 - hits, sent1 - hits, config.trials - sent1, sent1


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of a single-mode Gaussian state.

    d is the (2,) displacement vector (<X>, <P>); V is the 2x2 symmetric
    covariance matrix.  For the pure states of this package det V = 1/4.
    """

    d: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        V = np.asarray(self.V, dtype=float)
        if d.shape != (2,) or V.shape != (2, 2):
            raise ValueError("expected shapes d=(2,), V=(2,2)")
        if not np.allclose(V, V.T, rtol=0.0, atol=1e-12):
            raise ValueError("covariance matrix must be symmetric")
        if np.linalg.det(V) <= 0 or V[0, 0] <= 0:
            raise ValueError("covariance matrix must be positive definite")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "V", V)


def gaussian_state(design: SignalDesign, symbol: int) -> GaussianState:
    """Moments of the symbol state: d = (+/- sqrt(2) alpha, 0), V = diag(e^-2r, e^2r)/2."""
    if symbol not in (0, 1):
        raise ValueError(f"symbol must be 0 or 1, got {symbol!r}")
    d = np.array([(1.0 if symbol == 1 else -1.0) * math.sqrt(2.0) * design.alpha, 0.0])
    V = np.diag([0.5 * math.exp(-2.0 * design.r), 0.5 * math.exp(2.0 * design.r)])
    return GaussianState(d=d, V=V)
