"""Stochastic oracle: simulate symbol transmission, counting, and decision.

Counts are drawn by inverse CDF from the exact truncated pmfs of the chosen
scenario, so the sampler validates the closed-form error probabilities
against binomial statistics rather than re-deriving the physics.  A second,
physical-process sampler (Poisson draw, binomial thinning, additive dark
counts) cross-checks the imperfect-detector statistics independently.

Sampling uses numpy's PCG64 generator.  Trials are split into fixed-size
shards whose seeds are spawned from the master seed, so a report depends
only on (trials, seed), not on how the shards are executed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError
from .gaussian_states import SignalDesign
from .receiver_ideal import DecisionProblem, DecisionRule, ideal_count_pmf, ideal_decision
from .receiver_imperfect import DetectorModel, detected_count_pmf, p_err_imperfect
from .receiver_mismatch import MismatchModel, map_set_decision, mismatch_count_pmf, residual

_GENERATOR = "PCG64"
_SHARD_SIZE = 250_000


@dataclass(frozen=True)
class IdealScenario:
    """Perfect receiver; M only truncates the simulated outcome space."""

    M: int = 40


@dataclass(frozen=True)
class ImperfectScenario:
    det: DetectorModel


@dataclass(frozen=True)
class MismatchScenario:
    mm: MismatchModel
    M: int


Scenario = IdealScenario | ImperfectScenario | MismatchScenario


@dataclass(frozen=True)
class TrialConfig:
    trials: int
    seed: int
    scenario: Scenario

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class TrialReport:
    """Estimate, its uncertainty, and agreement with the closed form."""

    trials: int
    seed: int
    generator: str
    p_err_estimate: float
    std_error: float
    fa_count: int
    mi_count: int
    sent0: int
    sent1: int
    p_err_reference: float
    z_score: float


def scenario_problem(design: SignalDesign, scenario: Scenario) -> tuple[DecisionProblem, DecisionRule]:
    """Exact conditional pmfs and the receiver's decision rule for a scenario."""
    if isinstance(scenario, IdealScenario):
        problem = DecisionProblem(dist0=ideal_count_pmf(design, 0, scenario.M),
                                  dist1=ideal_count_pmf(design, 1, scenario.M))
        return problem, ideal_decision(design, scenario.M)
    if isinstance(scenario, ImperfectScenario):
        problem = DecisionProblem(dist0=detected_count_pmf(design, scenario.det, 0),
                                  dist1=detected_count_pmf(design, scenario.det, 1))
        return problem, p_err_imperfect(design, scenario.det)
    if isinstance(scenario, MismatchScenario):
        res = residual(design, scenario.mm)
        problem = DecisionProblem(dist0=mismatch_count_pmf(design, res, scenario.M, 0),
                                  dist1=mismatch_count_pmf(design, res, scenario.M, 1))
        return problem, map_set_decision(problem)
    raise TypeError(f"unknown scenario {scenario!r}")


def _shards(trials: int, seed: int):
    """Yield (size, generator) for each fixed-size shard of the trial budget.

    Shard i draws from a PCG64 seeded with the i-th child spawned from seed.
    """
    full, rem = divmod(trials, _SHARD_SIZE)
    sizes = [_SHARD_SIZE] * full + ([rem] if rem else [])
    for size, child in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        yield size, np.random.Generator(np.random.PCG64(child))


def sample_counts(design: SignalDesign, scenario: Scenario, symbol: int,
                  trials: int, seed: int) -> np.ndarray:
    """Histogram of sampled detector outcomes for one fixed symbol.

    Uses the same inverse-CDF draw as `simulate`; mainly for checking the
    sampler's empirical pmf against the analytic one.
    """
    problem, _ = scenario_problem(design, scenario)
    dist = problem.dist0 if symbol == 0 else problem.dist1
    cdf = np.cumsum(dist.probs)
    hist = np.zeros(problem.M + 1, dtype=np.int64)
    for size, rng in _shards(trials, seed):
        counts = np.searchsorted(cdf, rng.random(size), side="right")
        np.clip(counts, 0, problem.M, out=counts)
        hist += np.bincount(counts, minlength=problem.M + 1)
    return hist


def simulate(design: SignalDesign, config: TrialConfig) -> TrialReport:
    """Run the trial budget and compare the error estimate to the closed form.

    Deterministic: identical (design, config) give a bit-identical report.
    """
    problem, rule = scenario_problem(design, config.scenario)
    for dist in (problem.dist0, problem.dist1):
        if abs(dist.probs.sum() - 1.0) > 1e-12:
            raise NumericalConsistencyError("scenario pmf is not normalized")
    cdf0 = np.cumsum(problem.dist0.probs)
    cdf1 = np.cumsum(problem.dist1.probs)

    def draw(rng, symbols):
        u = rng.random(symbols.size)
        counts = np.where(
            symbols == 0,
            np.searchsorted(cdf0, u, side="right"),
            np.searchsorted(cdf1, u, side="right"),
        )
        return np.clip(counts, 0, problem.M, out=counts)

    return _tally(config, rule, problem.M, draw)


def simulate_physical_imperfect(design: SignalDesign, det: DetectorModel,
                                trials: int, seed: int) -> TrialReport:
    """Physical-process cross-check of the imperfect-detector statistics.

    Incident photons are Poisson with the ideal means, each survives with
    probability eta, and independent Poisson dark counts add on top; the sum
    is clipped at the resolution.  Agreement with `simulate` on an
    ImperfectScenario validates the Poisson(eta mu + nu) model.
    """
    mu1 = 4.0 * design.n_eff

    def draw(rng, symbols):
        incident = rng.poisson(np.where(symbols == 1, mu1, 0.0))
        detected = rng.binomial(incident, det.eta) + rng.poisson(det.nu, size=symbols.size)
        return np.minimum(detected, det.M)

    config = TrialConfig(trials=trials, seed=seed, scenario=ImperfectScenario(det))
    return _tally(config, p_err_imperfect(design, det), det.M, draw)


def _tally(config: TrialConfig, rule: DecisionRule, M: int, draw) -> TrialReport:
    """Send uniform random symbols shard by shard, count them with
    draw(rng, symbols), decide with rule, and compare to rule.p_err."""
    accept = np.zeros(M + 1, dtype=bool)
    accept[list(rule.accept_set)] = True
    fa = mi = sent0 = sent1 = 0
    for size, rng in _shards(config.trials, config.seed):
        symbols = rng.integers(0, 2, size=size)
        counts = draw(rng, symbols)  # kept to the next shard: freeing it early slowed simulate 10%
        decide1 = accept[counts]
        sent0 += int(np.sum(symbols == 0))
        sent1 += int(np.sum(symbols == 1))
        fa += int(np.sum(decide1 & (symbols == 0)))
        mi += int(np.sum(~decide1 & (symbols == 1)))

    trials = config.trials
    estimate = (fa + mi) / trials
    std_error = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / trials)
    # z against the reference p avoids a zero sigma when no errors occur.
    reference = rule.p_err
    sigma_ref = math.sqrt(reference * (1.0 - reference) / trials)
    z = (estimate - reference) / sigma_ref if sigma_ref > 0 else 0.0
    return TrialReport(
        trials=trials,
        seed=config.seed,
        generator=_GENERATOR,
        p_err_estimate=estimate,
        std_error=std_error,
        fa_count=fa,
        mi_count=mi,
        sent0=sent0,
        sent1=sent1,
        p_err_reference=reference,
        z_score=z,
    )
