"""Stochastic oracle: simulate symbol transmission, counting, and decision.

Each trial draws u ~ U[0, 1) and is decided as its inverse-CDF count in the
chosen scenario's exact truncated pmf would be, so the sampler validates the
closed-form error probabilities against binomial statistics rather than
re-deriving the physics.  A second, physical-process sampler (Poisson draw,
binomial thinning, additive dark counts) cross-checks the imperfect-detector
statistics independently.

Sampling uses numpy's PCG64 generator, imported only where it samples.  Trials
are split into fixed-size shards whose seeds are spawned from the master seed,
so a report depends only on (trials, seed), not on how the shards are executed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .gaussian_states import SignalDesign
from .receiver_ideal import DecisionProblem, DecisionRule, ideal_count_pmf, ideal_decision
from .receiver_imperfect import DetectorModel, detected_count_pmf, p_err_imperfect
from .receiver_mismatch import MismatchModel, map_set_decision, mismatch_count_pmf, residual

_GENERATOR = "PCG64"
_SHARD_SIZE = 250_000
_IDEAL_M = 40


@dataclass(frozen=True, slots=True)
class IdealScenario:
    """Perfect receiver; _IDEAL_M only truncates the simulated outcome space."""


@dataclass(frozen=True, slots=True)
class ImperfectScenario:
    det: DetectorModel


@dataclass(frozen=True, slots=True)
class MismatchScenario:
    mm: MismatchModel
    M: int


Scenario = IdealScenario | ImperfectScenario | MismatchScenario


@dataclass(frozen=True, slots=True)
class TrialConfig:
    trials: int
    seed: int
    scenario: Scenario

    def __post_init__(self):
        for name, low in (("trials", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


@dataclass(frozen=True)
class TrialReport:
    """Estimate, its uncertainty, and agreement with the closed form; unlike the
    other records it is not slotted, so vars() spreads it into a table row."""

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
        problem = DecisionProblem(dist0=ideal_count_pmf(design, 0, _IDEAL_M),
                                  dist1=ideal_count_pmf(design, 1, _IDEAL_M))
        return problem, ideal_decision(design, _IDEAL_M)
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
    import numpy as np
    full, rem = divmod(trials, _SHARD_SIZE)
    sizes = [_SHARD_SIZE] * full + ([rem] if rem else [])
    for size, child in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        yield size, np.random.Generator(np.random.PCG64(child))


def simulate(design: SignalDesign, config: TrialConfig) -> TrialReport:
    """Run the trial budget and compare the error estimate to the closed form.

    Each trial draws a symbol, then u, and is decided from the rule's flip
    points in that symbol's CDF (`_flip_decider`), with no count formed.
    Deterministic: identical (design, config) give a bit-identical report.
    """
    import numpy as np
    problem, rule = scenario_problem(design, config.scenario)
    accept = np.array([n in rule.accept_set for n in range(problem.M + 1)])
    decide = _flip_decider(accept,
                           np.cumsum(problem.dist0.probs), np.cumsum(problem.dist1.probs))
    return _tally(config, rule, lambda rng, symbols: decide(symbols, rng.random(symbols.size)))


def _flip_decider(accept, cdf0, cdf1):
    """decide(symbols, u): accept[count] per trial, where the inverse-CDF count
    min(#{k : cdf_s[k] <= u}, M) is never formed.

    The cdfs are cumulative sums of nonnegative pmfs, hence nondecreasing, so
    the count exceeds j < M exactly when cdf_s[j] <= u.  The decision is
    therefore accept[0], flipped once for each flip point j
    (accept[j] != accept[j + 1]) whose edge cdf_s[j] u has reached.
    """
    import numpy as np
    flips = np.flatnonzero(accept[:-1] != accept[1:])
    edges = np.stack((cdf0[flips], cdf1[flips]), axis=1)

    def decide(symbols, u):
        decide1 = np.full(u.size, accept[0])
        for edge in edges:
            decide1 ^= u >= edge[symbols]
        return decide1
    return decide


def simulate_physical_imperfect(design: SignalDesign, det: DetectorModel,
                                trials: int, seed: int) -> TrialReport:
    """Physical-process cross-check of the imperfect-detector statistics.

    Incident photons are Poisson with the ideal means, each survives with
    probability eta, and independent Poisson dark counts add on top; the sum
    is clipped at the resolution.  Agreement with `simulate` on an
    ImperfectScenario validates the Poisson(eta mu + nu) model.
    """
    import numpy as np
    mu1 = 4.0 * design.n_eff
    rule = p_err_imperfect(design, det)
    accept = np.array([n in rule.accept_set for n in range(det.M + 1)])

    def decide(rng, symbols):
        incident = rng.poisson(np.where(symbols == 1, mu1, 0.0))
        detected = rng.binomial(incident, det.eta) + rng.poisson(det.nu, size=symbols.size)
        return accept[np.minimum(detected, det.M)]

    config = TrialConfig(trials=trials, seed=seed, scenario=ImperfectScenario(det))
    return _tally(config, rule, decide)


def _tally(config: TrialConfig, rule: DecisionRule, decide) -> TrialReport:
    """Send uniform random symbols shard by shard, decide each trial with
    decide(rng, symbols) (True: symbol 1), and compare to rule.p_err."""
    import numpy as np
    sent1 = decided1 = hits = 0
    for size, rng in _shards(config.trials, config.seed):
        symbols = rng.integers(0, 2, size=size)
        decide1 = decide(rng, symbols)
        sent = symbols == 1
        sent1 += int(np.count_nonzero(sent))
        decided1 += int(np.count_nonzero(decide1))
        hits += int(np.count_nonzero(decide1 & sent))
    trials = config.trials
    fa, mi, sent0 = decided1 - hits, sent1 - hits, trials - sent1
    estimate = (fa + mi) / trials
    std_error = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / trials)
    # z against the reference p avoids a zero sigma when no errors occur.
    reference = rule.p_err
    sigma_ref = math.sqrt(reference * (1.0 - reference) / trials)
    z = (estimate - reference) / sigma_ref if sigma_ref > 0 else 0.0
    return TrialReport(trials=trials, seed=config.seed, generator=_GENERATOR,
                       p_err_estimate=estimate, std_error=std_error, fa_count=fa,
                       mi_count=mi, sent0=sent0, sent1=sent1,
                       p_err_reference=reference, z_score=z)
