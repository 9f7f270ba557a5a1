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
Each shard is drawn and decided in chunks of _CHUNK trials, so no array
outgrows a chunk except the shard's symbols, its decisions and the physical
sampler's counts.  A shard still draws every symbol first, then each stage of its
variates in turn; a Generator returns the same stream whether a stage is drawn
in one call or in consecutive chunks, so chunking moves no draw.

A symbol is the top bit of a 32-bit half of a raw PCG64 word, low half first:
the bits that `rng.integers(0, 2, n)` would return, read without its bounded
draw.  An odd last chunk leaves the unread half of its last word where integers
would buffer it, and every later draw reads whole 64-bit words, so it moves none.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from .errors import whole_number
from .gaussian_states import SignalDesign
from .receiver_ideal import (DecisionProblem, DecisionRule, ideal_count_pmf, ideal_decision,
                             transform_means)
from .receiver_imperfect import DetectorModel, detected_count_pmf, p_err_imperfect
from .receiver_mismatch import MismatchModel, map_set_decision, mismatch_problem, residual

_GENERATOR = "PCG64"
_SHARD_SIZE = 250_000
_CHUNK = 32_768


@dataclass(frozen=True, slots=True)
class IdealScenario:
    """Perfect on-off receiver: a trial's outcome is no click (count 0, symbol 0) or a
    click (bin 1, every count >= 1, symbol 1)."""


@dataclass(frozen=True, slots=True)
class ImperfectScenario:
    det: DetectorModel


@dataclass(frozen=True, slots=True)
class MismatchScenario:
    mm: MismatchModel
    M: int

    def __post_init__(self):
        object.__setattr__(self, "M", whole_number(self.M, "M", 1))


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
    """Estimate, its uncertainty, and agreement with the closed form, built from the
    counts: trials = sent0 + sent1 (at least 1), generator, p_err_estimate, std_error and
    z_score are derived, so `dataclasses.replace` recomputes them and raises ValueError if
    asked to set one.  The counts must agree: ValueError names a negative count, or
    fa_count above sent0, or mi_count above sent1.  Unlike the other records it is not
    slotted, so vars() spreads all eleven fields into a `validate` row."""

    trials: int = field(init=False)
    seed: int
    generator: str = field(init=False)
    p_err_estimate: float = field(init=False)
    std_error: float = field(init=False)
    fa_count: int
    mi_count: int
    sent0: int
    sent1: int
    p_err_reference: float
    z_score: float = field(init=False)

    def __post_init__(self):
        trials = self.sent0 + self.sent1
        if trials < 1:
            raise ValueError(f"a report needs sent0 + sent1 >= 1 trials, got {trials!r}")
        for name in ("fa_count", "mi_count", "sent0", "sent1"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for errors, sent in (("fa_count", "sent0"), ("mi_count", "sent1")):
            if getattr(self, errors) > getattr(self, sent):
                raise ValueError(f"{errors} = {getattr(self, errors)!r} exceeds "
                                 f"{sent} = {getattr(self, sent)!r}, the trials it counts among")
        estimate = (self.fa_count + self.mi_count) / trials
        std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
        # z against the reference p avoids a zero sigma when no errors occur.
        reference = self.p_err_reference
        sigma_ref = math.sqrt(reference * (1.0 - reference) / trials)
        z = (estimate - reference) / sigma_ref if sigma_ref > 0 else 0.0
        for name, value in (("trials", trials), ("generator", _GENERATOR),
                            ("p_err_estimate", estimate), ("std_error", std_error),
                            ("z_score", z)):
            object.__setattr__(self, name, value)


def scenario_problem(design: SignalDesign, scenario: Scenario) -> tuple[DecisionProblem, DecisionRule]:
    """Exact conditional pmfs and the receiver's decision rule for a scenario; a mismatch
    scenario's pmfs are mismatch_problem's, decided by map_set_decision."""
    if isinstance(scenario, IdealScenario):
        problem = DecisionProblem(dist0=ideal_count_pmf(design, 0, 1),
                                  dist1=ideal_count_pmf(design, 1, 1))
        return problem, ideal_decision(design, 1)
    if isinstance(scenario, ImperfectScenario):
        problem = DecisionProblem(dist0=detected_count_pmf(design, scenario.det, 0),
                                  dist1=detected_count_pmf(design, scenario.det, 1))
        return problem, p_err_imperfect(design, scenario.det)
    if isinstance(scenario, MismatchScenario):
        problem = mismatch_problem(design, residual(design, scenario.mm), scenario.M)
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


def _chunks(array):
    """Consecutive views of at most _CHUNK trials that cover a shard's array, in order."""
    return (array[start:start + _CHUNK] for start in range(0, array.size, _CHUNK))


def simulate(design: SignalDesign, config: TrialConfig) -> TrialReport:
    """Run the trial budget and compare the error estimate to the closed form.

    Each trial draws a symbol, then u, and is decided from the rule's flip
    points in that symbol's CDF (`_flip_decider`), with no count formed; a
    shard's u are drawn and decided one chunk at a time.
    Deterministic: identical (design, config) give a bit-identical report.
    """
    import numpy as np
    problem, rule = scenario_problem(design, config.scenario)
    accept = np.array([n in rule.accept_set for n in range(problem.M + 1)])
    flip = _flip_decider(accept, np.cumsum(problem.dist0.probs), np.cumsum(problem.dist1.probs))

    def decide(rng, sent):
        decide1 = np.empty(sent.size, dtype=bool)
        for sent_part, part in zip(_chunks(sent), _chunks(decide1)):
            part[...] = flip(sent_part, rng.random(part.size))
        return decide1
    return _tally(config, rule, decide)


def _flip_decider(accept, cdf0, cdf1):
    """decide(sent, u): accept[count] per trial, where sent is the bool array of
    symbol-1 trials and the inverse-CDF count min(#{k : cdf_s[k] <= u}, M) is
    never formed.

    The cdfs are cumulative sums of nonnegative pmfs, hence nondecreasing, so
    the count exceeds j < M exactly when cdf_s[j] <= u.  The decision is
    therefore accept[0], flipped once for each flip point j
    (accept[j] != accept[j + 1]) whose edge cdf_s[j] u has reached.

    A trial's edge is selected without a float array: u is compared with both
    edges into two reused bool arrays, and the symbol-0 answer is replaced by
    the symbol-1 answer where sent is true and the two differ.  Each decision
    is the same IEEE `u >= edge` as comparing u with the selected edge.
    sent and u are only read.
    """
    import numpy as np
    flips = np.flatnonzero(accept[:-1] != accept[1:])
    edges = np.stack((cdf0[flips], cdf1[flips]), axis=1)

    def decide(sent, u):
        decide1 = np.full(u.size, accept[0])
        reached, reached1 = np.empty(u.size, dtype=bool), np.empty(u.size, dtype=bool)
        for edge0, edge1 in edges:
            np.greater_equal(u, edge0, out=reached)
            np.greater_equal(u, edge1, out=reached1)
            reached1 ^= reached  # where the two edges disagree
            reached1 &= sent     # on a symbol-1 trial,
            reached ^= reached1  # take the symbol-1 edge's answer
            decide1 ^= reached
        return decide1
    return decide


def simulate_physical_imperfect(design: SignalDesign, det: DetectorModel,
                                trials: int, seed: int) -> TrialReport:
    """Physical-process cross-check of the imperfect-detector statistics.

    Incident photons are Poisson with the ideal means, each survives with
    probability eta, and independent Poisson dark counts add on top; the sum
    is clipped at the resolution.  Agreement with `simulate` on an
    ImperfectScenario validates the Poisson(eta mu + nu) model.  A shard draws
    all its incident counts, then all thinnings, then all dark counts, each
    stage chunk by chunk into one count array updated in place.
    """
    import numpy as np
    mu0, mu1 = transform_means(design)
    rule = p_err_imperfect(design, det)
    accept = np.array([n in rule.accept_set for n in range(det.M + 1)])

    def decide(rng, sent):
        counts = np.empty(sent.size, dtype=np.int64)
        for sent_part, part in zip(_chunks(sent), _chunks(counts)):
            part[...] = rng.poisson(np.where(sent_part, mu1, mu0))
        for part in _chunks(counts):
            part[...] = rng.binomial(part, det.eta)
        for part in _chunks(counts):
            part += rng.poisson(det.nu, size=part.size)
        return accept[np.minimum(counts, det.M, out=counts)]

    config = TrialConfig(trials=trials, seed=seed, scenario=ImperfectScenario(det))
    return _tally(config, rule, decide)


def _tally(config: TrialConfig, rule: DecisionRule, decide) -> TrialReport:
    """Send uniform random symbols shard by shard, decide each trial with
    decide(rng, sent) (True: symbol 1), and count: the report built from the
    counts and rule.p_err derives the estimate and its comparison.

    A shard's symbols are drawn chunk by chunk into the bool array sent (True:
    symbol 1) before decide draws anything, so every symbol precedes the
    shard's variates in the stream; decide returns the shard's bool decisions.

    A chunk of n symbols reads (n + 1) // 2 raw PCG64 words as 32-bit halves,
    low half first, and a symbol is 1 where its half's top bit is set.  These
    are the bits rng.integers(0, 2, n) returns: it takes one 32-bit draw per
    symbol from the halves of one word, by Lemire's method with range 2, whose
    result is the top bit.  An odd chunk leaves unread the half that integers
    would buffer; only a shard's last chunk can be odd (_CHUNK is even), and
    every later draw of the shard reads whole 64-bit words, so no draw moves.
    """
    import numpy as np
    sent1 = decided1 = hits = 0
    for size, rng in _shards(config.trials, config.seed):
        sent = np.empty(size, dtype=bool)
        for part in _chunks(sent):
            words = rng.bit_generator.random_raw((part.size + 1) // 2)
            halves = words.astype("<u8", copy=False).view("<u4")[:part.size]
            np.greater_equal(halves, np.uint32(1 << 31), out=part)
        del words, halves  # the last chunk's, freed before decide allocates
        decide1 = decide(rng, sent)
        sent1 += int(np.count_nonzero(sent))
        decided1 += int(np.count_nonzero(decide1))
        hits += int(np.count_nonzero(decide1 & sent))
        del sent, decide1  # freed before the next shard allocates its own
    return TrialReport(seed=config.seed, fa_count=decided1 - hits, mi_count=sent1 - hits,
                       sent0=config.trials - sent1, sent1=sent1, p_err_reference=rule.p_err)
