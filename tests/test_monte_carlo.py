import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iskennedy import (
    DetectorModel,
    IdealScenario,
    ImperfectScenario,
    MismatchModel,
    MismatchScenario,
    TrialConfig,
    TrialReport,
    design_at_optimal_beta,
    p_err_ideal,
    p_err_imperfect,
    p_err_mismatch,
    simulate,
    simulate_physical_imperfect,
)
from iskennedy.cli import validation_battery
from iskennedy.monte_carlo import _CHUNK, _SHARD_SIZE, _flip_decider, scenario_problem

from oracles import sample_counts, whole_shard_counts, whole_shard_physical_counts


def test_seed_determinism():
    design = design_at_optimal_beta(0.8)
    config = TrialConfig(trials=400_000, seed=123, scenario=IdealScenario())
    assert simulate(design, config) == simulate(design, config)


def test_different_seeds_differ():
    design = design_at_optimal_beta(0.5)
    a = simulate(design, TrialConfig(trials=200_000, seed=1, scenario=IdealScenario()))
    b = simulate(design, TrialConfig(trials=200_000, seed=2, scenario=IdealScenario()))
    assert a.p_err_estimate != b.p_err_estimate


def test_report_bookkeeping():
    design = design_at_optimal_beta(0.5)
    rep = simulate(design, TrialConfig(trials=100_000, seed=5, scenario=IdealScenario()))
    assert rep.sent0 + rep.sent1 == rep.trials
    assert rep.p_err_estimate == (rep.fa_count + rep.mi_count) / rep.trials
    assert rep.generator == "PCG64"
    assert math.isfinite(rep.z_score)
    assert rep.p_err_reference == pytest.approx(p_err_ideal(0.5), rel=1e-12)


_DERIVED = ("trials", "generator", "p_err_estimate", "std_error", "z_score")


def _tally_formulas(fa_count, mi_count, sent0, sent1, p_err_reference, **_):
    """The derived fields written out as `_tally` computed them before a report derived them."""
    trials = sent0 + sent1
    estimate = (fa_count + mi_count) / trials
    std_error = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / trials)
    sigma_ref = math.sqrt(p_err_reference * (1.0 - p_err_reference) / trials)
    z = (estimate - p_err_reference) / sigma_ref if sigma_ref > 0 else 0.0
    return {"trials": trials, "generator": "PCG64", "p_err_estimate": estimate,
            "std_error": std_error, "z_score": z}


@st.composite
def _report_inputs(draw):
    sent0 = draw(st.integers(0, 10**7))
    sent1 = draw(st.integers(0 if sent0 else 1, 10**7))
    return {"seed": draw(st.integers(0, 2**63)), "fa_count": draw(st.integers(0, sent0)),
            "mi_count": draw(st.integers(0, sent1)), "sent0": sent0, "sent1": sent1,
            "p_err_reference": draw(st.sampled_from([0.0, 5e-324, 0.5, 1.0]) |
                                    st.floats(0.0, 1.0))}


class TestReportFromItsCounts:
    def test_the_init_fields_are_the_six_inputs(self):
        assert [f.name for f in dataclasses.fields(TrialReport) if f.init] == [
            "seed", "fa_count", "mi_count", "sent0", "sent1", "p_err_reference"]
        with pytest.raises(TypeError):
            TrialReport(trials=10, seed=0, generator="MT19937", p_err_estimate=0.9,
                        std_error=0.0, fa_count=0, mi_count=0, sent0=3, sent1=3,
                        p_err_reference=0.1, z_score=-5.0)

    @given(_report_inputs())
    @settings(max_examples=300, deadline=None)
    def test_derived_fields_are_the_tally_formulas_bit_for_bit(self, inputs):
        report = TrialReport(**inputs)
        assert repr({name: getattr(report, name) for name in _DERIVED}) == \
            repr(_tally_formulas(**inputs))
        assert vars(report) == {**inputs, **_tally_formulas(**inputs)}

    def test_replace_recomputes_the_derived_fields_and_refuses_to_set_one(self):
        report = simulate(design_at_optimal_beta(1.0), TrialConfig(
            trials=20_000, seed=3, scenario=ImperfectScenario(DetectorModel(0.5, 1e-3, 1))))
        moved = dataclasses.replace(report, fa_count=report.fa_count + 500)
        inputs = {name: getattr(moved, name) for name in vars(moved) if name not in _DERIVED}
        assert vars(moved) == {**inputs, **_tally_formulas(**inputs)}
        assert moved.p_err_estimate == (report.fa_count + 500 + report.mi_count) / report.trials
        assert moved.z_score > report.z_score + 10
        for name in _DERIVED:
            with pytest.raises(ValueError, match=name):
                dataclasses.replace(report, **{name: getattr(report, name)})

    @pytest.mark.parametrize("sent0, sent1", [(0, 0), (-1, 0), (2, -3)])
    def test_a_report_of_no_trials_raises(self, sent0, sent1):
        with pytest.raises(ValueError, match=r"sent0 \+ sent1 >= 1"):
            TrialReport(seed=0, fa_count=0, mi_count=0, sent0=sent0, sent1=sent1,
                        p_err_reference=0.1)

    @pytest.mark.parametrize("fa_count, mi_count, sent0, sent1, name", [
        (500, 0, 3, 3, "fa_count"), (4, 0, 3, 3, "fa_count"), (0, 4, 3, 3, "mi_count"),
        (-1, 0, 3, 3, "fa_count"), (0, -1, 3, 3, "mi_count"), (0, 0, -1, 5, "sent0"),
        (0, 0, 5, -1, "sent1")])
    def test_counts_that_contradict_each_other_raise(self, fa_count, mi_count, sent0, sent1,
                                                     name):
        with pytest.raises(ValueError, match=rf"^{name}\b"):
            TrialReport(seed=0, fa_count=fa_count, mi_count=mi_count, sent0=sent0,
                        sent1=sent1, p_err_reference=0.1)

    def test_every_trial_in_error_builds(self):
        report = TrialReport(seed=0, fa_count=3, mi_count=4, sent0=3, sent1=4,
                             p_err_reference=0.1)
        assert (report.trials, report.p_err_estimate, report.std_error) == (7, 1.0, 0.0)


def test_ideal_concordance_million_trials():
    design = design_at_optimal_beta(1.0)
    rep = simulate(design, TrialConfig(trials=1_000_000, seed=901, scenario=IdealScenario()))
    assert abs(rep.z_score) < 3.0


def test_imperfect_concordance_million_trials():
    design = design_at_optimal_beta(3.0)
    det = DetectorModel(eta=1.0, nu=1e-2, M=2)
    rep = simulate(design, TrialConfig(trials=1_000_000, seed=902,
                                       scenario=ImperfectScenario(det)))
    assert rep.p_err_reference == pytest.approx(p_err_imperfect(design, det).p_err, rel=1e-12)
    assert abs(rep.z_score) < 3.0


def test_mismatch_concordance_million_trials():
    design = design_at_optimal_beta(2.0)
    mm = MismatchModel(0.02, 0.0)
    rep = simulate(design, TrialConfig(trials=1_000_000, seed=903,
                                       scenario=MismatchScenario(mm, M=3)))
    assert rep.p_err_reference == pytest.approx(p_err_mismatch(design, mm, 3).p_err, rel=1e-12)
    assert abs(rep.z_score) < 3.0


def test_coverage_calibration():
    # Binomial z-scores against the exact reference: 3-sigma coverage over
    # 50 independent seeds should only rarely miss (allow 3 misses).
    design = design_at_optimal_beta(0.5)
    inside = 0
    for seed in range(50):
        rep = simulate(design, TrialConfig(trials=100_000, seed=7000 + seed,
                                           scenario=IdealScenario()))
        inside += abs(rep.z_score) <= 3.0
    assert inside >= 47


def test_empirical_pmf_total_variation():
    design = design_at_optimal_beta(1.0)
    scenario = MismatchScenario(MismatchModel(0.02, 0.03 * math.pi), M=5)
    problem, _ = scenario_problem(design, scenario)
    trials = 400_000
    hist = sample_counts(design, scenario, 1, trials, seed=31)
    tv = 0.5 * np.abs(hist / trials - problem.dist1.probs).sum()
    assert tv < 5.0 / math.sqrt(trials)


@pytest.mark.parametrize("symbol, trials, seed, message", [
    (5, 1000, 1, "symbol must be 0 or 1"), (-1, 1000, 1, "symbol must be 0 or 1"),
    (1, 0, 1, "trials must be an integer"), (1, 1e3, 1, "trials must be an integer"),
    (0, 1000, -1, "seed must be an integer"), (0, 1000, 1.5, "seed must be an integer"),
])
def test_sample_counts_rejects_bad_arguments(symbol, trials, seed, message):
    scenario = MismatchScenario(MismatchModel(0.02, 0.0), M=3)
    with pytest.raises(ValueError, match=f"^{message}"):
        sample_counts(design_at_optimal_beta(1.0), scenario, symbol, trials, seed)


def test_physical_process_cross_check():
    # Poisson draw + binomial thinning + additive darks must agree with the
    # closed-form Poisson(eta mu + nu) error probability.
    design = design_at_optimal_beta(1.0)
    det = DetectorModel(eta=0.7, nu=5e-3, M=2)
    rep = simulate_physical_imperfect(design, det, trials=1_000_000, seed=904)
    assert rep.p_err_reference == pytest.approx(p_err_imperfect(design, det).p_err, rel=1e-12)
    assert abs(rep.z_score) < 3.0


def test_trialconfig_validation():
    with pytest.raises(ValueError):
        TrialConfig(trials=0, seed=1, scenario=IdealScenario())


@pytest.mark.parametrize("trials, seed, field", [
    (1e3, 1, "trials"), ("1000", 1, "trials"), (1000, -1, "seed"), (1000, 1.5, "seed"),
    (1000, None, "seed"),
])
def test_trialconfig_names_the_bad_field(trials, seed, field):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        TrialConfig(trials=trials, seed=seed, scenario=IdealScenario())


def test_trialconfig_accepts_numpy_integers():
    config = TrialConfig(trials=np.int64(7), seed=np.uint64(3), scenario=IdealScenario())
    design = design_at_optimal_beta(1.0)
    assert simulate(design, config) == simulate(
        design, TrialConfig(trials=7, seed=3, scenario=IdealScenario()))


def test_scenario_problem_rule_consistency():
    design = design_at_optimal_beta(1.0)
    for scenario in (IdealScenario(),
                     ImperfectScenario(DetectorModel(0.8, 1e-3, 3)),
                     MismatchScenario(MismatchModel(0.02, 0.1), M=4)):
        problem, rule = scenario_problem(design, scenario)
        p_fa = sum(problem.dist0.probs[n] for n in rule.accept_set)
        p_mi = sum(problem.dist1.probs[n] for n in range(problem.M + 1)
                   if n not in rule.accept_set)
        assert rule.p_err == pytest.approx(0.5 * (p_fa + p_mi), abs=1e-12)


# (fa_count, mi_count, sent0, sent1) at each (seed, trials) of _PIN_CASES, in
# order, recorded from the sampler that binary-searched each trial's count.
# Any change to the decision kernel must keep these reports bit for bit.
_PIN_CASES = [(seed, trials) for seed in (20260811, 5) for trials in (1, 7, 250_000, 250_001)]
_PINNED = {
    "ideal N=1.0": [
        (0, 0, 0, 1), (0, 0, 2, 5), (0, 38, 124577, 125423), (0, 38, 124578, 125423),
        (0, 0, 1, 0), (0, 0, 4, 3), (0, 39, 124931, 125069), (0, 39, 124931, 125070)],
    "ideal N=0.5": [
        (0, 0, 0, 1), (0, 0, 5, 2), (0, 6287, 125001, 124999), (0, 6287, 125002, 124999),
        (0, 0, 1, 0), (0, 0, 3, 4), (0, 6350, 124382, 125618), (0, 6350, 124383, 125618)],
    "imperfect eta=1.0 nu=1e-2 M=2 N=3.0": [
        (0, 0, 1, 0), (0, 0, 2, 5), (7, 0, 124824, 125176), (7, 0, 124825, 125176),
        (0, 0, 1, 0), (0, 0, 3, 4), (7, 0, 124913, 125087), (7, 0, 124913, 125088)],
    "imperfect eta=0.5 nu=1e-3 M=1 N=1.0": [
        (0, 0, 0, 1), (0, 0, 4, 3), (110, 2281, 124859, 125141), (110, 2281, 124860, 125141),
        (0, 0, 0, 1), (0, 0, 2, 5), (103, 2377, 125172, 124828), (103, 2377, 125172, 124829)],
    "mismatch dr=0.02 dt=0 M=3 N=2.0": [
        (0, 0, 1, 0), (0, 0, 4, 3), (0, 0, 125083, 124917), (0, 0, 125084, 124917),
        (0, 0, 1, 0), (0, 0, 6, 1), (0, 0, 125089, 124911), (0, 0, 125089, 124912)],
    "mismatch dr=0.02 dt=0.03pi M=1 N=1.0": [
        (0, 0, 0, 1), (0, 0, 3, 4), (273, 54, 125056, 124944), (273, 54, 125057, 124944),
        (0, 0, 0, 1), (0, 0, 1, 6), (253, 67, 125200, 124800), (253, 67, 125201, 124800)],
    # Parity accept set {1, 3, 5, 7, 9, 10}: nine flips of the decision.
    "parity N=0.05 dr=0.3 dt=0.5 M=10": [
        (0, 0, 0, 1), (0, 4, 2, 5), (1, 104140, 124577, 125423), (1, 104140, 124578, 125423),
        (0, 0, 1, 0), (0, 3, 4, 3), (1, 103776, 124931, 125069), (1, 103777, 124931, 125070)],
    "physical eta=0.5 nu=1e-3 M=1 N=1.0": [
        (0, 0, 0, 1), (0, 0, 2, 5), (123, 2311, 124577, 125423), (123, 2311, 124578, 125423),
        (0, 0, 1, 0), (0, 0, 4, 3), (144, 2338, 124931, 125069), (144, 2338, 124931, 125070)],
}


@pytest.mark.parametrize("case", range(len(_PIN_CASES)),
                         ids=[f"seed{s}-trials{t}" for s, t in _PIN_CASES])
def test_pinned_report_counts(case):
    seed, trials = _PIN_CASES[case]
    reports = {row["scenario"]: row for row in validation_battery(trials, seed)}
    parity = simulate(design_at_optimal_beta(0.05), TrialConfig(
        trials=trials, seed=seed, scenario=MismatchScenario(MismatchModel(0.3, 0.5), M=10)))
    physical = simulate_physical_imperfect(
        design_at_optimal_beta(1.0), DetectorModel(eta=0.5, nu=1e-3, M=1), trials, seed)
    reports["parity N=0.05 dr=0.3 dt=0.5 M=10"] = vars(parity)
    reports["physical eta=0.5 nu=1e-3 M=1 N=1.0"] = vars(physical)
    got = {label: (r["fa_count"], r["mi_count"], r["sent0"], r["sent1"])
           for label, r in reports.items()}
    assert got == {label: pins[case] for label, pins in _PINNED.items()}


@st.composite
def _pmf(draw, M):
    """A pmf over 0..M with zero entries (ties in its CDF) and a mass within
    1e-12 of 1 that may leave the last CDF value above or below 1."""
    weights = np.array(draw(st.lists(st.sampled_from([0.0, 1e-300, 1e-17, 0.25, 1.0, 3.0]) |
                                     st.floats(0.0, 1.0), min_size=M + 1, max_size=M + 1)))
    if not weights.any():
        weights[draw(st.integers(0, M))] = 1.0
    pmf = weights / weights.sum()
    pmf[draw(st.integers(0, M))] += draw(st.sampled_from([0.0, 1e-13, -1e-13, 5e-13, -5e-13]))
    return np.clip(pmf, 0.0, 1.0)


@st.composite
def _kernel_case(draw):
    M = draw(st.integers(1, 12))
    cdf0, cdf1 = np.cumsum(draw(_pmf(M))), np.cumsum(draw(_pmf(M)))
    accept = np.array(draw(st.sampled_from([
        [False] * (M + 1), [True] * (M + 1), [n % 2 == 1 for n in range(M + 1)],
        [n % 2 == 0 for n in range(M + 1)]]) | st.lists(st.booleans(), min_size=M + 1,
                                                       max_size=M + 1)))
    # u on the CDF values, their float neighbours, and the ends of [0, 1).
    points = np.concatenate((cdf0, cdf1))
    points = np.concatenate((points, np.nextafter(points, 0.0), np.nextafter(points, 2.0),
                             [0.0, np.nextafter(1.0, 0.0)]))
    points = points[(points >= 0.0) & (points < 1.0)]
    u = np.concatenate((points, draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                              max_size=20))))
    sent = np.array(draw(st.lists(st.booleans(), min_size=u.size, max_size=u.size)), dtype=bool)
    return accept, cdf0, cdf1, sent, u


def _case(accept, cdf0, cdf1, sent, u):
    return (np.array(accept), np.array(cdf0), np.array(cdf1), np.array(sent, dtype=bool),
            np.array(u))


_U = [0.0, 0.2, 0.3, 0.5, 0.6, 0.7, 0.9]


@given(_kernel_case())
@settings(max_examples=300, deadline=None)
# No flip: every outcome accepted, then every outcome rejected.
@example(_case([True] * 3, [0.5, 0.8, 1.0], [0.1, 0.4, 1.0], [0, 1] * 7, _U * 2))
@example(_case([False] * 3, [0.5, 0.8, 1.0], [0.1, 0.4, 1.0], [0, 1] * 7, _U * 2))
# A flip whose symbol-1 edge (0.2) lies below its symbol-0 edge (0.7).
@example(_case([False, True], [0.7, 1.0], [0.2, 1.0], [0] * 7 + [1] * 7, _U * 2))
# Equal edges, on two flips.
@example(_case([False, True, False], [0.3, 0.6, 1.0], [0.3, 0.6, 1.0], [1, 0] * 7, _U * 2))
# u exactly on each edge, sent true and false at the same u; the symbol-1 edge
# lies below the symbol-0 edge at the first flip and above it at the second.
@example(_case([True, False, True], [0.3, 0.5, 1.0], [0.2, 0.9, 1.0], [1, 0] * 4,
               [0.3, 0.3, 0.5, 0.5, 0.2, 0.2, 0.9, 0.9]))
def test_flip_decisions_equal_the_inverse_cdf_count(case):
    accept, cdf0, cdf1, sent, u = case
    M = accept.size - 1
    counts = np.where(sent, np.searchsorted(cdf1, u, "right"),
                      np.searchsorted(cdf0, u, "right"))
    expected = accept[np.clip(counts, 0, M)]
    got = _flip_decider(accept, cdf0, cdf1)(sent, u)
    assert got.dtype == bool
    assert (got == expected).all()


def test_flip_decider_leaves_sent_and_u_unchanged():
    rng = np.random.default_rng(4)
    sent, u = rng.integers(0, 2, size=1000).astype(bool), rng.random(1000)
    sent.flags.writeable = u.flags.writeable = False  # a write into either raises
    _flip_decider(np.array([False, True, False]), np.array([0.3, 0.6, 1.0]),
                  np.array([0.1, 0.8, 1.0]))(sent, u)


# Trial budgets on every chunk and shard edge: the pinned cases cross a shard
# edge but not every chunk edge.
_STREAM_TRIALS = [1, _CHUNK - 1, _CHUNK, _CHUNK + 1, _SHARD_SIZE, _SHARD_SIZE + _CHUNK + 1]
_DETECTOR = DetectorModel(eta=0.5, nu=1e-3, M=1)
_STREAM_SCENARIOS = {
    "ideal N=0.5": (0.5, IdealScenario()),
    "imperfect eta=0.5 nu=1e-3 M=1 N=1.0": (1.0, ImperfectScenario(_DETECTOR)),
    "mismatch dr=0.02 dt=0.03pi M=1 N=1.0": (
        1.0, MismatchScenario(MismatchModel(0.02, 0.03 * math.pi), M=1)),
    "parity N=0.05 dr=0.3 dt=0.5 M=10": (0.05, MismatchScenario(MismatchModel(0.3, 0.5), M=10)),
    "physical eta=0.5 nu=1e-3 M=1 N=1.0": (1.0, ImperfectScenario(_DETECTOR)),
}


@pytest.mark.parametrize("trials", _STREAM_TRIALS)
@pytest.mark.parametrize("label", sorted(_STREAM_SCENARIOS))
def test_chunked_sampling_keeps_the_whole_shard_stream(label, trials):
    N, scenario = _STREAM_SCENARIOS[label]
    design, seed = design_at_optimal_beta(N), 20260811
    if label.startswith("physical"):
        report = simulate_physical_imperfect(design, scenario.det, trials, seed)
        expected = whole_shard_physical_counts(design, scenario.det, trials, seed)
    else:
        config = TrialConfig(trials=trials, seed=seed, scenario=scenario)
        report = simulate(design, config)
        expected = whole_shard_counts(design, config)
    assert (report.fa_count, report.mi_count, report.sent0, report.sent1) == expected


@pytest.mark.parametrize("sampler, bound_mib", [
    (lambda design, seed: simulate(design, TrialConfig(1_000_000, seed, IdealScenario())), 2),
    (lambda design, seed: simulate_physical_imperfect(design, _DETECTOR, 1_000_000, seed), 4),
], ids=["simulate", "simulate_physical_imperfect"])
def test_a_million_trials_stay_within_a_few_mib(sampler, bound_mib):
    # numpy reports its data buffers to tracemalloc.  Drawn a whole shard at a
    # time, these calls peak at 6.7 MiB (simulate) and 8.4 MiB (physical sampler).
    design = design_at_optimal_beta(1.0)
    sampler(design, 1)  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        sampler(design, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20
