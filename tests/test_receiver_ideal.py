import copy
import dataclasses
import gc
import math
import pickle
import tracemalloc

import numpy as np
import pytest

import iskennedy
from iskennedy import (
    DecisionProblem,
    DecisionRule,
    DetectorModel,
    IdealScenario,
    ImperfectScenario,
    MismatchModel,
    MismatchScenario,
    PhaseSpacePoint,
    TrialConfig,
    TrialReport,
    design_at_optimal_beta,
    hb_dss_opt,
    helstrom_cs,
    ideal_count_pmf,
    ideal_decision,
    make_design,
    map_set_decision,
    map_threshold_ideal,
    mismatch_problem,
    optimal_threshold,
    p_err_ideal,
    p_err_imperfect,
    p_err_kennedy,
    ratio_db,
    ratio_to_helstrom,
    residual,
    spd_mismatch_error,
    sql_cs,
    sql_dss_opt,
    transform_means,
    crossings_vs_benchmarks,
)
from iskennedy import receiver_ideal
from iskennedy.benchmarks import bisect_root


class TestTransformMeans:
    def test_optimal_unit_energy(self):
        assert transform_means(design_at_optimal_beta(1.0)) == pytest.approx((0.0, 8.0), rel=1e-12)

    def test_coherent_limit(self):
        assert transform_means(make_design(1.3, 0.0)) == pytest.approx((0.0, 5.2), rel=1e-12)

    def test_zero_energy(self):
        assert transform_means(make_design(0.0, 0.0)) == (0.0, 0.0)


class TestIdealCountPmf:
    def test_symbol0_is_vacuum(self):
        dist = ideal_count_pmf(design_at_optimal_beta(1.0), 0, 5)
        np.testing.assert_allclose(dist.probs, [1, 0, 0, 0, 0, 0], atol=0)

    def test_symbol1_vacuum_element(self):
        dist = ideal_count_pmf(design_at_optimal_beta(1.0), 1, 10)
        assert dist.probs[0] == pytest.approx(math.exp(-8.0), rel=1e-13)
        assert dist.probs[0] == pytest.approx(3.355e-4, rel=1e-3)

    def test_normalized(self):
        for M in (1, 4, 32):
            dist = ideal_count_pmf(design_at_optimal_beta(0.7), 1, M)
            assert np.sum(dist.probs) == pytest.approx(1.0, abs=1e-12)


class TestMapThreshold:
    def test_zero_dark_limit(self):
        assert map_threshold_ideal(0.0, 8.0) == 1
        assert map_threshold_ideal(0.0, 1e-9) == 1

    def test_closed_form_cases(self):
        assert map_threshold_ideal(1.0, math.e) == 2
        assert map_threshold_ideal(2.0, 4.0) == 3

    def test_nearly_equal_means(self):
        # The quotient is 115.93201786713777 (mpmath); d / (ln mu1 - ln mu0) cancels to 114.8.
        assert map_threshold_ideal(115.9320178671369, 115.93201786713864) == 116

    def test_ordering_error(self):
        with pytest.raises(ValueError):
            map_threshold_ideal(3.0, 2.0)
        with pytest.raises(ValueError):
            map_threshold_ideal(2.0, 2.0)


class TestErrorClosedForms:
    def test_reference_values(self):
        assert p_err_ideal(0.0) == 0.5
        assert p_err_ideal(1.0) == pytest.approx(0.5 * math.exp(-8.0), rel=1e-14)
        assert p_err_ideal(1.0) == pytest.approx(1.6773e-4, rel=1e-4)
        assert p_err_kennedy(0.0) == 0.5
        assert p_err_kennedy(1.0) == pytest.approx(0.5 * math.exp(-4.0), rel=1e-14)

    def test_matches_kennedy_at_effective_energy(self):
        for N in (0.3, 1.0, 2.5):
            n_eff = design_at_optimal_beta(N).n_eff
            assert p_err_ideal(N) == pytest.approx(p_err_kennedy(n_eff), rel=1e-12)

    def test_gain_over_kennedy_at_unit_energy(self):
        gain = ratio_db(p_err_kennedy(1.0), p_err_ideal(1.0))
        assert gain == pytest.approx(17.4, abs=0.05)

    def test_gains_vs_benchmarks_at_unit_energy(self):
        p = p_err_ideal(1.0)
        assert ratio_db(sql_cs(1.0), p) == pytest.approx(21.3, abs=0.1)
        assert ratio_db(sql_dss_opt(1.0), p) == pytest.approx(11.4, abs=0.1)
        assert ratio_db(helstrom_cs(1.0), p) == pytest.approx(14.4, abs=0.1)
        assert ratio_db(p, hb_dss_opt(1.0)) == pytest.approx(3.0, abs=0.1)


class TestRatioToHelstrom:
    def test_limits(self):
        assert ratio_to_helstrom(0.0) == pytest.approx(1.0)
        assert ratio_to_helstrom(1e-9) == pytest.approx(1.0, abs=1e-4)
        assert abs(ratio_to_helstrom(5.0) - 2.0) < 1e-6

    def test_unit_energy_band(self):
        assert 1.9 < ratio_to_helstrom(1.0) < 2.0

    def test_equals_quotient_form(self):
        for N in (0.1, 0.5, 1.0):
            E = math.exp(-4.0 * N * (N + 1.0))
            quotient = E / (1.0 - math.sqrt(1.0 - E))
            assert ratio_to_helstrom(N) == pytest.approx(quotient, rel=1e-9)

    def test_sandwich_property(self):
        for N in np.linspace(3.0 / 300.0, 3.0, 300):
            p, hb = p_err_ideal(N), hb_dss_opt(N)
            assert hb <= p <= 2.0 * hb


class TestCrossings:
    def test_locations(self):
        c = crossings_vs_benchmarks()
        assert c.vs_sql_cs == pytest.approx(0.21, abs=0.02)
        assert c.vs_sql_dss == pytest.approx(0.30, abs=0.02)
        assert c.vs_hb_cs == pytest.approx(0.40, abs=0.02)

    def test_ordering(self):
        c = crossings_vs_benchmarks()
        assert c.vs_sql_cs < c.vs_sql_dss < c.vs_hb_cs


def test_sub_one_percent_threshold():
    n_star = bisect_root(lambda N: p_err_ideal(N) - 0.01, 0.1, 2.0, xtol=1e-9)
    assert 0.58 <= n_star <= 0.65


class TestThresholdEquivalence:
    @pytest.mark.parametrize("N", [0.2, 0.7, 1.0, 2.0])
    @pytest.mark.parametrize("M", [1, 3, 8])
    def test_map_equals_threshold(self, N, M):
        design = design_at_optimal_beta(N)
        problem = DecisionProblem(
            dist0=ideal_count_pmf(design, 0, M),
            dist1=ideal_count_pmf(design, 1, M),
        )
        brute = map_set_decision(problem)
        rule = ideal_decision(design, M)
        assert brute.accept_set == rule.accept_set == range(1, M + 1)
        assert brute.threshold == 1
        assert abs(brute.p_err - rule.p_err) <= 1e-14

    def test_zero_energy_is_a_coin_flip(self):
        # Both hypotheses are the vacuum: the threshold-1 rule misses every symbol 1.
        rule = ideal_decision(make_design(0.0, 0.0), 4)
        assert (rule.accept_set, rule.threshold) == (range(1, 5), 1)
        assert (rule.p_fa, rule.p_mi, rule.p_err) == (0.0, 1.0, 0.5)


class TestDecisionTypes:
    def test_rule_error_consistency_enforced(self):
        with pytest.raises(ValueError):
            DecisionRule(accept_set=frozenset({1}), p_fa=0.1, p_mi=0.2, p_err=0.3)

    def test_rule_from_rates(self):
        rule = DecisionRule.from_rates(frozenset({1, 3}), 0.1, 0.2)
        assert rule.p_err == pytest.approx(0.15)
        assert rule.threshold is None
        assert DecisionRule.from_rates(range(2, 5), 0.1, 0.2).threshold == 2

    def test_a_rule_is_built_from_its_four_fields_and_the_threshold_is_read(self):
        init = [f.name for f in dataclasses.fields(DecisionRule) if f.init]
        assert init == ["accept_set", "p_fa", "p_mi", "p_err"]
        with pytest.raises(TypeError):
            DecisionRule(accept_set=range(1, 5), threshold=1, p_fa=0.0, p_mi=0.5, p_err=0.25)
        rule = DecisionRule.from_rates(range(1, 5), 0.0, 0.5)
        with pytest.raises((AttributeError, TypeError)):  # TypeError: frozen slots on 3.11
            rule.threshold = 2

    def test_problem_requires_matching_resolution(self):
        design = design_at_optimal_beta(1.0)
        with pytest.raises(ValueError):
            DecisionProblem(dist0=ideal_count_pmf(design, 0, 3),
                            dist1=ideal_count_pmf(design, 1, 4))


def _one_of_each_slotted_record():
    design = design_at_optimal_beta(1.0)
    det, mm = DetectorModel(eta=0.9, nu=1e-3, M=4), MismatchModel(0.02, 0.03 * math.pi)
    dists = ideal_count_pmf(design, 0, 4), ideal_count_pmf(design, 1, 4)
    return [design, PhaseSpacePoint(0.5, -0.25), dists[1], DecisionProblem(*dists),
            ideal_decision(design, 4), crossings_vs_benchmarks(), det, mm, residual(design, mm),
            IdealScenario(), ImperfectScenario(det), MismatchScenario(mm, 3),
            TrialConfig(trials=1000, seed=7, scenario=MismatchScenario(mm, 3))]


class TestSlottedRecords:
    def test_every_record_but_the_trial_report_is_slotted_and_round_trips(self):
        records = _one_of_each_slotted_record()
        declared = {obj for obj in vars(iskennedy).values()
                    if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
        assert {type(record) for record in records} == declared - {TrialReport}
        for record in records:
            assert not hasattr(record, "__dict__"), type(record)
            assert pickle.loads(pickle.dumps(record)) == record
            assert copy.deepcopy(record) == record

    def test_replace_rebuilds_and_rechecks_a_rule(self):
        rule = ideal_decision(design_at_optimal_beta(1.0), 4)
        moved = dataclasses.replace(rule, p_mi=0.25, p_err=0.5 * (rule.p_fa + 0.25))
        assert moved == DecisionRule.from_rates(rule.accept_set, rule.p_fa, 0.25)
        with pytest.raises(ValueError):
            dataclasses.replace(rule, p_fa=0.5)

    def test_vars_spreads_a_trial_report(self):
        report = TrialReport(seed=7, fa_count=3, mi_count=5, sent0=40, sent1=60,
                             p_err_reference=0.1)
        names = [field.name for field in dataclasses.fields(TrialReport)]
        assert len(names) == 11
        assert vars(report) == {name: getattr(report, name) for name in names}

    def test_rules_of_one_threshold_hold_one_range(self):
        design, M = design_at_optimal_beta(1.0), 4
        det = DetectorModel(eta=0.9, nu=1e-3, M=M)
        imperfect = [p_err_imperfect(design_at_optimal_beta(N), det) for N in (0.6, 0.7)]
        problem = DecisionProblem(ideal_count_pmf(design, 0, M), ideal_count_pmf(design, 1, M))
        rules = imperfect + [ideal_decision(design, M), ideal_decision(make_design(0.3, 0.2), M),
                             map_set_decision(problem)]
        assert {rule.threshold for rule in rules} == {1}
        assert {rule.accept_set for rule in rules} == {range(1, M + 1)}
        assert all(type(rule.accept_set) is range for rule in rules)

    def test_every_producer_reads_its_threshold_from_a_range(self):
        mm, rules = MismatchModel(0.02, 0.05), []
        for N in (0.0, 0.3, 1.0, 3.0):
            design = design_at_optimal_beta(N)
            for det in (DetectorModel(0.9, nu, M) for nu in (0.0, 1e-2, 2.0) for M in (1, 4)):
                rule = p_err_imperfect(design, det)
                assert rule.threshold == optimal_threshold(det, design.n_eff)
                rules.append(rule)
            res = residual(design, mm)
            rules += [ideal_decision(design, M) for M in (1, 4)]
            rules += [map_set_decision(mismatch_problem(design, res, M)) for M in (1, 3, 10)]
            rules.append(spd_mismatch_error(design, res))
        assert {type(rule.accept_set) for rule in rules} == {range, frozenset}
        for rule in rules:
            is_range = type(rule.accept_set) is range
            assert rule.threshold == (rule.accept_set.start if is_range else None)

    def test_the_accept_set_reads_n_th_and_m(self):
        # A whole float M reads as its int resolution; any other M raises.
        accept_set = receiver_ideal.threshold_accept_set
        assert accept_set(1, 4.0) == accept_set(1, 4) == range(1, 5)
        with pytest.raises(ValueError, match="resolution"):
            accept_set(1, 4.5)
        # n_th likewise: a whole float reads as its int, a negative one clamps to 0.
        assert accept_set(1.0, 4) == accept_set(1, 4)
        assert accept_set(-1.0, 4) == accept_set(-1, 4) == range(5)
        for n_th in (1.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^n_th must be a whole number"):
                accept_set(n_th, 4)

    def test_retained_imperfect_rules_stay_small(self):
        det = DetectorModel(eta=0.9, nu=1e-3, M=4)
        designs = [design_at_optimal_beta(N) for N in np.linspace(0.05, 3.0, 10_000).tolist()]
        assert {p_err_imperfect(d, det).threshold for d in designs[::100]} == {1, 2, 3, 4}
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [p_err_imperfect(d, det) for d in designs]
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(kept) == 10_000
        assert held / len(kept) <= 250

    @pytest.mark.parametrize("decide", [
        lambda design, M: p_err_imperfect(design, DetectorModel(1.0, 1e-3, M)),
        ideal_decision,
    ], ids=["p_err_imperfect", "ideal_decision"])
    def test_a_threshold_rule_costs_no_memory_in_m(self, decide):
        design, M = design_at_optimal_beta(1.0), 3_000_000
        decide(design, 4)  # first-call allocations (scipy, kept dark tails) are not M's
        gc.collect()
        tracemalloc.start()
        try:
            rule = decide(design, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rule.accept_set == range(rule.threshold, M + 1)
        assert peak <= 4096
