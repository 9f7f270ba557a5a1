import ast
import cmath
import itertools
import math
import pathlib
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iskennedy import (
    CountDistribution,
    DecisionProblem,
    MismatchModel,
    MismatchScenario,
    bogoliubov,
    design_at_optimal_beta,
    dss_pmf,
    exact_parity_floor,
    first_order_residual,
    map_set_decision,
    mismatch_count_pmf,
    mismatch_problem,
    p_err_ideal,
    p_err_mismatch,
    parity_saturation_floor,
    residual,
    spd_mismatch_error,
)

from iskennedy import cli, monte_carlo
from iskennedy import receiver_mismatch as rm
from iskennedy.monte_carlo import scenario_problem

from oracles import fock_pmf, receiver_output_pmf, squeeze, squeezed_displaced_pmf, vacuum


class TestMismatchModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            MismatchModel(0.0, math.pi)
        with pytest.raises(ValueError):
            MismatchModel(math.nan, 0.0)
        MismatchModel(-0.3, -0.5)  # fine


class TestBogoliubov:
    def test_matched_case(self):
        x, y = bogoliubov(0.7, MismatchModel(0.0, 0.0))
        assert x == pytest.approx(1.0, abs=1e-14)
        assert abs(y) == pytest.approx(0.0, abs=1e-14)

    def test_unitarity_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            r = rng.uniform(0.0, 2.0)
            mm = MismatchModel(rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5))
            x, y = bogoliubov(r, mm)
            assert abs(abs(x) ** 2 - abs(y) ** 2 - 1.0) < 1e-12

    @given(st.floats(0.0, 2.0), st.floats(-0.3, 0.3), st.floats(-0.5, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_unitarity_property(self, r, dr, dth):
        x, y = bogoliubov(r, MismatchModel(dr, dth))
        assert abs(abs(x) ** 2 - abs(y) ** 2 - 1.0) < 1e-12

    def test_amplitude_only_collapses(self):
        for r in (0.1, 0.55, 1.3):
            x, y = bogoliubov(r, MismatchModel(0.02, 0.0))
            assert abs(y) == pytest.approx(math.sinh(0.02), rel=1e-12)
            assert x.imag == 0.0 and y.imag == 0.0


class TestResidual:
    def test_matched(self):
        d = design_at_optimal_beta(1.0)
        res = residual(d, MismatchModel(0.0, 0.0))
        assert res.r_m == pytest.approx(0.0, abs=1e-14)
        assert res.theta_m == 0.0

    def test_amplitude_only(self):
        d = design_at_optimal_beta(1.0)
        res = residual(d, MismatchModel(0.02, 0.0))
        assert res.r_m == pytest.approx(0.02, rel=1e-12)
        assert res.theta_m == pytest.approx(0.0, abs=1e-12)
        res_neg = residual(d, MismatchModel(-0.02, 0.0))
        assert res_neg.r_m == pytest.approx(0.02, rel=1e-12)
        assert abs(res_neg.theta_m) == pytest.approx(math.pi, abs=1e-12)

    def test_phase_only_magnitude(self):
        # r_m ~ |dt| N(N+1)/(2N+1) at the optimal split; exact value is
        # asinh(sinh(2r) sin(dt/2)), within O(dt^2) of the estimate.
        d = design_at_optimal_beta(1.0)
        dt = 0.03 * math.pi
        res = residual(d, MismatchModel(0.0, dt))
        estimate = dt * 1.0 * 2.0 / 3.0
        assert res.r_m == pytest.approx(estimate, abs=5.0 * dt ** 2)
        exact = math.asinh(math.sinh(2.0 * d.r) * math.sin(dt / 2.0))
        assert res.r_m == pytest.approx(exact, rel=1e-12)

    def test_theta_normalized(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = design_at_optimal_beta(rng.uniform(0.1, 3.0))
            res = residual(d, MismatchModel(rng.uniform(-0.3, 0.3), rng.uniform(-0.6, 0.6)))
            assert -math.pi < res.theta_m <= math.pi

    def test_matches_operator_decomposition(self):
        # S(z_s) S(r) acting on vacuum must equal (up to rotation) the
        # squeezed vacuum of the extracted residual parameters.
        dim = 60
        d = design_at_optimal_beta(0.9)
        mm = MismatchModel(0.05, 0.1)
        res = residual(d, mm)
        z_s = (-d.r + mm.delta_r) * cmath.exp(1j * mm.delta_theta)
        composite = squeeze(z_s, dim) @ squeeze(d.r, dim) @ vacuum(dim)
        direct = squeeze(res.r_m * cmath.exp(1j * res.theta_m), dim) @ vacuum(dim)
        np.testing.assert_allclose(fock_pmf(composite), fock_pmf(direct), atol=1e-12)


class TestResidualCache:
    """residual keeps the last 8 reductions, keyed by (design.r, mm); each equals an
    uncached reduction (rm._reduction.__wrapped__) bit for bit."""

    def test_cache_holds_at_most_its_cap(self):
        cache = rm._reduction
        assert cache.cache_info().maxsize == 8
        cache.cache_clear()
        for i in range(40):
            residual(design_at_optimal_beta(0.1 * i), MismatchModel(0.02, 0.01 * (i % 3)))
            assert cache.cache_info().currsize <= 8

    @pytest.mark.parametrize("dr", [0.0, -0.0, 0, 0.02, -0.3, 1e-300])
    @pytest.mark.parametrize("dt", [0.0, -0.0, 0, 0.0942477796, -3.0])
    def test_cached_reductions_equal_uncached_ones_for_every_spelling(self, dr, dt):
        for N in (0.0, 1e-9, 0.3, 1.0, 3.0):
            design = design_at_optimal_beta(N)
            spellings = [design.r, np.float64(design.r)] + ([0, -0.0] if design.r == 0 else [])
            equal_dts = [dt, np.float64(dt)] + ([-dt, 0] if dt == 0 else [])
            rm._reduction.cache_clear()
            for r in spellings:  # a design's r is derived, so the spellings go to the cache
                for t in equal_dts:
                    mm = MismatchModel(dr, t)
                    got = rm._reduction(r, mm)
                    assert repr(got) == repr(rm._reduction.__wrapped__(r, mm))
            assert repr(residual(design, mm)) == repr(rm._reduction.__wrapped__(design.r, mm))
            assert rm._reduction.cache_info().currsize == 1

    def test_resolutions_of_one_point_share_one_reduction(self):
        rm._reduction.cache_clear()
        design, mm = design_at_optimal_beta(1.3), MismatchModel(0.02, 0.03 * math.pi)
        rules = [p_err_mismatch(design, mm, M) for M in (1, 3, 10, 40, 200)]
        info = rm._reduction.cache_info()
        assert (info.misses, info.hits) == (1, 4)
        assert [r.p_err for r in rules] == [
            map_set_decision(DecisionProblem(
                *(mismatch_count_pmf(design, rm._reduction.__wrapped__(design.r, mm), M, s)
                  for s in (0, 1)))).p_err for M in (1, 3, 10, 40, 200)]


class TestFirstOrderResidual:
    def test_amplitude_only(self):
        r_m, theta_m = first_order_residual(0.6, MismatchModel(0.07, 0.0))
        assert r_m == pytest.approx(0.07, rel=1e-12)
        assert theta_m == pytest.approx(0.0, abs=1e-12)

    def test_phase_only(self):
        N = 1.0
        d = design_at_optimal_beta(N)
        for dt in (0.05, -0.05):
            _, theta_m = first_order_residual(d.r, MismatchModel(0.0, dt))
            want = -math.pi / 2.0 * math.copysign(1.0, dt) + dt * N * N / (2.0 * N + 1.0)
            assert theta_m == pytest.approx(want, abs=1e-12)

    def test_domain_restriction(self):
        with pytest.raises(ValueError):
            first_order_residual(0.5, MismatchModel(0.25, 0.0))
        with pytest.raises(ValueError):
            first_order_residual(0.5, MismatchModel(0.0, 0.21))

    def test_magnitude_agreement_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = design_at_optimal_beta(rng.uniform(0.1, 2.0))
            mm = MismatchModel(rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15))
            exact = residual(d, mm).r_m
            approx, _ = first_order_residual(d.r, mm)
            assert abs(approx - exact) <= 5.0 * (abs(mm.delta_r) + abs(mm.delta_theta)) ** 2

    def test_quadratic_convergence(self):
        # Halving the mismatch four times must shrink the magnitude error
        # with log-log slope 2 +/- 0.2.
        d = design_at_optimal_beta(1.0)
        scales = [2.0 ** -k for k in range(5)]
        errors = []
        for s in scales:
            mm = MismatchModel(0.08 * s, 0.12 * s)
            errors.append(abs(first_order_residual(d.r, mm)[0] - residual(d, mm).r_m))
        slope = np.polyfit(np.log(scales), np.log(errors), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)


class TestMismatchCountPmf:
    @pytest.mark.parametrize("N", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("M", [1, 4])
    def test_matched_limit_recovers_ideal(self, N, M):
        from iskennedy import ideal_count_pmf
        d = design_at_optimal_beta(N)
        res = residual(d, MismatchModel(0.0, 0.0))
        for symbol in (0, 1):
            np.testing.assert_allclose(mismatch_count_pmf(d, res, M, symbol).probs,
                                       ideal_count_pmf(d, symbol, M).probs, atol=1e-14)

    def test_symbol0_parity(self):
        d = design_at_optimal_beta(1.0)
        res = residual(d, MismatchModel(0.02, 0.05))
        dist = mismatch_count_pmf(d, res, 8, 0)
        assert dist.probs[1] == 0.0
        assert dist.probs[3] == 0.0
        assert dist.probs[5] == 0.0
        assert dist.probs[0] == pytest.approx(1.0 / math.cosh(res.r_m), rel=1e-13)

    def test_symbol0_matches_full_chain_oracle(self):
        # The squeezed-vacuum statistics of the composite receiver operator
        # applied to the symbol-0 input, computed with dense Fock matrices.
        d = design_at_optimal_beta(1.0)
        mm = MismatchModel(0.02, 0.03 * math.pi)
        res = residual(d, mm)
        z_s = (-d.r + mm.delta_r) * cmath.exp(1j * mm.delta_theta)
        oracle = receiver_output_pmf(d.alpha, d.r, z_s, symbol=0, dim=120)
        dist = mismatch_count_pmf(d, res, 10, 0)
        np.testing.assert_allclose(dist.probs[:10], oracle[:10], atol=1e-12)

    @pytest.mark.parametrize("N", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("dr,dt", [(0.02, 0.03 * math.pi), (0.02, 0.0), (-0.05, 0.1)])
    def test_symbol1_matches_full_chain_oracle(self, N, dr, dt):
        # Dense-Fock propagation of D(2 alpha) S(r)|0> through the mismatched
        # inverse squeezer; no code is shared with the residual reduction.
        d = design_at_optimal_beta(N)
        mm = MismatchModel(dr, dt)
        z_s = (-d.r + mm.delta_r) * cmath.exp(1j * mm.delta_theta)
        oracle = receiver_output_pmf(d.alpha, d.r, z_s, symbol=1)
        dist = mismatch_count_pmf(d, residual(d, mm), 10, 1)
        np.testing.assert_allclose(dist.probs[:10], oracle[:10], atol=1e-12)
        assert dist.probs[10] == pytest.approx(oracle[10:].sum(), abs=1e-12)

    def test_symbol1_is_displaced_squeezed_law(self):
        # Contract: the symbol-1 statistics are the displaced-squeezed-state
        # law evaluated at the effective displacement 2 gamma.
        d = design_at_optimal_beta(1.0)
        res = residual(d, MismatchModel(0.02, 0.03 * math.pi))
        dist = mismatch_count_pmf(d, res, 6, 1)
        for n in range(6):
            assert dist.probs[n] == pytest.approx(
                dss_pmf(n, 2.0 * d.gamma, res.r_m, res.theta_m), abs=1e-14)
        oracle = squeezed_displaced_pmf(2.0 * d.gamma, res.r_m, res.theta_m, dim=160)
        np.testing.assert_allclose(dist.probs[:6], oracle[:6], atol=1e-12)


class TestMapSetDecision:
    def test_degenerate_ideal_case(self):
        from iskennedy import ideal_count_pmf
        d = design_at_optimal_beta(1.0)
        problem = DecisionProblem(dist0=ideal_count_pmf(d, 0, 5),
                                  dist1=ideal_count_pmf(d, 1, 5))
        rule = map_set_decision(problem)
        assert rule.accept_set == range(1, 6)
        assert rule.threshold == 1

    @pytest.mark.parametrize("M", [2, 5, 10])
    def test_beats_every_relabeling(self, M):
        d = design_at_optimal_beta(0.8)
        res = residual(d, MismatchModel(0.05, 0.1))
        problem = DecisionProblem(dist0=mismatch_count_pmf(d, res, M, 0),
                                  dist1=mismatch_count_pmf(d, res, M, 1))
        rule = map_set_decision(problem)
        p0, p1 = problem.dist0.probs, problem.dist1.probs
        best = min(
            0.5 * sum(p0[n] for n in accept) + 0.5 * sum(p1[n] for n in range(M + 1) if n not in accept)
            for bits in itertools.product((0, 1), repeat=M + 1)
            for accept in [tuple(n for n in range(M + 1) if bits[n])]
        )
        assert rule.p_err == pytest.approx(best, abs=1e-14)

    def test_rates_are_left_to_right_sums(self):
        # Compensated summation (builtin sum() on Python >= 3.12) would give 1.0.
        tenths = CountDistribution(probs=[0.1] * 10 + [0.0], M=10)
        rule = map_set_decision(DecisionProblem(dist0=tenths, dist1=tenths))
        assert rule.accept_set == range(11)
        assert rule.p_fa == 0.9999999999999999 and rule.p_mi == 0.0

    def test_error_is_max_sum_formula(self):
        d = design_at_optimal_beta(1.2)
        res = residual(d, MismatchModel(0.03, -0.08))
        problem = DecisionProblem(dist0=mismatch_count_pmf(d, res, 6, 0),
                                  dist1=mismatch_count_pmf(d, res, 6, 1))
        rule = map_set_decision(problem)
        max_sum = 1.0 - 0.5 * sum(
            max(a, b) for a, b in zip(problem.dist0.probs, problem.dist1.probs))
        assert rule.p_err == pytest.approx(max_sum, abs=1e-15)

    def test_accept_set_excludes_an_even_count(self):
        # Under mismatch the even counts carry squeezed-vacuum mass, so the
        # MAP set is not an interval: some even n > 0 is decided as symbol 0.
        d = design_at_optimal_beta(1.4)
        rule = p_err_mismatch(d, MismatchModel(0.02, 0.03 * math.pi), 3)
        excluded_even = [n for n in (2,) if n not in rule.accept_set]
        assert excluded_even, f"accept set {sorted(rule.accept_set)} is an interval"
        assert rule.threshold is None


def _old_map_set(p0, p1, M):
    """map_set_decision's accept set and rates as its loops once spelled them; p_fa is summed
    in the frozenset's iteration order (ROADMAP item 6 owns making it ascending)."""
    accept = frozenset(n for n in range(M + 1) if p1[n] >= p0[n])
    p_fa = p_mi = 0.0
    for n in accept:
        p_fa += p0[n]
    for n in range(M + 1):
        if n not in accept:
            p_mi += p1[n]
    return accept, p_fa, p_mi


@st.composite
def _count_problems(draw):
    """Two count laws at one resolution M, some values tied, each law's last bin its
    remainder: weights from a small grid or [0, 1], one scale for both.  Sparse problems
    give symbol 1 weight only where tied, so that small accept sets of large counts
    iterate out of ascending order."""
    M = draw(st.integers(1, 120))
    weight = st.sampled_from([0.0, 1.0, 2.0, 3.0]) | st.floats(0.0, 1.0)
    w0 = draw(st.lists(weight, min_size=M, max_size=M))
    other = draw(st.lists(weight, min_size=M, max_size=M))
    ties = draw(st.lists(st.integers(0, 7), min_size=M, max_size=M))
    if draw(st.booleans()):
        other = [0.0] * M
    w1 = [a if tie == 0 else b for a, b, tie in zip(w0, other, ties)]
    scale = draw(st.floats(0.25, 1.0)) / max(1.0, sum(w0), sum(w1))
    dists = []
    for w in (w0, w1):
        probs, partial = [x * scale for x in w], 0.0
        for x in probs:
            partial += x
        dists.append(CountDistribution(probs=probs + [max(0.0, 1.0 - partial)], M=M))
    return DecisionProblem(*dists)


def _sparse_problem():
    """Accept set {2, 3, 9}, which a frozenset iterates as 9, 2, 3: p_fa reads
    (0.4 + 0.1) + 0.2 = 0.7, one ulp below the ascending 0.7000000000000001."""
    p0 = [0.04] * 10 + [0.0]
    p1 = [0.0] * 11
    for n, p in ((2, 0.1), (3, 0.2), (9, 0.4)):
        p0[n] = p1[n] = p
    p1[9] = 0.69
    p0[10], p1[10] = 1.0 - sum(p0), 1.0 - sum(p1)
    return DecisionProblem(*(CountDistribution(probs=p, M=10) for p in (p0, p1)))


@given(_count_problems())
@example(_sparse_problem())
@settings(max_examples=100, deadline=None)
def test_map_set_decision_equals_its_old_loops(problem):
    accept, p_fa, p_mi = _old_map_set(problem.dist0.probs, problem.dist1.probs, problem.M)
    rule = map_set_decision(problem)
    assert struct.pack("2d", rule.p_fa, rule.p_mi) == struct.pack("2d", p_fa, p_mi)
    assert frozenset(rule.accept_set) == accept
    if accept and len(accept) == problem.M + 1 - min(accept):
        assert rule.accept_set == range(min(accept), problem.M + 1)
    else:
        assert rule.accept_set == accept and type(rule.accept_set) is frozenset


class TestSpdMismatch:
    def test_matched_limit(self):
        d = design_at_optimal_beta(1.0)
        res = residual(d, MismatchModel(0.0, 0.0))
        rule = spd_mismatch_error(d, res)
        assert rule.p_fa == 0.0
        assert rule.p_mi == pytest.approx(math.exp(-abs(2.0 * d.gamma) ** 2), rel=1e-12)

    def test_miss_probability_is_vacuum_element(self):
        d = design_at_optimal_beta(1.0)
        res = residual(d, MismatchModel(0.02, 0.03 * math.pi))
        rule = spd_mismatch_error(d, res)
        assert rule.p_mi == pytest.approx(
            dss_pmf(0, 2.0 * d.gamma, res.r_m, res.theta_m), abs=1e-12)

    @pytest.mark.parametrize("N", [1e8, 2e16])
    def test_miss_probability_where_tanh_r_m_rounds_to_one(self, N):
        # At r_m = 25 the closed form -|2 gamma|^2 + Re[...] tanh r_m summed to 0, so
        # P_Mi read sech r_m = 2.78e-11 at any energy.
        d = design_at_optimal_beta(N)
        res = residual(d, MismatchModel(25.0, 0.0))
        one_minus_tanh = 2.0 / (math.exp(2.0 * res.r_m) + 1.0)
        want = math.exp(-abs(2.0 * d.gamma) ** 2 * one_minus_tanh) / math.cosh(res.r_m)
        assert spd_mismatch_error(d, res).p_mi == pytest.approx(want, rel=1e-12)
        assert (want == 0.0) == (N == 2e16)

    def test_high_energy_floor(self):
        d = design_at_optimal_beta(10.0)
        res = residual(d, MismatchModel(0.02, 0.0))
        rule = spd_mismatch_error(d, res)
        assert rule.p_err == pytest.approx(1e-4, rel=5e-3)
        assert rule.p_err == pytest.approx(0.5 * (1.0 - 1.0 / math.cosh(0.02)), rel=1e-9)

    def test_equals_set_based_rule_for_spd(self):
        d = design_at_optimal_beta(1.0)
        mm = MismatchModel(0.02, 0.0)
        assert spd_mismatch_error(d, residual(d, mm)).p_err == pytest.approx(
            p_err_mismatch(d, mm, 1).p_err, rel=1e-12)


class TestParityFloors:
    def test_spd_floor_value(self):
        assert parity_saturation_floor(1, 0.02) == pytest.approx(1e-4, rel=1e-12)

    def test_odd_even_pairing(self):
        assert parity_saturation_floor(2, 0.02) == parity_saturation_floor(1, 0.02)
        assert parity_saturation_floor(4, 0.02) == parity_saturation_floor(3, 0.02)

    def test_three_photon_resolution(self):
        assert parity_saturation_floor(3, 0.02) == pytest.approx(3e-8, rel=1e-12)

    def test_step_drop_scales_quadratically(self):
        # moving M from 2k to 2k+1 drops the floor by ~ c (dr)^2
        for dr in (0.02, 0.05):
            drop21 = parity_saturation_floor(3, dr) / parity_saturation_floor(2, dr)
            assert drop21 == pytest.approx(0.75 * dr ** 2, rel=1e-9)

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_formula_vs_exact_tail(self, M):
        assert parity_saturation_floor(M, 0.02) == pytest.approx(
            exact_parity_floor(M, 0.02), rel=0.2)

    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_receiver_error_saturates_at_floor(self, M):
        d = design_at_optimal_beta(10.0)
        rule = p_err_mismatch(d, MismatchModel(0.02, 0.0), M)
        assert rule.p_err == pytest.approx(parity_saturation_floor(M, 0.02), rel=0.2)
        assert rule.p_err == pytest.approx(exact_parity_floor(M, 0.02), rel=1e-6)


class TestFullPipeline:
    def test_matched_equals_ideal(self):
        for N in (0.4, 1.0, 2.0):
            d = design_at_optimal_beta(N)
            rule = p_err_mismatch(d, MismatchModel(0.0, 0.0), 6)
            assert rule.p_err == pytest.approx(p_err_ideal(N), rel=1e-12)

    def test_phase_sensitivity_asymmetry(self):
        # d r_m / d dt exceeds d r_m / d dr by sinh(2r)/2 = N(N+1)/(2N+1).
        N = 1.0
        d = design_at_optimal_beta(N)
        eps = 1e-6
        slope_dr = residual(d, MismatchModel(eps, 0.0)).r_m / eps
        slope_dt = residual(d, MismatchModel(0.0, eps)).r_m / eps
        want = N * (N + 1.0) / (2.0 * N + 1.0)
        assert slope_dt / slope_dr == pytest.approx(want, rel=0.05)

    def test_saturation_dominates_at_high_energy(self):
        # Far above threshold the error is false-alarm limited and grows
        # with the residual squeezing, not with the signal energy.
        d10, d12 = design_at_optimal_beta(10.0), design_at_optimal_beta(12.0)
        mm = MismatchModel(0.02, 0.0)
        p10 = p_err_mismatch(d10, mm, 2).p_err
        p12 = p_err_mismatch(d12, mm, 2).p_err
        assert p10 == pytest.approx(p12, rel=1e-9)


class TestMismatchProblem:
    def test_pairs_both_symbols_and_feeds_every_consumer(self):
        d = design_at_optimal_beta(1.4)
        mm = MismatchModel(0.02, 0.03 * math.pi)
        res = residual(d, mm)
        problem = mismatch_problem(d, res, 3)
        assert problem == DecisionProblem(mismatch_count_pmf(d, res, 3, 0),
                                          mismatch_count_pmf(d, res, 3, 1))
        assert p_err_mismatch(d, mm, 3) == map_set_decision(problem)
        assert scenario_problem(d, MismatchScenario(mm, 3)) == (problem,
                                                                map_set_decision(problem))

    def test_is_the_only_code_that_pairs_the_mismatch_count_pmfs(self):
        package = pathlib.Path(rm.__file__).parent
        users = set()
        for path in package.glob("*.py"):
            for fn in ast.walk(ast.parse(path.read_text())):
                if isinstance(fn, ast.FunctionDef) and any(
                        isinstance(node, ast.Name) and node.id == "mismatch_count_pmf"
                        for node in ast.walk(fn)):
                    users.add((path.stem, fn.name))
        assert users == {("receiver_mismatch", "mismatch_problem")}
        assert not hasattr(cli, "mismatch_count_pmf")
        assert not hasattr(monte_carlo, "mismatch_count_pmf")
