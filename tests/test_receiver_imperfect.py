import math
import random
import struct
import sys
import threading
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from iskennedy import (
    DecisionProblem,
    DetectorModel,
    MismatchModel,
    NumericalConsistencyError,
    design_at_optimal_beta,
    detected_count_pmf,
    exact_saturation_floor,
    map_set_decision,
    mismatch_count_pmf,
    optimal_threshold,
    p_err_ideal,
    p_err_imperfect,
    poisson_pmf,
    residual,
    saturation_floor,
    sv_pmf,
)
from iskennedy import fock_statistics, receiver_imperfect
from iskennedy.fock_statistics import photon_pmf, poisson_tail_ge
from iskennedy.receiver_ideal import _map_threshold
from iskennedy.receiver_imperfect import apply_detector_to_pmf
from iskennedy.receiver_mismatch import mismatch_law

from oracles import detector_composition


def _bits(probs):
    return struct.pack(f"{len(probs)}d", *probs)


# Incident laws for the detector composition: name -> pmf(k).
INCIDENT = {
    "poisson": lambda k: poisson_pmf(k, 5.0),
    "squeezed_vacuum": lambda k: sv_pmf(k, 0.5),
    "dss": photon_pmf(1.7 + 0.4j, 0.3, 0.8),
    "vacuum": lambda k: 1.0 if k == 0 else 0.0,
}


class TestDetectorModel:
    @pytest.mark.parametrize("eta,nu,M", [(0.0, 0.0, 1), (1.2, 0.0, 1), (0.5, -1e-3, 1), (0.5, 0.0, 0)])
    def test_validation(self, eta, nu, M):
        with pytest.raises(ValueError):
            DetectorModel(eta=eta, nu=nu, M=M)

    @pytest.mark.parametrize("nu", [math.nan, math.inf])
    def test_non_finite_dark_rate_is_rejected(self, nu):
        for model in (lambda: DetectorModel(1.0, nu, 1), lambda: saturation_floor(1, nu),
                      lambda: exact_saturation_floor(1, nu)):
            with pytest.raises(ValueError, match="nu must be finite"):
                model()


class TestDetectedCountPmf:
    def test_dark_free_symbol0(self):
        det = DetectorModel(eta=0.8, nu=0.0, M=4)
        dist = detected_count_pmf(design_at_optimal_beta(1.0), det, 0)
        np.testing.assert_allclose(dist.probs, [1, 0, 0, 0, 0], atol=0)

    def test_dark_counts_only(self):
        det = DetectorModel(eta=1.0, nu=0.01, M=2)
        dist = detected_count_pmf(design_at_optimal_beta(1.0), det, 0)
        assert dist.probs[0] == pytest.approx(math.exp(-0.01), rel=1e-14)

    def test_efficiency_scales_the_mean(self):
        design = design_at_optimal_beta(1.0)
        full = detected_count_pmf(design, DetectorModel(eta=1.0, nu=0.0, M=30), 1)
        half = detected_count_pmf(design, DetectorModel(eta=0.5, nu=0.0, M=30), 1)
        for n in range(10):
            assert half.probs[n] == pytest.approx(poisson_pmf(n, 4.0), rel=1e-12)
            assert full.probs[n] == pytest.approx(poisson_pmf(n, 8.0), rel=1e-12)


class TestOptimalThreshold:
    def test_on_off_limit(self):
        assert optimal_threshold(DetectorModel(eta=1.0, nu=0.0, M=7), 2.0) == 1
        assert optimal_threshold(DetectorModel(eta=1.0, nu=1e-13, M=7), 2.0) == 1

    def test_saturates_at_resolution(self):
        assert optimal_threshold(DetectorModel(eta=1.0, nu=1e-2, M=2), 110.0) == 2

    def test_worked_example(self):
        # ceil(8 / (ln 8.01 - ln 0.01)) = ceil(8 / 6.685...) = 2
        det = DetectorModel(eta=1.0, nu=1e-2, M=10)
        assert optimal_threshold(det, 2.0) == 2

    def test_zero_energy_without_darks_is_a_coin_flip(self):
        det = DetectorModel(eta=1.0, nu=0.0, M=3)
        assert optimal_threshold(det, 0.0) == 1
        rule = p_err_imperfect(design_at_optimal_beta(0.0), det)
        assert (rule.threshold, rule.p_fa, rule.p_mi, rule.p_err) == (1, 0.0, 1.0, 0.5)

    def test_rule_at_its_edges(self):
        assert _map_threshold(0.0, 8.0) == _map_threshold(0.0, 0.0) == 1  # no darks
        assert _map_threshold(5e-324, 8.0) == 1  # signal/mu0 overflows; the quotient is 0.01
        assert _map_threshold(3.5, 0.0) == 4 and _map_threshold(0.2, 0.0) == 1  # no signal
        assert _map_threshold(1e300, 1e-300) == math.ceil(1e300)  # signal/mu0 underflows

    def test_nondecreasing_staircase(self):
        det = DetectorModel(eta=0.9, nu=1e-2, M=10)
        values = [optimal_threshold(det, design_at_optimal_beta(N).n_eff)
                  for N in np.linspace(0.02, 3.0, 500)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] > values[0]  # actually climbs


class TestErrorProbability:
    def test_ideal_limit(self):
        det = DetectorModel(eta=1.0, nu=0.0, M=20)
        for N in (0.3, 1.0, 2.0):
            rule = p_err_imperfect(design_at_optimal_beta(N), det)
            assert rule.p_err == pytest.approx(p_err_ideal(N), rel=1e-12)

    def test_pure_loss_rescaling(self):
        det = DetectorModel(eta=0.5, nu=0.0, M=20)
        for N in (0.5, 1.0, 2.0):
            rule = p_err_imperfect(design_at_optimal_beta(N), det)
            assert rule.p_err == pytest.approx(0.5 * math.exp(-2.0 * N * (N + 1.0)), rel=1e-12)

    def test_high_energy_floor_example(self):
        det = DetectorModel(eta=1.0, nu=1e-2, M=2)
        rule = p_err_imperfect(design_at_optimal_beta(10.0), det)
        assert rule.p_err == pytest.approx(2.5e-5, rel=0.2)

    def test_map_equals_threshold(self):
        for N in (0.2, 0.8, 1.5, 3.0):
            for det in (DetectorModel(1.0, 1e-2, 4), DetectorModel(0.7, 1e-3, 2),
                        DetectorModel(0.5, 0.0, 1)):
                design = design_at_optimal_beta(N)
                rule = p_err_imperfect(design, det)
                brute = map_set_decision(DecisionProblem(
                    dist0=detected_count_pmf(design, det, 0),
                    dist1=detected_count_pmf(design, det, 1)))
                assert brute.p_err == pytest.approx(rule.p_err, abs=1e-14)

    def test_rates_are_poisson_tails(self):
        det = DetectorModel(eta=1.0, nu=5e-3, M=6)
        design = design_at_optimal_beta(1.0)
        rule = p_err_imperfect(design, det)
        mu1 = 4.0 * design.n_eff + det.nu
        fa = sum(poisson_pmf(n, det.nu) for n in range(rule.threshold, 200))
        mi = sum(poisson_pmf(n, mu1) for n in range(0, rule.threshold))
        assert rule.p_fa == pytest.approx(fa, abs=1e-13)
        assert rule.p_mi == pytest.approx(mi, abs=1e-13)


dark_rates = st.just(0.0) | st.floats(1e-15, 1.0)


@given(N=st.floats(0.05, 3.0), eta=st.floats(0.3, 1.0), nu=dark_rates, M=st.integers(1, 10))
@example(N=3.0, eta=1.0, nu=1e-13, M=10)  # a dark rate below 1e-12 still moves the threshold
@settings(max_examples=300, deadline=None)
def test_threshold_rule_is_the_map_rule(N, eta, nu, M):
    design, det = design_at_optimal_beta(N), DetectorModel(eta, nu, M)
    rule = p_err_imperfect(design, det)
    dist0, dist1 = (detected_count_pmf(design, det, s) for s in (0, 1))
    for n in (rule.threshold - 1, rule.threshold):  # the last outcome rejected, the first accepted
        if 0 <= n <= M and dist0.probs[n] > 0.0:
            assume(abs(dist1.probs[n] / dist0.probs[n] - 1.0) > 1e-9)
    assert rule.accept_set == map_set_decision(DecisionProblem(dist0, dist1)).accept_set


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: the lumped bin M is 1 - partial, not the stable tail")
@pytest.mark.parametrize("N, eta, nu", [
    # Symbol 0's bin 10 reads 1.11e-16 (true tail 3.4e-22), symbol 1's 0.0 (true 7.2e-17).
    (0.05, 0.375, 0.032406985441674724),
    # Symbol 0's bin 10 reads 1.11e-16 (true tail 2.4e-25), symbol 1's 0.0 (true 2.2e-17).
    (0.0625, 0.3125, 0.015625),
    # Symbol 0's bin 10 reads 1.11e-16 (true tail 2.4e-25), symbol 1's 0.0 (true 3.1e-17).
    (0.0546875, 0.375, 0.015625),
])
def test_the_lumped_bin_keeps_the_map_rule_a_threshold(N, eta, nu):
    # Inputs that test_threshold_rule_is_the_map_rule draws under some hypothesis seeds
    # (--hypothesis-seed=109 shrinks to the second, 34 to the third): in each the MAP set
    # drops n = 10, which the exact threshold keeps.
    design = design_at_optimal_beta(N)
    det = DetectorModel(eta=eta, nu=nu, M=10)
    dist0, dist1 = (detected_count_pmf(design, det, s) for s in (0, 1))
    rule = p_err_imperfect(design, det)
    assert rule.accept_set == map_set_decision(DecisionProblem(dist0, dist1)).accept_set


@given(N=st.floats(0.05, 3.0), eta=st.floats(0.3, 1.0), M=st.integers(1, 10),
       nus=st.tuples(dark_rates, dark_rates))
@example(N=3.0, eta=1.0, M=10, nus=(0.999e-12, 1e-12))
@settings(max_examples=300, deadline=None)
def test_more_dark_counts_never_lower_the_error(N, eta, M, nus):
    # Extra darks are an independent added count: they can only garble the decision.
    design = design_at_optimal_beta(N)
    p_low, p_high = (p_err_imperfect(design, DetectorModel(eta, nu, M)).p_err for nu in sorted(nus))
    assert p_high >= p_low * (1.0 - 1e-12)


class TestFalseAlarmCache:
    """p_err_imperfect takes p_fa from a typed cache of the last 64 (n_th, nu)."""

    def test_cache_holds_at_most_its_cap(self):
        cache = receiver_imperfect._false_alarm
        assert cache.cache_info().maxsize == 64
        cache.cache_clear()
        design = design_at_optimal_beta(1.0)
        for i in range(200):
            p_err_imperfect(design, DetectorModel(1.0, 1e-3 * (i + 1), 1 + i % 7))
            assert cache.cache_info().currsize <= 64

    @pytest.mark.parametrize("nu", [0, 0.0, -0.0, np.float64(0.0), 1e-13, 1e-3,
                                    np.float64(1e-3), 0.3, 2])
    def test_cached_tails_equal_uncached_ones_for_every_spelling(self, nu):
        receiver_imperfect._false_alarm.cache_clear()
        for N in (0.01, 0.3, 1.0, 2.5):
            design = design_at_optimal_beta(N)
            for M in (1, 2, 5, 10):
                det = DetectorModel(0.9, nu, M)
                want = repr(poisson_tail_ge(optimal_threshold(det, design.n_eff), nu))
                for _ in "cold", "warm":
                    assert repr(p_err_imperfect(design, det).p_fa) == want

    def test_int_and_float_dark_rates_keep_their_own_entries(self):
        cache = receiver_imperfect._false_alarm
        cache.cache_clear()
        design = design_at_optimal_beta(1.0)
        for nu in (0, 0.0, 0, 0.0):
            p_err_imperfect(design, DetectorModel(1.0, nu, 3))
        assert cache.cache_info().currsize == 2

    def test_a_miss_calls_the_module_s_tail(self, monkeypatch):
        calls = []

        def counted(k, mu):
            calls.append((k, mu))
            return poisson_tail_ge(k, mu)

        monkeypatch.setattr(receiver_imperfect, "poisson_tail_ge", counted)
        receiver_imperfect._false_alarm.cache_clear()
        design = design_at_optimal_beta(1.0)
        for det in [DetectorModel(1.0, 1e-2, 10)] * 3 + [DetectorModel(0.5, 1e-3, 1)] * 2:
            p_err_imperfect(design, det)
        assert calls == [(optimal_threshold(DetectorModel(1.0, 1e-2, 10), design.n_eff), 1e-2),
                         (1, 1e-3)]


class TestSaturation:
    def test_formula_values(self):
        assert saturation_floor(1, 1e-3) == pytest.approx(5e-4, rel=1e-12)
        assert saturation_floor(3, 1e-2) == pytest.approx(1e-6 / 12.0, rel=1e-12)
        assert saturation_floor(2, 0.0) == 0.0

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("nu", [1e-3, 1e-2])
    def test_exact_vs_approximate_floor(self, M, nu):
        exact = exact_saturation_floor(M, nu)
        approx = saturation_floor(M, nu)
        assert exact == pytest.approx(approx, rel=0.2)

    def test_floor_converges_as_darks_vanish(self):
        ratios = [exact_saturation_floor(2, nu) / saturation_floor(2, nu)
                  for nu in (1e-2, 1e-3, 1e-4)]
        assert all(abs(r - 1.0) < abs(prev - 1.0) for prev, r in zip(ratios, ratios[1:]))
        assert abs(ratios[-1] - 1.0) < 1e-3

    def test_high_energy_error_reaches_floor(self):
        for M, nu in [(1, 1e-3), (2, 1e-2), (3, 1e-2)]:
            det = DetectorModel(eta=1.0, nu=nu, M=M)
            rule = p_err_imperfect(design_at_optimal_beta(10.0), det)
            assert rule.p_err == pytest.approx(exact_saturation_floor(M, nu), rel=1e-9)

    def test_floor_independent_of_efficiency(self):
        for M, nu in [(1, 1e-3), (2, 1e-2), (3, 1e-3)]:
            p_full = p_err_imperfect(design_at_optimal_beta(10.0), DetectorModel(1.0, nu, M)).p_err
            p_half = p_err_imperfect(design_at_optimal_beta(10.0), DetectorModel(0.5, nu, M)).p_err
            assert abs(p_full - p_half) / p_full < 0.01


class TestStaircaseKinks:
    def test_jumps_coincide_with_error_curve_kinks(self):
        det = DetectorModel(eta=1.0, nu=1e-2, M=10)
        grid = np.linspace(0.05, 2.5, 800)
        thresholds, p_errs = [], []
        for N in grid:
            design = design_at_optimal_beta(N)
            thresholds.append(optimal_threshold(det, design.n_eff))
            p_errs.append(p_err_imperfect(design, det).p_err)
        jumps = set(np.nonzero(np.diff(thresholds) != 0)[0])
        assert len(jumps) >= 3

        # Kinks: spikes of the discrete second derivative of log p_err.
        d2 = np.abs(np.diff(np.log(p_errs), 2))
        spike = d2 > 50.0 * np.median(d2)
        kink_idx = set(np.nonzero(spike)[0])
        # every jump produces a kink within one grid step
        for j in jumps:
            assert any(abs(j - k) <= 1 for k in kink_idx), f"jump at {grid[j]} has no kink"
        # and no kink occurs away from a jump
        for k in kink_idx:
            assert any(abs(j - k) <= 1 for j in jumps), f"kink at {grid[k + 1]} has no jump"


class TestDetectorComposition:
    def test_poisson_input_reproduces_closed_form(self):
        # Thinning a Poisson and adding Poisson darks must give Poisson(eta mu + nu).
        det = DetectorModel(eta=0.7, nu=5e-3, M=6)
        mu = 5.0
        composed = apply_detector_to_pmf(lambda k: poisson_pmf(k, mu), det)
        for n in range(det.M):
            assert composed.probs[n] == pytest.approx(
                poisson_pmf(n, det.eta * mu + det.nu), abs=1e-12)
        assert np.sum(composed.probs) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("law", sorted(INCIDENT))
    @pytest.mark.parametrize("M", [1, 3, 10])
    @pytest.mark.parametrize("nu", [0.0, 1e-3, 1e-2])
    @pytest.mark.parametrize("eta", [0.5, 0.9, 1.0])
    def test_matches_direct_triple_sum(self, eta, nu, M, law):
        det = DetectorModel(eta=eta, nu=nu, M=M)
        cutoff = 4 * M + 400
        calls = []

        def pmf(k):
            calls.append(k)
            return INCIDENT[law](k)

        composed = apply_detector_to_pmf(pmf, det)
        reference, reference_calls = detector_composition(INCIDENT[law], eta, nu, M, cutoff)
        np.testing.assert_allclose(composed.probs, reference, rtol=0, atol=1e-15)
        assert calls == list(range(reference_calls))

    @pytest.mark.parametrize("eta, nu, M", [(0.9, 1e-3, 3), (0.5, 0.0, 10), (1.0, 1e-2, 1)])
    @pytest.mark.parametrize("law", [(1.5 + 0.5j, 0.3, 0.7), (0.0, 0.6, 0.0), (2.0, 0.0, 0.0)])
    def test_kept_prefixes_give_the_bits_of_plain_reads(self, law, eta, nu, M):
        # The kept prefix is read in one slice and the rest count by count, to the same
        # count K where coverage reaches 1 - 1e-12, whatever the prefix holds.
        det = DetectorModel(eta=eta, nu=nu, M=M)
        calls = []

        def plain(k):
            calls.append(k)
            return fock_statistics._law.__wrapped__(*law)(k)

        want = apply_detector_to_pmf(plain, det).probs
        K = len(calls)
        assert calls == list(range(K)) and K < 4 * M + 401
        for prefix in (0, K // 2, K - 1, K, K + 1, K + 60):
            kept = fock_statistics._law.__wrapped__(*law)
            kept.head(prefix)
            assert _bits(apply_detector_to_pmf(kept, det).probs) == _bits(want)
            assert len(kept.kept(10**6)) == max(prefix, K)  # no count past K was computed

    def test_a_law_that_fails_past_its_coverage_is_not_read_there(self):
        det = DetectorModel(eta=0.9, nu=1e-3, M=3)
        values = fock_statistics._law.__wrapped__(1.5 + 0.5j, 0.3, 0.7).head(4 * 3 + 401)
        calls = []
        want = apply_detector_to_pmf(lambda k: calls.append(k) or values[k], det).probs
        K = len(calls)

        def failing():
            yield from values[:K]
            raise RuntimeError("read past the coverage count")

        for prefix in (0, 3, K):
            law = fock_statistics.KeptLaw(failing())
            law.head(prefix)
            assert _bits(apply_detector_to_pmf(law, det).probs) == _bits(want)
            with pytest.raises(RuntimeError, match="past the coverage count"):
                law(K)
        plain = apply_detector_to_pmf(lambda k: values[k] if k < K else 1 / 0, det).probs
        assert _bits(plain) == _bits(want)

    def test_an_uncovered_incident_law_raises_below_unit_efficiency(self):
        # N = 10: the symbol-1 law has mean about 440, and the 405 terms read at M = 1 hold
        # 0.18 of it.  Lumping the rest into bin 1 gave p_mi 0.123 at eta = 0.001, where the
        # exact sum_k P(k|1) (1 - eta)^k is 0.655.
        design = design_at_optimal_beta(10.0)
        res = residual(design, MismatchModel(0.02, 0.0))
        law = mismatch_law(design, res, 1)
        exact = sum(law(k) * (1.0 - 0.001) ** k for k in range(4000))
        assert exact == pytest.approx(0.655, abs=1e-3)
        with pytest.raises(NumericalConsistencyError, match="incident mass 0.817"):
            apply_detector_to_pmf(law, DetectorModel(eta=0.001, nu=0.0, M=1))
        # At eta = 1 the lumped bin is exact: the truncated law itself.
        lossless = apply_detector_to_pmf(law, DetectorModel(eta=1.0, nu=0.0, M=1))
        assert lossless.probs == mismatch_count_pmf(design, res, 1, 1).probs


def _fresh_composition(pmf, det):
    """apply_detector_to_pmf as it stood before its kernel was kept: the thinning matrix and
    the dark head built anew on every call."""
    limit = 4 * det.M + 401
    kept = pmf.kept(limit) if isinstance(pmf, fock_statistics.KeptLaw) else []
    incident, covered = [], 0.0
    for p in chain(kept, map(pmf, range(len(kept), limit))):
        incident.append(p)
        covered += p
        if 1.0 - covered < 1e-12:
            break
    M, K = det.M, len(incident)
    if det.eta == 1.0:
        thinning = np.eye(M, K)
    else:
        j, k = np.arange(M)[:, None], np.arange(K)
        lost = np.maximum(k - j, 0)
        size = max(M, K)
        log_fact = np.array(fock_statistics.log_factorials(size)[:size])
        log_b = (log_fact[k] - log_fact[j] - log_fact[lost]
                 + j * math.log(det.eta) + lost * math.log1p(-det.eta))
        thinning = np.where(k >= j, np.exp(log_b), 0.0)
    dark = np.array(fock_statistics.poisson_law(det.nu).head(M))
    detected = np.convolve(thinning @ np.array(incident), dark)[:M]
    probs = detected.tolist()
    probs.append(max(0.0, 1.0 - detected.sum()))
    return probs, K


def _clear_detector_kernels():
    receiver_imperfect._thinning.cache_clear()
    receiver_imperfect._dark_head.cache_clear()


# Incident laws of (|A|^2, r, kept): a fresh KeptLaw of S(r) D(A)|0>, or a plain callable
# reading one, covered within the 4M + 401 terms read at every M >= 1.
_INCIDENT_LAWS = st.lists(st.tuples(st.floats(0.0, 25.0), st.floats(0.0, 1.0), st.booleans()),
                          min_size=2, max_size=5)


def _incident(abs2, r, kept):
    law = fock_statistics._law.__wrapped__(complex(math.sqrt(abs2), 0.3), r, 0.7)
    return law if kept else (lambda k: law(k))


class TestKeptDetectorKernel:
    @settings(max_examples=60, deadline=None)
    @given(eta=st.one_of(st.just(1.0), st.floats(1e-3, 1.0, exclude_min=True)),
           nu=st.one_of(st.just(0.0), st.floats(0.0, 0.2)), M=st.integers(1, 40),
           laws=_INCIDENT_LAWS)
    @example(eta=0.9, nu=1e-3, M=10, laws=[(0.5, 0.3, False), (9.0, 0.6, True), (0.0, 0.0, True)])
    def test_kept_kernels_give_the_bits_of_a_fresh_build(self, eta, nu, M, laws):
        # K ascending, K descending, then more (eta, M) keys than the cap, so that the kept
        # matrix grows, is sliced narrower than it is, and is evicted and built again.
        det = DetectorModel(eta=eta, nu=nu, M=M)
        cases = []
        for spec in laws:
            want, K = _fresh_composition(_incident(*spec), det)
            cases.append((K, spec, want))
        cases.sort(key=lambda case: case[0])
        for order in (cases, cases[::-1]):
            _clear_detector_kernels()
            for _, spec, want in order:
                assert _bits(apply_detector_to_pmf(_incident(*spec), det).probs) == _bits(want)
        _clear_detector_kernels()
        etas = [eta * (1.0 - i / 16.0) for i in range(receiver_imperfect._LAW_CAP + 3)]
        dets = [DetectorModel(eta=e, nu=nu, M=M) for e in etas]
        wants = {(i, c): _fresh_composition(_incident(*spec), d)[0]
                 for i, d in enumerate(dets) for c, (_, spec, _) in enumerate(cases)}
        for _ in range(2):
            for c, (_, spec, _) in enumerate(cases):
                for i, d in enumerate(dets):
                    got = apply_detector_to_pmf(_incident(*spec), d).probs
                    assert _bits(got) == _bits(wants[i, c])

    def test_a_kept_matrix_is_as_wide_as_the_largest_read_and_read_only(self):
        _clear_detector_kernels()
        det = DetectorModel(eta=0.9, nu=1e-3, M=10)
        widest = 0
        for abs2 in (4.0, 0.1, 16.0, 1.0, 30.0):
            pmf = fock_statistics.poisson_law(abs2)
            widest = max(widest, _fresh_composition(pmf, det)[1])
            apply_detector_to_pmf(pmf, det)
            matrix = receiver_imperfect._thinning(0.9, 10).matrix
            assert matrix.shape == (10, widest)
            assert not matrix.flags.writeable
        dark = receiver_imperfect._dark_head(1e-3, 10)
        assert dark.shape == (10,) and not dark.flags.writeable
        for kernel in (matrix, dark):
            with pytest.raises(ValueError, match="read-only"):
                kernel[0] = 1.0
        # The detectors of the mismatch_deep benchmark hold under 20 kB between them.
        apply_detector_to_pmf(fock_statistics.poisson_law(30.0), DetectorModel(0.9, 1e-3, 3))
        held = sum(receiver_imperfect._thinning(0.9, M).matrix.nbytes
                   + receiver_imperfect._dark_head(1e-3, M).nbytes for M in (3, 10))
        assert held < 20_000
        _clear_detector_kernels()

    def test_at_most_the_cap_of_keys_is_held(self):
        _clear_detector_kernels()
        pmf = fock_statistics.poisson_law(2.0)
        for i in range(3 * receiver_imperfect._LAW_CAP):
            apply_detector_to_pmf(pmf, DetectorModel(eta=0.5 + i / 100.0, nu=i / 100.0, M=3))
        for kept in (receiver_imperfect._thinning, receiver_imperfect._dark_head):
            assert kept.cache_info().currsize == receiver_imperfect._LAW_CAP
        _clear_detector_kernels()

    def test_a_law_covered_early_keeps_a_narrow_matrix_at_large_resolution(self, monkeypatch):
        # Kept at its full 4M + 401 columns, this matrix would hold 20,000 x 80,401 doubles
        # (12.9 GB); kept at the K read, about 1.6 MB.  A build past 10^6 elements fails
        # here before it allocates.
        build = receiver_imperfect._thinning_matrix

        def bounded(eta, M, K):
            assert M * K <= 10**6, f"a {M} x {K} thinning matrix"
            return build(eta, M, K)

        monkeypatch.setattr(receiver_imperfect, "_thinning_matrix", bounded)
        _clear_detector_kernels()
        det = DetectorModel(eta=0.9, nu=0.0, M=20_000)
        pmf = fock_statistics.poisson_law(0.5)
        got = apply_detector_to_pmf(pmf, det).probs
        want, K = _fresh_composition(pmf, det)
        assert _bits(got) == _bits(want)
        assert 5 <= K <= 20
        assert receiver_imperfect._thinning(0.9, 20_000).matrix.shape == (20_000, K)
        _clear_detector_kernels()

    def test_eight_threads_composing_at_once_give_the_serial_bits(self):
        det = DetectorModel(eta=0.8, nu=2e-3, M=12)
        # Means in ascending order, so each law reads more terms than the last: threads that
        # take them in order widen the matrix while the others read it.
        values = [fock_statistics.poisson_law(mu / 2.0).head(4 * 12 + 401) for mu in range(1, 41)]
        serial = [_bits(_fresh_composition(lambda k, v=v: v[k], det)[0]) for v in values]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for rnd in range(12):
                _clear_detector_kernels()
                start = threading.Barrier(8, timeout=60)
                errors = []

                def compose(seed):
                    order = list(range(len(values)))
                    if seed % 2:
                        random.Random(seed).shuffle(order)
                    start.wait()
                    try:
                        for i in order:
                            got = apply_detector_to_pmf(lambda k: values[i][k], det).probs
                            assert _bits(got) == serial[i]
                    except Exception as exc:
                        errors.append(exc)

                threads = [threading.Thread(target=compose, args=(100 * rnd + k,))
                           for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert errors == []
        finally:
            sys.setswitchinterval(switch)
            _clear_detector_kernels()
