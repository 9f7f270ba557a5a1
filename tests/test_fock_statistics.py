import itertools
import math
import random
import re
import struct
import sys
import threading
import time
import traceback

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import poisson as scipy_poisson

from iskennedy import (
    CountDistribution,
    DetectorModel,
    MismatchModel,
    MismatchScenario,
    NumericalConsistencyError,
    clamp_to_resolution,
    design_at_optimal_beta,
    dss_pmf,
    exact_parity_floor,
    exact_saturation_floor,
    ideal_decision,
    p_err_imperfect,
    parity_saturation_floor,
    poisson_pmf,
    residual,
    saturation_floor,
    sv_pmf,
)
from iskennedy import fock_statistics
from iskennedy.fock_statistics import (
    photon_pmf, poisson_cdf_below, poisson_tail_ge, sv_tail_ge)
from iskennedy.receiver_ideal import threshold_accept_set

from oracles import hermite_complex, pmf_mean, squeezed_displaced_pmf


class TestPoisson:
    def test_reference_values(self):
        assert poisson_pmf(0, 0.0) == 1.0
        assert poisson_pmf(3, 0.0) == 0.0
        assert poisson_pmf(1, 2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)

    def test_summation(self):
        assert sum(poisson_pmf(n, 8.0) for n in range(201)) == pytest.approx(1.0, abs=1e-12)

    def test_log_space_branch_matches_scipy(self):
        for n, mu in [(25, 8.0), (150, 100.0), (300, 250.0), (21, 1e-3)]:
            assert poisson_pmf(n, mu) == pytest.approx(float(scipy_poisson.pmf(n, mu)), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poisson_pmf(1, -0.5)
        with pytest.raises(ValueError):
            poisson_pmf(-1, 0.5)

    def test_powers_that_overflow_take_the_log_form(self):
        # (1e300)**n overflows for 2 <= n <= 20; e^-mu makes every such value 0.
        for n in range(41):
            assert poisson_pmf(n, 1e300) == 0.0
        assert poisson_pmf(0, math.inf) == 0.0

    def test_values_the_direct_form_gives_do_not_move(self):
        rng = random.Random(20261019)
        for _ in range(20_000):
            n, mu = rng.randint(0, 20), 10.0 ** rng.uniform(-300.0, 300.0)
            try:
                direct = math.exp(-mu) * mu ** n / math.factorial(n)
            except OverflowError:
                continue
            assert struct.pack("d", poisson_pmf(n, mu)) == struct.pack("d", direct), (n, mu)

    def test_tails_match_direct_sums(self):
        for k, mu in [(1, 0.01), (2, 0.5), (5, 3.0), (0, 2.0)]:
            tail = sum(poisson_pmf(n, mu) for n in range(k, k + 400))
            assert poisson_tail_ge(k, mu) == pytest.approx(tail, abs=1e-13)
            assert poisson_cdf_below(k, mu) == pytest.approx(1.0 - tail, abs=1e-13)


# Each tail sum with a parameter, its count's name and its answer below any count <= 0.
TAIL_SUMS = [(poisson_tail_ge, 5.0, "k", 1.0), (poisson_cdf_below, 1.0, "k", 0.0),
             (sv_tail_ge, 0.3, "n_min", 1.0)]


@pytest.mark.parametrize("tail, param, name, below_zero", TAIL_SUMS)
class TestTailSumCount:
    def test_a_whole_count_of_any_sign_reads_as_its_int(self, tail, param, name, below_zero):
        for k in (-7, -1, 0, 1, 2, 3, 7):
            assert tail(float(k), param) == tail(k, param)
        for k in (-1, -2, -7.0, -1e300, 0, 0.0):
            assert tail(k, param) == below_zero

    @pytest.mark.parametrize("k", [1.5, 0.5, -0.5, -2.5, math.nan, math.inf, -math.inf])
    def test_anything_but_a_whole_count_raises(self, tail, param, name, below_zero, k):
        with pytest.raises(ValueError, match=rf"^{name} must be a whole number, got "):
            tail(k, param)


class TestSqueezedVacuum:
    def test_vacuum_element_and_parity(self):
        for r in (0.02, 0.3, 1.0):
            assert sv_pmf(0, r) == pytest.approx(1.0 / math.cosh(r), rel=1e-14)
            assert sv_pmf(1, r) == 0.0
            assert sv_pmf(7, r) == 0.0

    def test_zero_squeezing_is_vacuum(self):
        assert sv_pmf(0, 0.0) == 1.0
        assert sv_pmf(2, 0.0) == 0.0

    def test_two_photon_element(self):
        want = 0.5 * math.tanh(0.02) ** 2 / math.cosh(0.02)
        assert sv_pmf(2, 0.02) == pytest.approx(want, rel=1e-13)
        assert sv_pmf(2, 0.02) == pytest.approx(2.0e-4, rel=2e-3)

    def test_matches_dss_with_zero_displacement(self):
        for n in range(0, 11):
            assert sv_pmf(n, 0.3) == pytest.approx(dss_pmf(n, 0.0, 0.3, 0.0), abs=1e-15)

    def test_normalization_large_r(self):
        # k! overflows around k ~ 85 without log-gamma; r = 2 puts real mass there
        assert sum(sv_pmf(n, 2.0) for n in range(0, 2000)) == pytest.approx(1.0, abs=1e-12)

    def test_tail_helper(self):
        r = 0.1
        direct = sum(sv_pmf(n, r) for n in range(4, 400))
        assert sv_tail_ge(4, r) == pytest.approx(direct, rel=1e-12)
        assert sv_tail_ge(3, r) == pytest.approx(direct, rel=1e-12)  # odd bin is empty
        assert sv_tail_ge(0, r) == 1.0

    @pytest.mark.parametrize("r", [6.0, 7.0, 8.0])
    def test_tail_large_r_is_complement(self, r):
        # tanh^2 r = 1 - O(e^{-2r}): a direct sum would need millions of terms.
        start = time.process_time()
        tail = sv_tail_ge(3, r)
        assert time.process_time() - start < 0.01
        assert tail == pytest.approx(1.0 - sv_pmf(0, r) - sv_pmf(2, r), rel=1e-12)

    def test_tail_complement_matches_direct_sum(self):
        # At r = 2 the head n < 4 holds 0.39 of the mass, so the complement is
        # taken, and a direct sum still converges within 2000 terms.
        direct = sum(sv_pmf(n, 2.0) for n in range(4, 4000, 2))
        assert sv_tail_ge(4, 2.0) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("n_min, r, value", [
        (10, 0.02, 2.5170619885817183e-18),
        (3, 0.02, 5.997600691827187e-08),
        (40, 0.5, 5.466114141474843e-15),
    ])
    def test_tail_small_r_direct_sum_values(self, n_min, r, value):
        assert sv_tail_ge(n_min, r) == pytest.approx(value, rel=1e-12)

    def test_tail_direct_sum_cap_raises(self, monkeypatch):
        monkeypatch.setattr(fock_statistics, "_SV_TAIL_TERMS", 2)
        with pytest.raises(NumericalConsistencyError):
            sv_tail_ge(4, 0.1)

    def test_tail_of_a_fractional_count_is_rejected(self):
        # (0.5 + 1) // 2 = 0 read the bound as n >= 0, and the tail as the whole mass 1.0.
        with pytest.raises(ValueError, match=r"^n_min must be a whole number, got 0\.5$"):
            sv_tail_ge(0.5, 0.3)

    @given(st.integers(min_value=0, max_value=60), st.floats(min_value=0.0, max_value=2.0))
    def test_parity_and_range(self, k, r):
        n = 2 * k + 1
        assert sv_pmf(n, r) == 0.0
        assert 0.0 <= sv_pmf(n - 1, r) <= 1.0


class TestHermite:
    def test_known_values(self):
        assert hermite_complex(0, 3.7 + 2j) == 1.0
        assert hermite_complex(2, 1 + 1j) == pytest.approx(-2 + 8j)
        assert hermite_complex(3, 2.0) == pytest.approx(40.0)

    def test_real_axis_matches_scipy(self):
        from scipy.special import eval_hermite

        for n in (1, 4, 9, 17):
            for x in (-2.0, 0.3, 1.9):
                assert hermite_complex(n, x).real == pytest.approx(
                    float(eval_hermite(n, x)), rel=1e-10)
                assert hermite_complex(n, x).imag == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            hermite_complex(-1, 0.0)


class TestDssPmf:
    def test_rejects_degenerate_squeezing(self):
        with pytest.raises(ValueError, match="finite r > 0"):
            dss_pmf(0, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="finite r > 0"):
            dss_pmf(0, 1.0, -0.1, 0.0)

    @pytest.mark.parametrize("amp", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
    def test_normalization(self, amp, r):
        alpha = amp * np.exp(0.4j)
        total = sum(dss_pmf(n, alpha, r, 0.7) for n in range(300))
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("alpha,r,theta", [
        (0.8, 0.4, 0.0),
        (1.5 + 0.5j, 0.7, 1.3),
        (0.3 - 1.1j, 0.2, -2.0),
        (2.0, 1.2, 3.0),
    ])
    def test_matches_fock_space_oracle(self, alpha, r, theta):
        oracle = squeezed_displaced_pmf(alpha, r, theta, dim=220)
        for n in range(40):
            assert dss_pmf(n, alpha, r, theta) == pytest.approx(oracle[n], abs=5e-13)

    @pytest.mark.parametrize("alpha,r,theta", [
        (0.8, 0.4, 0.0),
        (1.5 + 0.5j, 0.7, 1.3),
        (0.3 - 1.1j, 0.2, -2.0),
    ])
    def test_mean_photon_number(self, alpha, r, theta):
        # Independent moment oracle plus the matching Gaussian-state closed
        # form |a cosh r - a* e^{j theta} sinh r|^2 + sinh^2 r.
        oracle = squeezed_displaced_pmf(alpha, r, theta, dim=220)
        mean_series = sum(n * dss_pmf(n, alpha, r, theta) for n in range(300))
        assert mean_series == pytest.approx(pmf_mean(oracle), rel=1e-10)
        closed = (
            abs(alpha * math.cosh(r) - np.conjugate(alpha) * np.exp(1j * theta) * math.sinh(r)) ** 2
            + math.sinh(r) ** 2
        )
        assert mean_series == pytest.approx(closed, rel=1e-10)

    def test_poisson_limit_at_tiny_squeezing(self):
        d = design_at_optimal_beta(1.0)
        res = residual(d, MismatchModel(1e-6 / 2, 0.0))  # r_m = 5e-7-ish
        alpha = 2.0 * d.gamma
        for n in range(21):
            assert dss_pmf(n, alpha, 1e-6, res.theta_m) == pytest.approx(
                poisson_pmf(n, abs(alpha) ** 2), abs=1e-6)

    def test_even_odd_oscillation_exists(self):
        # Residual squeezing leaves interference dips in the count pmf;
        # this operating point has local minima at n = 6 and n = 9.
        d = design_at_optimal_beta(0.25)
        res = residual(d, MismatchModel(0.3, 0.0))
        p = [dss_pmf(n, 2.0 * d.gamma, res.r_m, res.theta_m) for n in range(11)]
        mins = [n for n in range(1, 10) if p[n] < p[n - 1] and p[n] < p[n + 1]]
        assert mins, f"no local minimum below 10 in {p}"

    def test_zero_hermite_gives_zero_probability(self):
        # alpha = 0 makes odd orders hit H_n(0) = 0 exactly
        assert dss_pmf(1, 0.0, 0.5, 0.0) == 0.0
        assert dss_pmf(5, 0.0, 0.5, 2.0) == 0.0


# (A, r, theta, n) deep enough that |H_n(z)| passes the 1e150 rescale.
_RESCALED = [(4.0 + 1.0j, 0.05, 0.4, 120), (6.0 - 2.0j, 1.0, -3.0, 300),
             (3.0 + 3.0j, 2.5, 3.14159, 440)]


class TestRunningDssLaw:
    """photon_pmf's DSS law keeps one recurrence; dss_pmf starts a fresh one."""

    def test_points_reach_the_rescale(self):
        for A, r, theta, n in _RESCALED:
            z = A * np.exp(-0.5j * theta) / math.sqrt(math.sinh(2.0 * r))
            assert not abs(hermite_complex(n, complex(z))) <= fock_statistics._RESCALE_AT

    @given(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), st.floats(1e-8, 3.0),
           st.floats(-math.pi, math.pi, exclude_min=True),
           st.lists(st.integers(0, 440), min_size=1, max_size=6))
    @example(1.5, 0.5, 0.7, 1.3, [50, 3, 120])
    @example(4.0, 1.0, 0.05, 0.4, [120, 0, 119])
    @example(6.0, -2.0, 1.0, -3.0, [300, 440, 299])
    @example(3.0, 3.0, 2.5, 3.14159, [440, 7])
    @settings(max_examples=60, deadline=None)
    def test_memo_is_bit_identical_to_scalar(self, re, im, r, theta, ns):
        A = complex(re, im)
        assume(A != 0)
        law = photon_pmf(A, r, theta)
        for n in ns:
            assert law(n) == dss_pmf(n, A, r, theta)

    def test_values_pinned_before_the_running_law(self):
        # dss_pmf values of the per-n recurrence that the running law replaced.
        # The n = 120 and n = 440 values were re-pinned when log-gamma became
        # math.lgamma, which is 1 ulp off at 121 and 441: they moved by 1.1e-13
        # and 4.5e-13 relative, and mpmath puts them 1.5e-14 -> 9.9e-14 and
        # 1.7e-13 -> 6.3e-13 from the exact pmf.
        pinned = [((1.5 + 0.5j, 0.7, 1.3, 0), 0.21644482659852987),
                  ((0.3 - 1.1j, 0.2, -2.0, 7), 0.00016515742475717272),
                  ((4.0 + 1.0j, 0.05, 0.4, 120), 1.1525519618740165e-87),
                  ((6.0 - 2.0j, 1.0, -3.0, 300), 0.004888578359621126),
                  ((3.0 + 3.0j, 2.5, 3.14159, 440), 5.971931574244521e-05)]
        for (A, r, theta, n), value in pinned:
            assert dss_pmf(n, A, r, theta) == value
            assert photon_pmf(A, r, theta)(n) == value

    def test_law_rejects_bad_counts(self):
        law = photon_pmf(1.0, 0.3, 0.0)
        for n in (-1, 1.5):
            with pytest.raises(ValueError):
                law(n)


_BAD_COUNTS = (-1, 1.5, math.nan, math.inf, -math.inf)

# Every law entry point: name -> a function of n, built anew for each test.
_LAW_ENTRY_POINTS = {
    "poisson_pmf": lambda: lambda n: poisson_pmf(n, 1.3),
    "sv_pmf": lambda: lambda n: sv_pmf(n, 0.4),
    "dss_pmf": lambda: lambda n: dss_pmf(n, 1.2 - 0.3j, 0.4, 0.5),
    "photon_pmf Poisson": lambda: fock_statistics._law.__wrapped__(1.2, 0.0, 0.0),
    "photon_pmf squeezed vacuum": lambda: fock_statistics._law.__wrapped__(0.0, 0.4, 0.0),
    "photon_pmf DSS": lambda: fock_statistics._law.__wrapped__(1.2 - 0.3j, 0.4, 0.5),
}


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
@pytest.mark.parametrize("entry", sorted(_LAW_ENTRY_POINTS))
def test_every_law_rejects_bad_counts(entry, warm):
    pmf = _LAW_ENTRY_POINTS[entry]()
    if warm:
        last = pmf(40)
        assert pmf(40) == last
    for n in _BAD_COUNTS:
        with pytest.raises(ValueError, match="count must be a nonnegative integer"):
            pmf(n)


def _spellings(x, as_complex=False):
    """Equal spellings of the real number x, also as complex numbers if asked."""
    out = [x, np.float64(x)] + ([complex(x, 0.0), complex(x, -0.0)] if as_complex else [])
    return out + ([0, -0.0] if x == 0 else [])


class TestKeptLaws:
    """photon_pmf shares one kept law per argument triple, under a cap."""

    @given(st.sampled_from(["poisson", "sv", "dss"]), st.floats(-6.0, 6.0),
           st.floats(1e-8, 3.0), st.floats(-math.pi, math.pi), st.integers(0, 5),
           st.lists(st.tuples(st.integers(0, 1), st.integers(0, 440)), min_size=1, max_size=12),
           st.lists(st.integers(0, 5), min_size=6, max_size=6))
    @example("sv", 0.0, 1e-8, 0.0, 0, [(0, 440), (1, 0), (0, 439)], [4, 5, 1, 3, 0, 2])
    @example("poisson", 2.0, 0.0, 0.0, 0, [(1, 30), (0, 31), (1, 0)], [2, 3, 1, 0, 5, 4])
    @example("dss", 3.0, 2.5, 0.0, 1, [(0, 440), (1, 7), (0, 120)], [0, 4, 3, 2, 1, 5])
    @settings(max_examples=80, deadline=None)
    def test_shared_values_equal_fresh_builds(self, branch, a, r, theta, theta_spelling,
                                              reads, picks):
        if branch == "sv":
            a = 0.0
        elif branch == "poisson":
            r = 0.0 if r > 2.9 else r * 0.99e-8 / 3.0
        assume(branch != "dss" or a != 0)
        if theta_spelling == 0:
            theta = 0.0
        As, rs, thetas = _spellings(a, as_complex=True), _spellings(r), _spellings(theta)
        args = [(As[picks[i] % len(As)], rs[picks[2 + i] % len(rs)],
                 thetas[picks[4 + i] % len(thetas)]) for i in (0, 1)]
        fock_statistics._law.cache_clear()
        callers = [photon_pmf(*arg) for arg in args]
        assert callers[0] is callers[1]
        fresh = [fock_statistics._law.__wrapped__(*arg) for arg in args]
        for who, n in reads:
            value = callers[who](n)
            assert value == fresh[0](n) == fresh[1](n)
            if branch == "poisson":
                assert value == poisson_pmf(n, abs(a) ** 2)
            elif branch == "sv":
                assert value == sv_pmf(n, r)
            else:
                assert value == dss_pmf(n, a, r, theta)
        assert fock_statistics._law.cache_info().currsize <= fock_statistics._LAW_CAP

    def test_a_poisson_law_reads_past_an_overflowing_power(self):
        fock_statistics._law.cache_clear()
        law = photon_pmf(1e150, 0.0)
        assert [law(2), law(30), law(0)] == [0.0, 0.0, 0.0]

    def test_a_law_whose_computation_raises_keeps_its_values_and_raises_past_them(self):
        failure = OverflowError("value 2")

        def values():
            yield 0.5
            yield 0.25
            raise failure

        law = fock_statistics.KeptLaw(values())
        for n in (5, 2, 30, 3):
            with pytest.raises(OverflowError) as raised:
                law(n)
            assert raised.value is failure
        assert (law(0), law(1)) == (0.5, 0.25)

    def test_head_past_a_failing_generator_reraises_its_exception(self):
        failure = OverflowError("value 2")

        def values():
            yield 0.5
            yield 0.25
            raise failure

        law = fock_statistics.KeptLaw(values())
        for M in (5, 3, 30):
            with pytest.raises(OverflowError) as raised:
                law.head(M)
            assert raised.value is failure
        assert (law.head(2), law.head(1)) == ([0.5, 0.25], [0.5])

    def test_a_law_over_a_finite_iterator_names_its_length_past_the_end(self):
        law = fock_statistics.KeptLaw(iter([0.5, 0.5]))
        for read in (lambda: law(3), lambda: law.head(5), lambda: clamp_to_resolution(law, 4)):
            with pytest.raises(IndexError, match="the law holds 2 values"):
                read()
        assert (law(0), law(1), law.head(2)) == (0.5, 0.5, [0.5, 0.5])
        assert list(clamp_to_resolution(law, 1).probs) == [0.5, 0.5]

    def test_reading_a_failed_law_again_does_not_grow_its_traceback(self):
        fock_statistics._law.cache_clear()
        law = photon_pmf(1e200, 0.5)  # |A|^2 overflows before the first value
        depths = []
        for _ in range(200):
            with pytest.raises(OverflowError) as raised:
                law.head(3) if len(depths) % 2 else law(0)
            depths.append(len(traceback.extract_tb(raised.value.__traceback__)))
        assert max(depths) <= min(depths) + 1

    def test_a_law_over_a_resumable_iterator_does_not_resume_past_its_failure(self):
        # map() would go on at n = 3 after pmf(2) raised, and put P(3) at index 2.
        failure, reads = ValueError("n = 2"), []

        def pmf(n):
            reads.append(n)
            if n == 2:
                raise failure
            return 0.25

        law = fock_statistics.KeptLaw(map(pmf, itertools.count()))
        for read in (lambda: law.head(4), lambda: law(2), lambda: law.head(3)):
            with pytest.raises(ValueError) as raised:
                read()
            assert raised.value is failure
        assert reads == [0, 1, 2] and law.head(2) == [0.25, 0.25]

    def test_a_dss_law_that_overflows_raises_at_every_read(self):
        fock_statistics._law.cache_clear()
        law = photon_pmf(1e200, 0.5)  # |A|^2 overflows before the first value
        for n in (0, 30, 0, 5):
            with pytest.raises(OverflowError):
                law(n)

    def test_cache_holds_at_most_its_cap(self):
        fock_statistics._law.cache_clear()
        for i in range(3 * fock_statistics._LAW_CAP):
            photon_pmf(0.1 * i, 0.3, 0.0)(5)
            assert fock_statistics._law.cache_info().currsize == min(
                i + 1, fock_statistics._LAW_CAP)

    @given(st.sampled_from(["poisson", "sv", "dss"]), st.floats(-6.0, 6.0),
           st.floats(1e-8, 3.0), st.floats(-math.pi, math.pi),
           st.lists(st.tuples(st.booleans(), st.integers(0, 440)), min_size=1, max_size=8),
           st.randoms(use_true_random=False))
    @example("sv", 0.0, 0.02, 0.0, [(True, 1), (True, 3), (False, 2)], random.Random(0))
    @example("dss", 3.0, 2.5, 3.14159, [(False, 300), (True, 441)], random.Random(1))
    @example("poisson", 1e150, 0.0, 0.0, [(True, 31), (False, 2)], random.Random(2))
    @settings(max_examples=60, deadline=None)
    def test_head_is_the_law_read_per_n_and_a_fresh_build(self, branch, a, r, theta, reads,
                                                          rnd):
        """head(M) == [law(n) for n < M] == a fresh law's head and per-n reads, bit for
        bit, on a fresh or warm law, whatever was read before and in what order."""
        if branch == "sv":
            a = 0.0
        elif branch == "poisson":
            r = 0.0
        assume(branch != "dss" or a != 0)
        fock_statistics._law.cache_clear()
        law = photon_pmf(a, r, theta)
        for is_head, k in reads:
            M = max(k, 1)
            if not is_head:
                law(k)
                continue
            head = law.head(M)
            fresh, shuffled = (fock_statistics._law.__wrapped__(a, r, theta) for _ in "ab")
            order = list(range(M))
            rnd.shuffle(order)
            by_n = {n: shuffled(n) for n in order}
            want = [repr(v) for v in fresh.head(M)]
            assert [repr(v) for v in head] == want
            assert [repr(law(n)) for n in range(M)] == want
            assert [repr(by_n[n]) for n in range(M)] == want
            assert law.head(M) == head and law.head(M) is not head

    @pytest.mark.parametrize("M", [1, 3, 10, 40, 200])
    @pytest.mark.parametrize("arg", [(2.5, 0.0, 0.0), (0.0, 0.4, 0.0), (1.2 - 0.3j, 0.4, 0.5),
                                     (3.0 + 3.0j, 2.5, 3.14159)])
    def test_clamping_a_plain_callable_equals_the_law_path(self, arg, M):
        fresh = fock_statistics._law.__wrapped__(*arg)
        by_callable = clamp_to_resolution(lambda n: fresh(n), M).probs
        by_law = clamp_to_resolution(photon_pmf(*arg), M).probs
        assert list(map(repr, by_callable)) == list(map(repr, by_law))
        if arg[1] == 0.0:
            mu = abs(arg[0]) ** 2
            by_lambda = clamp_to_resolution(lambda n: poisson_pmf(n, mu), M).probs
            by_poisson_law = clamp_to_resolution(fock_statistics.poisson_law(mu), M).probs
            assert list(map(repr, by_lambda)) == list(map(repr, by_poisson_law)) == list(
                map(repr, by_law))

    def test_threads_reading_heads_and_values_agree_with_one_thread(self):
        args = [(1.7 + 0.4j, 0.3, 0.8), (0.0, 0.9, 0.0), (2.0, 0.0, 0.0)]
        want = [fock_statistics._law.__wrapped__(*arg).head(441) for arg in args]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for rnd in range(10):
                fock_statistics._law.cache_clear()
                laws = [photon_pmf(*arg) for arg in args]
                start = threading.Barrier(4, timeout=60)
                errors, bad = [], []

                def read(seed):
                    draw = random.Random(seed)
                    start.wait()
                    try:
                        for _ in range(200):
                            i, k = draw.randrange(len(laws)), draw.randrange(1, 442)
                            if draw.random() < 0.5:
                                ok = laws[i].head(k) == want[i][:k]
                            else:
                                ok = laws[i](k - 1) == want[i][k - 1]
                            if not ok:
                                bad.append((i, k))
                    except Exception as exc:
                        errors.append(exc)

                threads = [threading.Thread(target=read, args=(100 * rnd + k,)) for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert errors == [] and bad == []
                assert [law.head(441) for law in laws] == want
        finally:
            sys.setswitchinterval(switch)

    def test_threads_read_shared_laws_as_one_thread_does(self):
        args = [(1.7 + 0.4j, 0.3, 0.8), (0.0, 0.9, 0.0)]
        want = [[fock_statistics._law.__wrapped__(*arg)(n) for n in range(441)] for arg in args]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for rnd in range(10):
                fock_statistics._law.cache_clear()
                laws = [photon_pmf(*arg) for arg in args]
                start = threading.Barrier(4, timeout=60)
                got, errors = [], []

                def read(seed):
                    order = list(range(441))
                    random.Random(seed).shuffle(order)
                    start.wait()
                    try:
                        for n in order:
                            got.extend((i, n, law(n)) for i, law in enumerate(laws))
                    except Exception as exc:
                        errors.append(exc)

                threads = [threading.Thread(target=read, args=(100 * rnd + k,)) for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert errors == []
                assert len(got) == 4 * 2 * 441
                assert all(value == want[i][n] for i, n, value in got)
        finally:
            sys.setswitchinterval(switch)


def _clamped(M):
    dist = clamp_to_resolution(lambda n: poisson_pmf(n, 0.7), M)
    return dist.M, np.array(dist.probs).tobytes()


def _detector_rule(M):
    det = DetectorModel(1.0, 1e-2, M)
    return det, p_err_imperfect(design_at_optimal_beta(1.0), det)


# Every entry point that takes a detector resolution: M -> what it gives.
RESOLUTION_ENTRY_POINTS = {
    "clamp_to_resolution": _clamped,
    "DetectorModel": _detector_rule,
    "MismatchScenario": lambda M: MismatchScenario(MismatchModel(0.02, 0.0), M),
    "ideal_decision": lambda M: ideal_decision(design_at_optimal_beta(1.0), M),
    "threshold_accept_set": lambda M: threshold_accept_set(1, M),
    "saturation_floor": lambda M: saturation_floor(M, 1e-2),
    "exact_saturation_floor": lambda M: exact_saturation_floor(M, 1e-2),
    "parity_saturation_floor": lambda M: parity_saturation_floor(M, 0.02),
    "exact_parity_floor": lambda M: exact_parity_floor(M, 0.02),
    "CountDistribution": lambda M: CountDistribution([0.5, 0.25, 0.25], M),
}


class TestClampToResolution:
    def test_zero_mean_poisson(self):
        dist = clamp_to_resolution(lambda n: poisson_pmf(n, 0.0), 3)
        np.testing.assert_allclose(dist.probs, [1.0, 0.0, 0.0, 0.0], atol=0)

    def test_squeezed_vacuum_click_probability(self):
        dist = clamp_to_resolution(lambda n: sv_pmf(n, 0.02), 1)
        assert dist.probs[0] == pytest.approx(1.0 / math.cosh(0.02), rel=1e-14)
        assert dist.probs[1] == pytest.approx(1.0 - 1.0 / math.cosh(0.02), rel=1e-9)

    def test_poisson_tail_bin(self):
        dist = clamp_to_resolution(lambda n: poisson_pmf(n, 4.0), 2)
        assert dist.probs[2] == pytest.approx(1.0 - math.exp(-4.0) * 5.0, rel=1e-13)

    def test_rejects_excess_mass(self):
        with pytest.raises(NumericalConsistencyError):
            clamp_to_resolution(lambda n: 0.6, 3)

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            clamp_to_resolution(lambda n: poisson_pmf(n, 1.0), 0)

    @pytest.mark.parametrize("entry", sorted(RESOLUTION_ENTRY_POINTS))
    def test_resolution_is_checked_alike_everywhere(self, entry):
        at = RESOLUTION_ENTRY_POINTS[entry]
        assert repr(at(2.0)) == repr(at(2))
        for M in (0, 1.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                at(M)

    @given(st.floats(min_value=0.0, max_value=30.0), st.integers(min_value=1, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_clamped_poisson_properties(self, mu, M):
        dist = clamp_to_resolution(lambda n: poisson_pmf(n, mu), M)
        probs = np.array(dist.probs)
        assert dist.M == M
        assert type(dist.probs) is tuple and probs.shape == (M + 1,)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert dist.probs[M] == pytest.approx(poisson_tail_ge(M, mu), abs=1e-12)

    def test_count_distribution_validation(self):
        with pytest.raises(NumericalConsistencyError):
            CountDistribution(probs=np.array([0.5, 0.2]), M=1)
        with pytest.raises(ValueError):
            CountDistribution(probs=np.array([0.5, 0.5]), M=2)


def _input_entry_points():
    """Every entry point that checks a model input: key -> (quantity, value -> call)."""
    import iskennedy as ik
    from iskennedy import gaussian_states as gs
    from iskennedy import receiver_ideal as ri
    from iskennedy import receiver_imperfect as rimp
    from iskennedy import receiver_mismatch as rm

    design = design_at_optimal_beta(1.0)
    det, mm = DetectorModel(0.9, 1e-3, 3), MismatchModel(0.02, 0.0)
    res = residual(design, mm)
    entries = {
        "N": [ik.helstrom_cs, ik.sql_cs, ik.hb_dss_opt, ik.sql_dss_opt, ik.p_err_ideal,
              ri.p_err_kennedy, ri.ratio_to_helstrom, gs.optimal_beta,
              lambda N: gs.make_design(N, 0.5), design_at_optimal_beta],
        "alpha": [lambda a: ik.helstrom_dss(a, 0.5), lambda a: ik.sql_dss(a, 0.5)],
        "r": [lambda r: ik.helstrom_dss(0.5, r), lambda r: ik.sql_dss(0.5, r),
              lambda r: rm.bogoliubov(r, mm), lambda r: rm.first_order_residual(r, mm),
              lambda r: sv_pmf(2, r), lambda r: photon_pmf(1.0, r)(0),
              lambda r: photon_pmf(0.0, r)(0), lambda r: photon_pmf(1.0, r, 0.5)(3),
              lambda r: dss_pmf(0, 1.0, r)],
        # Signed quantities: only non-finite values are rejected.
        "A": [lambda a: photon_pmf(a, 0.0)(2), lambda a: photon_pmf(a, 0.5)(2),
              lambda a: photon_pmf(complex(0.5, a), 0.5)(2)],
        "alpha_c": [lambda a: dss_pmf(2, a, 0.5), lambda a: dss_pmf(2, complex(1.0, a), 0.5)],
        "theta": [lambda t: photon_pmf(1.0, 0.5, t)(2), lambda t: photon_pmf(0.0, 0.5, t)(2),
                  lambda t: photon_pmf(1.0, 0.0, t)(2), lambda t: dss_pmf(2, 1.0, 0.5, t)],
        "x": [lambda x: gs.homodyne_pdf(x, design, 0),
              lambda x: gs.wigner_dss(x, 0.0, design, 0)],
        "p": [lambda p: gs.wigner_dss(0.0, p, design, 0)],
        "delta_r": [lambda d: MismatchModel(d, 0.0), lambda d: parity_saturation_floor(3, d)],
        "delta_theta": [lambda d: MismatchModel(0.02, d)],
        "n_eff": [lambda n: rimp.optimal_threshold(det, n)],
        "nu": [lambda nu: DetectorModel(1.0, nu, 1), lambda nu: saturation_floor(1, nu),
               lambda nu: exact_saturation_floor(1, nu)],
        "symbol": [lambda s: gs.wigner_dss(0.0, 0.0, design, s),
                   lambda s: next(gs.wigner_grid([0.0], [0.0], design, s)),
                   lambda s: gs.homodyne_pdf(0.0, design, s),
                   lambda s: ri.ideal_count_pmf(design, s, 3),
                   lambda s: rimp.detected_count_pmf(design, det, s),
                   lambda s: rm.mismatch_law(design, res, s),
                   lambda s: rm.mismatch_count_pmf(design, res, 3, s)],
        # One-line domain comparisons of their own.
        "probabilities": [lambda p: ik.ratio_db(p, 0.5), lambda p: ik.ratio_db(0.5, p)],
        "mu0": [lambda mu: ri.map_threshold_ideal(mu, 2.0)],
        "mu1": [lambda mu: ri.map_threshold_ideal(0.0, mu)],
        # A whole number, a negative one clamped to 0; 1.5 is checked in test_receiver_ideal.
        "n_th": [lambda n: ri.threshold_accept_set(n, 4)],
        # Counts of the tail sums, read alike; TestTailSumCount checks 2.0, 1.5 and negatives.
        "k": [lambda k: poisson_tail_ge(k, 5.0), lambda k: poisson_cdf_below(k, 1.0)],
        "n_min": [lambda n: sv_tail_ge(n, 0.3)],
    }
    return {f"{quantity}:{i}": (quantity, call)
            for quantity, calls in entries.items() for i, call in enumerate(calls)}


INPUT_ENTRY_POINTS = _input_entry_points()
SIGNED_INPUTS = {"A", "alpha_c", "theta", "x", "p", "delta_r", "delta_theta", "n_th", "k", "n_min"}


@pytest.mark.parametrize("entry", sorted(INPUT_ENTRY_POINTS))
def test_inputs_are_checked_alike_everywhere(entry):
    quantity, at = INPUT_ENTRY_POINTS[entry]
    fock_statistics._law.cache_clear()
    for value in (math.nan, math.inf, -math.inf) + (() if quantity in SIGNED_INPUTS else (-1.0,)):
        with pytest.raises(ValueError, match=rf"(^|\W){re.escape(quantity)}\W"):
            at(value)
    assert fock_statistics._law.cache_info().currsize == 0  # no law of a rejected input is kept
    if quantity in SIGNED_INPUTS:
        at(-1.0)  # a finite negative value is a valid signed input


def test_poisson_mean_takes_the_infinite_limit_and_rejects_the_rest():
    assert [poisson_pmf(n, math.inf) for n in (0, 1, 2, 20, 21, 300)] == [0.0] * 6
    for mu in (math.nan, -math.inf, -1.0):
        with pytest.raises(ValueError, match="Poisson mean"):
            poisson_pmf(1, mu)


def _numpy_stored(probs, M):
    """What CountDistribution stored when it checked with numpy: asarray,
    the same range and mass checks, then np.clip."""
    p = np.asarray(probs, dtype=float)
    assert p.shape == (M + 1,)
    assert not (np.any(p < -1e-15) or np.any(p > 1.0 + 1e-12))
    assert abs(p.sum() - 1.0) <= 1e-12
    return np.clip(p, 0.0, 1.0)


def _numpy_clamp(pmf, M):
    """clamp_to_resolution as it was when it filled a numpy array."""
    probs = np.empty(M + 1)
    partial = 0.0
    for n in range(M):
        probs[n] = pmf(n)
        partial += probs[n]
    probs[M] = max(0.0, 1.0 - partial)
    return _numpy_stored(probs, M)


_RESOLUTIONS = (1, 2, 3, 10, 40, 200)

# (A, r, theta) for photon_pmf: Poisson below r = 1e-8, squeezed vacuum at
# A = 0, the DSS law otherwise.
_LAWS = [(0.0, 0.0, 0.0), (0.03, 0.0, 0.0), (1.2, 1e-9, 0.0), (5.0, 0.0, 0.0),
         (0.0, 0.02, 0.3), (0.0, 0.8, 0.0), (0.0, 2.0, -1.0),
         (1.3, 0.4, 0.0), (2.0 + 0.5j, 0.05, 1.1), (0.7 - 1.2j, 1.5, -2.5), (3.0, 0.02, 0.0)]


class TestPlainFloatConstruction:
    """Checking as Python floats stores the same bytes as checking with numpy."""

    @pytest.mark.parametrize("M", _RESOLUTIONS)
    @pytest.mark.parametrize("law", _LAWS)
    def test_clamped_laws_match_numpy_construction(self, law, M):
        new = clamp_to_resolution(photon_pmf(*law), M).probs
        assert type(new) is tuple
        assert np.array(new).tobytes() == _numpy_clamp(photon_pmf(*law), M).tobytes()

    @pytest.mark.parametrize("M", _RESOLUTIONS)
    def test_detector_outputs_match_numpy_construction(self, M, monkeypatch):
        from iskennedy import DetectorModel, receiver_imperfect
        from iskennedy.receiver_imperfect import apply_detector_to_pmf

        given_probs = []

        def recording(probs, M):
            given_probs.append(np.array(probs))
            return CountDistribution(probs=probs, M=M)

        monkeypatch.setattr(receiver_imperfect, "CountDistribution", recording)
        for eta, nu in ((1.0, 0.0), (0.6, 0.0), (0.9, 1e-2), (0.3, 2.0)):
            for law in ((0.0, 0.3, 0.0), (1.5, 0.2, 0.4), (1.4, 0.0, 0.0)):
                dist = apply_detector_to_pmf(photon_pmf(*law), DetectorModel(eta, nu, M))
                assert type(dist.probs) is tuple
                assert (np.array(dist.probs).tobytes()
                        == _numpy_stored(given_probs[-1], M).tobytes())


class TestCountDistributionConstruction:
    def test_whole_float_resolution_reads_as_int(self):
        from iskennedy import DecisionProblem, map_set_decision

        dists = [CountDistribution(p, 2.0) for p in ([0.5, 0.25, 0.25], [0.25, 0.25, 0.5])]
        assert type(dists[0].M) is int
        rule = map_set_decision(DecisionProblem(*dists))
        assert rule == map_set_decision(DecisionProblem(
            *(CountDistribution(d.probs, 2) for d in dists)))

    def test_tiny_negative_entry_is_stored_as_positive_zero(self):
        dist = CountDistribution(probs=[1.0, -1e-16], M=1)
        assert dist.probs[1] == 0.0 and math.copysign(1.0, dist.probs[1]) == 1.0

    def test_entries_just_above_one_are_clipped(self):
        dist = CountDistribution(probs=(1.0 + 5e-13, 0.0), M=1)
        assert dist.probs == (1.0, 0.0)

    @pytest.mark.parametrize("probs", [np.array([[0.5, 0.5]]), np.array([[0.5], [0.5]]),
                                       np.array(1.0)])
    def test_rejects_arrays_that_are_not_one_dimensional(self, probs):
        with pytest.raises(ValueError, match="expected 2 probabilities"):
            CountDistribution(probs=probs, M=1)

    @pytest.mark.parametrize("probs", [[1.0], (0.5, 0.25, 0.25), np.array([1.0, 0.0, 0.0])])
    def test_rejects_a_wrong_length(self, probs):
        with pytest.raises(ValueError, match="expected 2 probabilities"):
            CountDistribution(probs=probs, M=1)

    @pytest.mark.parametrize("probs", [[0.5, float("nan")], [1.0 + 2e-12, 0.0], [1.0, -2e-15]])
    def test_rejects_values_out_of_range(self, probs):
        with pytest.raises(ValueError, match="out of"):
            CountDistribution(probs=probs, M=1)

    @pytest.mark.parametrize("probs", [
        [0.25, 0.75], (0.25, 0.75), [0, 1], (True, False), np.array([0.25, 0.75]),
        np.array([0.25, 0.75], dtype=np.float32), np.array([1, 0]), [np.float64(0.25), 0.75],
    ])
    def test_sequences_are_stored_as_one_dimensional_float64(self, probs):
        dist = CountDistribution(probs=probs, M=1)
        assert type(dist.probs) is tuple and len(dist.probs) == 2
        assert all(type(x) is float for x in dist.probs)
        assert np.array(dist.probs).tobytes() == np.array(probs, dtype=np.float64).tobytes()
        assert list(dist.probs) == [float(x) for x in probs]

    def test_clamped_laws_are_stored_as_one_dimensional_float64(self):
        for M in _RESOLUTIONS:
            probs = clamp_to_resolution(photon_pmf(1.3, 0.4), M).probs
            assert type(probs) is tuple and len(probs) == M + 1
            assert all(type(x) is float for x in probs)


def _bits(*xs):
    return struct.pack(f"{len(xs)}d", *xs)


def _numpy_dss_law(A, r, theta):
    """The DSS law as it was spelled with numpy: two_z by numpy's complex division, then
    the same Hermite recurrence, so that z carries numpy's signed zeros."""
    two_z = 2.0 * complex(A * np.exp(-0.5j * theta) / math.sqrt(math.sinh(2.0 * r)))
    quad = (np.exp(-1j * theta) * A * A).real * math.tanh(r)
    log_half_t, log_cosh, abs2 = math.log(math.tanh(r) / 2.0), math.log(math.cosh(r)), abs(A) ** 2
    h_prev, h, log_scale = 0.0 + 0.0j, 1.0 + 0.0j, 0.0
    for k in itertools.count():
        if k:
            h_prev, h = h, two_z * h - 2.0 * (k - 1) * h_prev
            m = max(abs(h), abs(h_prev))
            if m > 1e150:
                h, h_prev, log_scale = h / m, h_prev / m, log_scale + math.log(m)
        yield 0.0 if h == 0 else math.exp(
            k * log_half_t - math.lgamma(k + 1) - log_cosh
            + 2.0 * (math.log(abs(h)) + log_scale) - abs2 + quad)


class TestNumpyFreeSpellings:
    """The plain-Python spellings of the DSS law give numpy's bits."""

    def test_dss_law_matches_numpy_spelling_bit_for_bit(self):
        # The plain complex product leaves z's zero parts signed unlike numpy's division;
        # the recurrence reads only |h| and h == 0, so no law value may move.
        rng = random.Random(20261019)
        zeros = (0.0, -0.0)
        for i in range(20_000):
            re, im = rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)
            if i % 5 == 1:
                im = rng.choice(zeros)
            elif i % 5 == 2:
                re = rng.choice(zeros)
            r = rng.uniform(1e-8, 3.0) if i % 2 else 10.0 ** rng.uniform(-8.0, 0.5)
            theta = rng.choice((rng.uniform(-math.pi, math.pi), 0.0, -0.0, math.pi, -math.pi,
                                0.03 * math.pi))
            A = complex(re, im)
            new = fock_statistics.KeptLaw(fock_statistics._dss_values(A, r, theta)).head(60)
            old = fock_statistics.KeptLaw(_numpy_dss_law(A, r, theta)).head(60)
            assert _bits(*new) == _bits(*old), (A, r, theta)

    def test_math_exp_matches_numpy_where_log_p_can_reach_zero(self):
        # log_p >= 0 is reached only where the terms of log P(0) all round to zero
        # (no Gaussian state has P(n >= 1) within rounding of 1): log_p is then +-0 or a
        # subnormal sum; [0, 1e-12] holds that range with room to spare.
        rng = random.Random(20261020)
        xs = [0.0, -0.0, 5e-324, 2.0 ** -1070, 2.0 ** -53, 2.0 ** -52, 1e-12]
        xs += [rng.uniform(0.0, 1e-12) for _ in range(10_000)]
        xs += [10.0 ** rng.uniform(-323.0, -12.0) for _ in range(10_000)]
        for x in xs:
            assert _bits(math.exp(x)) == _bits(float(np.exp(x))), x


def _lgamma_sv_law(r):
    """The squeezed-vacuum law spelled value by value through _sv_term's math.lgamma calls."""
    log_t, log_cosh = math.log(math.tanh(r)), math.log(math.cosh(r))
    yield 1.0 / math.cosh(r)
    for k in itertools.count(1):
        yield 0.0
        yield fock_statistics._sv_term(k, log_t, log_cosh)


class TestLogFactorialTable:
    """The kept laws read log n! from one shared table, and give the bits of math.lgamma."""

    def test_every_entry_is_math_lgamma(self):
        table = fock_statistics.log_factorials(1500)
        assert len(table) >= 1500
        assert all(type(x) is float for x in table)
        assert _bits(*table) == _bits(*(math.lgamma(n + 1) for n in range(len(table))))

    def test_laws_grow_a_fresh_table_only_to_the_counts_they_produced(self, monkeypatch):
        monkeypatch.setattr(fock_statistics, "_LOG_FACT", [])
        fock_statistics.KeptLaw(fock_statistics._dss_values(1.2 - 0.3j, 0.4, 0.5)).head(50)
        assert len(fock_statistics._LOG_FACT) == 50
        fock_statistics.KeptLaw(fock_statistics._sv_values(0.4)).head(81)
        assert len(fock_statistics._LOG_FACT) == 81  # P(80) reads log 80!
        assert fock_statistics.log_factorials(10) is fock_statistics._LOG_FACT
        assert len(fock_statistics._LOG_FACT) == 81

    def test_single_values_never_grow_it(self):
        size = len(fock_statistics._LOG_FACT)
        start = time.perf_counter()
        assert poisson_pmf(10**6, 3.0) == 0.0
        assert sv_pmf(10**6, 10.0) > 0.0
        assert fock_statistics._sv_term(10**6, math.log(math.tanh(10.0)), 10.0) > 0.0
        assert time.perf_counter() - start < 0.01
        assert len(fock_statistics._LOG_FACT) == size

    def test_eight_threads_growing_it_at_once_give_the_same_table(self, monkeypatch):
        # A handful of threads, each growing by laws and by direct reads in its own order.
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for rnd in range(5):
                monkeypatch.setattr(fock_statistics, "_LOG_FACT", [])
                start = threading.Barrier(8, timeout=60)
                errors = []

                def grow(seed):
                    draw = random.Random(seed)
                    start.wait()
                    try:
                        for _ in range(20):
                            size = draw.randrange(1, 1200)
                            if draw.random() < 0.5:
                                assert len(fock_statistics.log_factorials(size)) >= size
                            else:
                                fock_statistics.KeptLaw(
                                    fock_statistics._dss_values(1.5 + 0.5j, 0.7, 1.3)).head(size)
                    except Exception as exc:
                        errors.append(exc)

                threads = [threading.Thread(target=grow, args=(100 * rnd + k,)) for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert errors == []
                table = fock_statistics._LOG_FACT
                assert 1 <= len(table) < 1200
                assert _bits(*table) == _bits(*(math.lgamma(n + 1) for n in range(len(table))))
        finally:
            sys.setswitchinterval(switch)

    def test_sv_law_matches_lgamma_spelling_bit_for_bit(self):
        rng = random.Random(20261021)
        rs = [1e-8, 0.5, 19.5] + [10.0 ** rng.uniform(-8.0, 1.5) for _ in range(300)]
        for r in rs:
            new = fock_statistics.KeptLaw(fock_statistics._sv_values(r)).head(801)
            old = fock_statistics.KeptLaw(_lgamma_sv_law(r)).head(801)
            assert _bits(*new) == _bits(*old), r

    @pytest.mark.parametrize("A, r, theta, n", _RESCALED)
    def test_dss_law_matches_lgamma_spelling_through_the_rescales(self, A, r, theta, n):
        # |H_n| is taken once a step, and again only after a rescale.
        new = fock_statistics.KeptLaw(fock_statistics._dss_values(A, r, theta)).head(1201)
        old = fock_statistics.KeptLaw(_numpy_dss_law(A, r, theta)).head(1201)
        assert _bits(*new) == _bits(*old)


# N = 2e16 at the optimal split: r = 19.11, past r = 19.06 where tanh r rounds to 1.
_TANH_ONE = design_at_optimal_beta(2e16)


def _vacuum_element(A, r, theta):
    """P(0) of S(r e^{j theta}) D(A)|0>, sech r exp(-|A|^2 + Re[e^{-j theta} A^2] tanh r),
    at 400 digits: enough for -|A|^2 + ... to keep its digits at |A|^2 = 4e300, r = 173."""
    with mpmath.workdps(400):
        A, r = mpmath.mpc(A), mpmath.mpf(r)
        quad = mpmath.re(mpmath.exp(-1j * mpmath.mpf(theta)) * A * A) * mpmath.tanh(r)
        return float(mpmath.sech(r) * mpmath.exp(-abs(A) ** 2 + quad))


class TestLargeDisplacement:
    """Above |A|^2 = 1024 the DSS law takes its Gaussian factor as
    -|A|^2 (1 - tanh r) - 2 Im[A e^{-j theta/2}]^2 tanh r; summed as written,
    -|A|^2 + Re[e^{-j theta} A^2] tanh r cancels to 0 once tanh r rounds to 1."""

    @given(st.complex_numbers(max_magnitude=1e20, allow_nan=False, allow_infinity=False),
           st.floats(1e-8, 40.0), st.floats(-math.pi, math.pi, exclude_min=True))
    @example(complex(_TANH_ONE.gamma), _TANH_ONE.r, 0.0)
    @example(complex(2.0 * _TANH_ONE.gamma), _TANH_ONE.r, 0.0)
    @settings(max_examples=200, deadline=None)
    def test_no_count_law_reports_more_than_all_the_mass(self, A, r, theta):
        fock_statistics._law.cache_clear()
        try:
            head = photon_pmf(A, r, theta).head(32)
        except NumericalConsistencyError:
            return
        assert all(0.0 <= p <= 1.0 for p in head), head
        assert math.fsum(head) <= 1.0 + 1e-9, head

    @pytest.mark.parametrize("N", [2e16, 1e17, 1e150])
    def test_input_and_nulled_stage_laws_where_tanh_r_rounds_to_one(self, N):
        d = design_at_optimal_beta(N)
        assert math.tanh(d.r) == 1.0
        fock_statistics._law.cache_clear()
        for A in (-d.gamma, d.gamma, 2.0 * d.gamma):  # input symbols 0, 1; nulled symbol 1
            head = photon_pmf(A, d.r).head(200)
            # log P(0) is -N or below, and |H_n(z)| <= (2|z| + 2n)^n with |z|^2 <= 4N adds
            # at most 400 ln(4 sqrt(N) + 400) to log P(n < 200): every value is 0.
            assert head[0] == _vacuum_element(A, d.r, 0.0) == 0.0
            assert head == [0.0] * 200
        assert photon_pmf(0.0, d.r).head(200) == [sv_pmf(n, d.r) for n in range(200)]

    @pytest.mark.parametrize("A, r, theta", [
        (2.0 * design_at_optimal_beta(1e8).gamma, 24.999999999999996, 0.0),  # mismatch dr=25
        (1e5 * complex(math.cos(0.3 + 5e-5), math.sin(0.3 + 5e-5)), 25.0, 0.6),
        (1e3, 19.5, 0.0),
        (40.0 - 3.0j, 2.0, 1.0),
    ])
    def test_vacuum_element_matches_its_closed_form(self, A, r, theta):
        # The first point is `mismatch --N 1e8 --dr 25 --M 1`, whose P(0|1) read 3.78e-11,
        # 36% high, when the factor was summed as written; the second has Im w = 5.
        fock_statistics._law.cache_clear()
        assert photon_pmf(A, r, theta)(0) == pytest.approx(_vacuum_element(A, r, theta),
                                                           rel=1e-9)

    @pytest.mark.parametrize("A, r, theta", [
        (32.0 + 0.5j, 0.3, 0.7), (-20.0 + 25.0j, 1.5, -2.0), (32.01, 2.5, 0.0)])
    def test_both_spellings_of_the_gaussian_factor_agree_past_the_switch(self, A, r, theta):
        assert abs(A) ** 2 > 1024.0
        new = fock_statistics.KeptLaw(fock_statistics._dss_values(A, r, theta)).head(80)
        summed = fock_statistics.KeptLaw(_numpy_dss_law(A, r, theta)).head(80)
        assert new == pytest.approx(summed, rel=1e-11, abs=1e-300)
