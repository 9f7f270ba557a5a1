import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.special import erfc

from iskennedy import (
    PhaseSpacePoint,
    SignalDesign,
    design_at_optimal_beta,
    homodyne_pdf,
    make_design,
    optimal_beta,
    wigner_dss,
    wigner_grid,
)

from oracles import GaussianState, gaussian_state


class TestOptimalBeta:
    def test_reference_values(self):
        assert optimal_beta(1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert optimal_beta(0.0) == 0.0
        assert optimal_beta(0.5) == pytest.approx(0.25, abs=1e-15)

    def test_effective_amplitude_at_half_photon(self):
        d = make_design(0.5, optimal_beta(0.5))
        assert d.alpha * math.exp(d.r) == pytest.approx(math.sqrt(0.75), rel=1e-12)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            optimal_beta(-0.1)

    def test_maximizes_effective_amplitude(self):
        rng = np.random.default_rng(7)
        for N in rng.uniform(0.05, 5.0, size=100):
            best = optimal_beta(N)
            center = make_design(N, best).gamma
            for probe in (best - 0.01, best + 0.01):
                probe = min(max(probe, 0.0), 1.0)
                assert center >= make_design(N, probe).gamma


class TestMakeDesign:
    def test_optimal_point_at_unit_energy(self):
        d = make_design(1.0, 1.0 / 3.0)
        assert d.alpha == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)
        assert d.r == pytest.approx(math.asinh(math.sqrt(1.0 / 3.0)), rel=1e-12)
        assert d.n_eff == pytest.approx(2.0, rel=1e-12)

    def test_coherent_limit(self):
        d = make_design(1.7, 0.0)
        assert d.alpha == pytest.approx(math.sqrt(1.7), rel=1e-15)
        assert d.r == 0.0
        assert d.n_eff == pytest.approx(1.7, rel=1e-12)

    def test_pure_squeezing_limit(self):
        d = make_design(2.3, 1.0)
        assert d.alpha == 0.0
        assert d.gamma == 0.0
        assert d.n_eff == 0.0

    @pytest.mark.parametrize("N,beta", [(-1.0, 0.5), (1.0, -0.01), (1.0, 1.01),
                                        (math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan)])
    def test_domain_errors(self, N, beta):
        with pytest.raises(ValueError):
            make_design(N, beta)
        with pytest.raises(ValueError):  # replace rebuilds, so it checks as well
            dataclasses.replace(make_design(1.0, 0.5), N=N, beta=beta)

    @pytest.mark.parametrize("N,beta", [(1e160, 0.5), (1e300, 0.5), (1.7e308, 0.01)])
    def test_an_overflowing_effective_photon_number_names_n(self, N, beta):
        with pytest.raises(OverflowError, match=re.escape(f"at N = {N!r}")):
            make_design(N, beta)
        with pytest.raises(OverflowError, match=re.escape(f"at N = {N!r}")):
            dataclasses.replace(make_design(1.0, 0.5), N=N, beta=beta)

    def test_energy_bookkeeping_on_grid(self):
        for N in np.linspace(0.1, 3.0, 16):
            for beta in np.linspace(0.0, 1.0, 11):
                d = make_design(N, beta)
                total = d.alpha ** 2 + math.sinh(d.r) ** 2
                assert total == pytest.approx(N, rel=1e-12, abs=1e-12)

    def test_effective_photon_number_at_optimal_split(self):
        for N in np.linspace(0.1, 3.0, 16):
            d = design_at_optimal_beta(N)
            assert d.n_eff == pytest.approx(N * (N + 1.0), rel=1e-12)


def _formula_fields(N, beta):
    """(N, beta, alpha, r, gamma, n_eff) by the alphabet formulas, spelled out."""
    alpha = math.sqrt(N * (1.0 - beta))
    r = math.asinh(math.sqrt(N * beta))
    gamma = alpha * math.exp(r)
    return N, beta, alpha, r, gamma, gamma * gamma


class TestDesignFromItsInputs:
    """A SignalDesign is built from (N, beta) alone and derives alpha, r, gamma, n_eff."""

    def test_only_n_and_beta_are_constructor_fields(self):
        assert [f.name for f in dataclasses.fields(SignalDesign) if f.init] == ["N", "beta"]
        with pytest.raises(TypeError):
            SignalDesign(N=1.0, beta=0.5, alpha=0.1, r=0.0, gamma=5.0, n_eff=0.01)

    @settings(max_examples=300, deadline=None)
    @given(N=st.floats(0.0, 1e6), beta=st.floats(0.0, 1.0), other=st.floats(0.0, 1e6))
    def test_fields_are_the_formulas_and_replace_recomputes_them(self, N, beta, other):
        design = SignalDesign(N, beta)
        got = [getattr(design, f.name) for f in dataclasses.fields(SignalDesign)]
        assert list(map(repr, got)) == list(map(repr, _formula_fields(N, beta)))
        assert design == make_design(N, beta)
        assert dataclasses.replace(design, N=other) == make_design(other, beta)
        for derived in ("alpha", "r", "gamma", "n_eff"):
            with pytest.raises(ValueError):
                dataclasses.replace(design, **{derived: 0.0})


class TestWigner:
    def test_peak_value(self):
        d = design_at_optimal_beta(1.0)
        peak = PhaseSpacePoint(math.sqrt(2.0) * d.alpha, 0.0)
        assert wigner_dss(peak, d, 1) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_vacuum_limit(self):
        d = make_design(0.0, 0.0)
        for x, p in [(0.0, 0.0), (0.7, -0.4), (1.5, 2.0)]:
            want = math.exp(-x * x - p * p) / math.pi
            assert wigner_dss(PhaseSpacePoint(x, p), d, 0) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("N,beta", [(1.0, 1.0 / 3.0), (0.5, 0.0), (2.0, 0.8)])
    def test_normalization(self, N, beta):
        d = make_design(N, beta)
        total, err = dblquad(
            lambda p, x: wigner_dss(PhaseSpacePoint(x, p), d, 1),
            -np.inf, np.inf, -np.inf, np.inf,
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_marginal_matches_homodyne(self):
        d = design_at_optimal_beta(0.8)
        for x in np.linspace(-2.5, 2.5, 9):
            marg, _ = quad(lambda p: wigner_dss(PhaseSpacePoint(x, p), d, 0), -np.inf, np.inf)
            assert marg == pytest.approx(homodyne_pdf(x, d, 0), abs=1e-8)

    def test_symbol_validation(self):
        d = design_at_optimal_beta(1.0)
        with pytest.raises(ValueError):
            wigner_dss(PhaseSpacePoint(0.0, 0.0), d, 2)
        with pytest.raises(ValueError):
            next(wigner_grid([0.0], [0.0], d, 2))
        with pytest.raises(ValueError):
            next(wigner_grid([0.0, math.inf], [0.0], d, 1))

    @pytest.mark.parametrize("xs, ps, symbol", [([0.0], [0.0], 5), ([0.0], [0.0], -1),
                                                ([math.nan], [0.0], 0), ([0.0], [-math.inf], 1)])
    def test_wigner_grid_checks_its_input_at_the_call(self, xs, ps, symbol):
        with pytest.raises(ValueError):
            wigner_grid(xs, ps, design_at_optimal_beta(1.0), symbol)


def _wigner_cell(x, p, d, symbol):
    """(1/pi) exp{-e^2r (x -/+ sqrt(2) a)^2 - e^-2r p^2}, spelled out term by term."""
    dx = x - (1.0 if symbol else -1.0) * math.sqrt(2.0) * d.alpha
    return math.exp(-math.exp(2.0 * d.r) * dx * dx - math.exp(-2.0 * d.r) * p * p) / math.pi


@settings(max_examples=150, deadline=None)
@given(N=st.floats(0.0, 10.0), beta=st.floats(0.0, 1.0),
       bounds=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
       points=st.sampled_from((1, 2, 3, 17)))
def test_wigner_grid_is_wigner_dss_bit_for_bit(N, beta, bounds, points):
    d = make_design(N, beta)
    xmin, xmax, pmin, pmax = bounds
    xs = np.linspace(xmin, xmax, points).tolist()
    ps = np.linspace(pmin, pmax, points).tolist()
    for symbol in (0, 1):
        lines = list(wigner_grid(xs, ps, d, symbol))
        assert len(lines) == len(xs)
        for x, line in zip(xs, lines):
            assert line == [_wigner_cell(x, p, d, symbol) for p in ps]
            assert line == [wigner_dss(PhaseSpacePoint(x, p), d, symbol) for p in ps]


class TestHomodyne:
    def test_peak_value(self):
        d = design_at_optimal_beta(1.0)
        x_peak = math.sqrt(2.0) * d.alpha
        assert homodyne_pdf(x_peak, d, 1) == pytest.approx(math.exp(d.r) / math.sqrt(math.pi), rel=1e-14)

    def test_wrong_halfline_mass_is_the_homodyne_error(self):
        # Integrating the symbol-0 density over x > 0 gives erfc(sqrt(2) a e^r)/2.
        d = design_at_optimal_beta(0.6)
        mass, _ = quad(lambda x: homodyne_pdf(x, d, 0), 0.0, np.inf, epsabs=1e-13)
        assert mass == pytest.approx(0.5 * erfc(math.sqrt(2.0) * d.alpha * math.exp(d.r)), abs=1e-10)

    def test_normalization(self):
        for N, beta in [(1.0, 1.0 / 3.0), (2.0, 0.9), (0.3, 0.0)]:
            d = make_design(N, beta)
            total, _ = quad(lambda x: homodyne_pdf(x, d, 1), -np.inf, np.inf)
            assert total == pytest.approx(1.0, abs=1e-8)

    def test_coherent_state_marginal(self):
        d = make_design(1.0, 0.0)
        for x in (-1.0, 0.0, 0.5, 2.0):
            mean = math.sqrt(2.0) * d.alpha
            want = math.exp(-((x - mean) ** 2)) / math.sqrt(math.pi)  # variance 1/2
            assert homodyne_pdf(x, d, 1) == pytest.approx(want, rel=1e-13)


class TestGaussianState:
    def test_pure_state_determinant(self):
        for N, beta in [(1.0, 1.0 / 3.0), (2.0, 0.5), (0.2, 0.0)]:
            st = gaussian_state(make_design(N, beta), 1)
            assert np.linalg.det(st.V) == pytest.approx(0.25, rel=1e-12)
            assert np.allclose(st.V, st.V.T)
            assert np.all(np.linalg.eigvalsh(st.V) > 0)

    def test_displacement_vector(self):
        d = design_at_optimal_beta(1.0)
        assert gaussian_state(d, 1).d[0] == pytest.approx(math.sqrt(2.0) * d.alpha)
        assert gaussian_state(d, 0).d[0] == pytest.approx(-math.sqrt(2.0) * d.alpha)
        assert gaussian_state(d, 1).d[1] == 0.0

    def test_invalid_covariance_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(d=np.zeros(2), V=np.array([[0.5, 0.1], [0.2, 0.5]]))
        with pytest.raises(ValueError):
            GaussianState(d=np.zeros(2), V=np.array([[-0.5, 0.0], [0.0, 0.5]]))

    def test_nonfinite_point_rejected(self):
        with pytest.raises(ValueError):
            PhaseSpacePoint(math.inf, 0.0)
