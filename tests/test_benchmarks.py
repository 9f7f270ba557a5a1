import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc

from iskennedy import (
    BracketError,
    DetectorModel,
    MismatchModel,
    crossover_sql_dss_vs_hb_cs,
    design_at_optimal_beta,
    hb_dss_opt,
    helstrom_cs,
    helstrom_dss,
    homodyne_pdf,
    ideal_decision,
    make_design,
    p_err_ideal,
    p_err_imperfect,
    p_err_mismatch,
    ratio_db,
    residual,
    spd_mismatch_error,
    sql_cs,
    sql_dss,
    sql_dss_opt,
)
from iskennedy.benchmarks import bisect_root


def test_helstrom_dss_random_guess_limit():
    assert helstrom_dss(0.0, 0.0) == pytest.approx(0.5)
    assert helstrom_dss(0.0, 1.0) == pytest.approx(0.5)


def test_helstrom_dss_at_unit_energy():
    # (1 - sqrt(1 - e^-8))/2 evaluated independently
    want = 0.5 * (1.0 - math.sqrt(1.0 - math.exp(-8.0)))
    assert hb_dss_opt(1.0) == pytest.approx(want, rel=1e-12)
    assert hb_dss_opt(1.0) == pytest.approx(8.3873e-5, rel=1e-4)


def test_helstrom_parameterized_matches_direct_form():
    for N in np.linspace(0.01, 5.0, 200):
        d = design_at_optimal_beta(N)
        assert abs(helstrom_dss(d.alpha, d.r) - hb_dss_opt(N)) <= 1e-14


def test_sql_dss_values():
    assert sql_dss(0.0, 0.0) == pytest.approx(0.5)
    assert sql_dss_opt(1.0) == pytest.approx(0.5 * erfc(2.0), rel=1e-14)
    assert sql_dss_opt(1.0) == pytest.approx(2.339e-3, rel=1e-3)


def test_sql_dss_matches_homodyne_quadrature():
    d = design_at_optimal_beta(0.8)
    integral, _ = quad(lambda x: homodyne_pdf(x, d, 0), 0.0, np.inf, epsabs=1e-14)
    assert sql_dss(d.alpha, d.r) == pytest.approx(integral, abs=1e-10)


def test_coherent_benchmarks_at_zero():
    assert helstrom_cs(0.0) == pytest.approx(0.5)
    assert sql_cs(0.0) == pytest.approx(0.5)


def test_benchmark_gaps_at_unit_energy():
    # The 17.39 / 2.94 dB advantages of the squeezed alphabet are relative
    # to the coherent-state Helstrom bound (the reference all ratio curves
    # are normalized to).
    assert ratio_db(helstrom_cs(1.0), hb_dss_opt(1.0)) == pytest.approx(17.39, abs=0.05)
    assert ratio_db(helstrom_cs(1.0), sql_dss_opt(1.0)) == pytest.approx(2.94, abs=0.05)


def test_benchmark_gap_vs_homodyne_coherent_reference():
    # Pinned for contrast with the HB_CS-referenced gaps above: against the
    # coherent-state homodyne limit the N=1 Helstrom advantage is ~24.3 dB.
    assert ratio_db(sql_cs(1.0), hb_dss_opt(1.0)) == pytest.approx(24.33, abs=0.05)


def test_crossover_location():
    assert crossover_sql_dss_vs_hb_cs() == pytest.approx(0.659, abs=0.01)


def test_crossover_regimes():
    d1 = design_at_optimal_beta(1.0)
    assert sql_dss(d1.alpha, d1.r) < helstrom_cs(1.0)
    d2 = design_at_optimal_beta(0.3)
    assert sql_dss(d2.alpha, d2.r) > helstrom_cs(0.3)


def test_ratio_db():
    assert ratio_db(0.5, 0.5) == 0.0
    assert ratio_db(1e-3, 1e-4) == pytest.approx(10.0, rel=1e-12)
    with pytest.raises(ValueError):
        ratio_db(0.0, 1.0)
    with pytest.raises(ValueError):
        ratio_db(1.0, -2.0)


_POSITIVE_FINITE = st.floats(min_value=5e-324, max_value=sys.float_info.max)


@given(_POSITIVE_FINITE, _POSITIVE_FINITE)
@example(6.6698862188568283e-322, 2.2636197259043627e-13)  # ideal --N 13.1: p_err, sql_cs
@example(2.2636197259043627e-13, 6.6698862188568283e-322)
@example(sys.float_info.max, 5e-324)
@example(5e-324, sys.float_info.max)
def test_ratio_db_is_finite_and_the_quotient_form_where_that_is(a, b):
    db = ratio_db(a, b)
    assert math.isfinite(db)
    q = a / b
    if 0.0 < q < math.inf:
        assert db == 10.0 * math.log10(q)
    else:
        assert db == 10.0 * (math.log10(a) - math.log10(b))
        assert (db > 0.0) == (a > b)


def test_monotonicity_in_energy():
    grid = np.linspace(0.01, 5.0, 400)
    for func in (hb_dss_opt, sql_dss_opt, helstrom_cs, sql_cs):
        vals = [func(N) for N in grid]
        assert all(a > b for a, b in zip(vals, vals[1:])), func.__name__


def test_helstrom_below_homodyne():
    for N in np.linspace(0.05, 5.0, 100):
        assert hb_dss_opt(N) <= sql_dss_opt(N)
        assert helstrom_cs(N) <= sql_cs(N)


def test_domain_errors():
    with pytest.raises(ValueError):
        helstrom_dss(-0.1, 0.0)
    with pytest.raises(ValueError):
        sql_dss(0.1, -0.2)
    with pytest.raises(ValueError):
        helstrom_cs(-1.0)
    with pytest.raises(ValueError):
        sql_cs(-1.0)


def test_bisect_requires_sign_change():
    with pytest.raises(BracketError):
        bisect_root(lambda x: 1.0 + x * x, 0.0, 1.0)


def test_bisect_tolerance():
    root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0, xtol=1e-9)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-8)


@given(N=st.floats(0.0, 3.0), beta=st.none() | st.floats(0.0, 1.0),
       eta=st.floats(1e-3, 1.0), nu=st.floats(0.0, 10.0), M=st.integers(1, 40),
       dr=st.floats(-0.5, 0.5), dt=st.floats(-3.0, 3.0))
@example(N=5e-324, beta=None, eta=0.5, nu=4.0, M=1, dr=0.0, dt=0.0)  # signal/nu underflows
@settings(max_examples=200, deadline=None)
def test_no_receiver_beats_the_helstrom_bound(N, beta, eta, nu, M, dr, dt):
    design = design_at_optimal_beta(N) if beta is None else make_design(N, beta)
    bound = helstrom_dss(design.alpha, design.r)
    mm = MismatchModel(dr, dt)
    errors = {
        "ideal_decision": ideal_decision(design, M).p_err,
        "p_err_imperfect": p_err_imperfect(design, DetectorModel(eta, nu, M)).p_err,
        "p_err_mismatch": p_err_mismatch(design, mm, M).p_err,
        "spd_mismatch_error": spd_mismatch_error(design, residual(design, mm)).p_err,
    }
    if beta is None:
        errors["p_err_ideal"] = p_err_ideal(N)
    # A p_err sums at most M + 1 rounded probabilities.  Where the hypotheses (nearly)
    # coincide, both sides sit at 1/2 and the true margin is below that rounding.
    floor = bound * (1.0 - (M + 1) * 2.0 ** -53)
    for receiver, p_err in errors.items():
        assert p_err >= floor, (receiver, p_err, bound)
