"""The stdlib special functions and the finite tail sums against mpmath.

References are evaluated at 40 significant digits from the same double
inputs.  A value passes when it lies within 1e-13 relative of the exact one,
or equals its double rounding (a tail below the smallest double reads 0).
"""

import time

import mpmath
import numpy as np
import pytest

from iskennedy import cli
from iskennedy.benchmarks import sql_cs, sql_dss_opt
from iskennedy.fock_statistics import poisson_cdf_below, poisson_tail_ge, sv_tail_ge

REL = 1e-13


def assert_close(got, exact):
    assert got == float(exact) or abs(got - exact) <= REL * exact, (got, exact)


@pytest.mark.parametrize("k", [1, 2, 3, 10, 40])
@pytest.mark.parametrize("mu", [1e-9, 1e-3, 0.5, 5.0, 48.0, 99.0])
def test_poisson_tails(k, mu):
    with mpmath.workdps(40):
        m = mpmath.mpf(mu)
        assert_close(poisson_tail_ge(k, mu), mpmath.gammainc(k, 0, m, regularized=True))
        assert_close(poisson_cdf_below(k, mu), mpmath.gammainc(k, m, mpmath.inf, regularized=True))


def test_homodyne_limits_on_the_golden_energy_grid():
    with mpmath.workdps(40):
        for N in [*np.linspace(0.01, 3.0, 300).tolist(), 0.0, 0.5, 1.0]:
            n = mpmath.mpf(N)
            assert_close(sql_cs(N), mpmath.erfc(mpmath.sqrt(2 * n)) / 2)
            assert_close(sql_dss_opt(N), mpmath.erfc(mpmath.sqrt(2 * n * (n + 1))) / 2)


@pytest.mark.parametrize("n_min, r", [(3, 0.02), (10, 0.02), (40, 0.5)])
def test_squeezed_vacuum_tail(n_min, r):
    with mpmath.workdps(40):
        t2 = mpmath.tanh(mpmath.mpf(r)) ** 2
        # Terms fall by at least tanh^2(0.5) = 0.21 a step: 400 of them are exact here.
        exact = mpmath.fsum(mpmath.binomial(2 * k, k) * (t2 / 4) ** k
                            for k in range((n_min + 1) // 2, 400)) / mpmath.cosh(r)
        assert_close(sv_tail_ge(n_min, r), exact)


def test_rare_scenario_tail_does_not_sum_up_to_the_error_count():
    # 0.039 errors expected, 10^6 seen: the tail costs its convergence terms, not 10^6.
    start = time.perf_counter()
    assert cli.scenario_fails(10**6, 10**6, 3.9e-8, 0.0)
    assert time.perf_counter() - start < 0.01
