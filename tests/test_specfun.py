import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.special import ndtr  # the Normal CDF the coverage scoring imports

from shrinkfit import specfun


def chi2_pdf(x: float, dof: float) -> float:
    a = dof / 2.0
    return math.exp((a - 1.0) * math.log(x) - x / 2.0 - a * math.log(2.0) - math.lgamma(a))


def chi2_cdf_by_quadrature(x: float, dof: float) -> float:
    val, _ = integrate.quad(
        lambda t: chi2_pdf(t, dof), 0.0, x, epsabs=1e-13, epsrel=1e-13, limit=200
    )
    return val


def chi2_cdf(x: float, dof: float) -> float:
    """P(chi-square with `dof` degrees of freedom <= x) through log P."""
    return math.exp(specfun.log_lower_regularized_gamma(0.5 * dof, 0.5 * x))


class TestChi2Cdf:
    def test_zero_and_total_mass(self):
        for dof in (1.0, 4.0, 37.5, 200.0):
            assert specfun.log_lower_regularized_gamma(0.5 * dof, 0.0) == -math.inf
            assert chi2_cdf(0.0, dof) == 0.0
            assert chi2_cdf(1e4, dof) == pytest.approx(1.0, abs=1e-12)

    def test_worked_value_against_quadrature(self):
        got = chi2_cdf(4.351, 10.0)
        oracle = chi2_cdf_by_quadrature(4.351, 10.0)
        assert got == pytest.approx(oracle, abs=1e-12)
        # frozen from the quadrature oracle, three significant digits
        assert got == pytest.approx(0.0699, abs=5e-5)

    def test_quadrature_grid(self):
        for dof in (1.0, 3.0, 10.0, 55.0, 200.0):
            for x in (0.01, 0.5, dof / 2.0, dof, 2.0 * dof):
                oracle = chi2_cdf_by_quadrature(x, dof)
                assert chi2_cdf(x, dof) == pytest.approx(oracle, abs=1e-12)

    def test_scipy_cross_check(self):
        # below x = a + 1 the value comes from 1F1, so gammainc is an
        # independent check there
        rng = np.random.default_rng(1)
        for _ in range(300):
            dof = float(rng.uniform(1.0, 200.0))
            x = float(rng.uniform(0.0, 1e4))
            assert chi2_cdf(x, dof) == pytest.approx(
                float(special.gammainc(dof / 2.0, x / 2.0)), abs=1e-12
            )

    @settings(max_examples=200)
    @given(
        x1=st.floats(0.0, 1e4),
        x2=st.floats(0.0, 1e4),
        dof=st.floats(1.0, 200.0),
    )
    def test_monotone_and_complement(self, x1, x2, dof):
        lo, hi = sorted((x1, x2))
        assert chi2_cdf(lo, dof) <= chi2_cdf(hi, dof) + 1e-15
        upper = float(special.gammaincc(0.5 * dof, 0.5 * hi))
        assert chi2_cdf(hi, dof) + upper == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.log_lower_regularized_gamma(2.0, -0.05)
        with pytest.raises(ValueError):
            specfun.log_lower_regularized_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            specfun.log_lower_regularized_gamma(-1.5, 1.0)

    def test_log_cdf_matches_and_survives_underflow(self):
        assert specfun.log_lower_regularized_gamma(5.0, 2.0) == pytest.approx(
            math.log(special.gammainc(5.0, 2.0)), rel=1e-13
        )
        # P underflows to 0 in double precision here; the log stays finite and
        # matches the leading terms of the series, a log x - x - log Gamma(a+1)
        # + log(1 + x/(a+1) + ...)
        log_p = specfun.log_lower_regularized_gamma(100.0, 1e-4)
        assert special.gammainc(100.0, 1e-4) == 0.0
        series = 100.0 * math.log(1e-4) - 1e-4 - math.lgamma(101.0) + math.log1p(1e-4 / 101.0)
        assert log_p == pytest.approx(series, rel=1e-14)
        assert log_p < -700.0


def erf_by_series(x: float) -> float:
    total = 0.0
    term = x
    n = 0
    while abs(term) > 1e-18:
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 2.0 / math.sqrt(math.pi) * total


class TestNormalCdf:
    def test_exact_half_at_zero(self):
        assert ndtr(0.0) == 0.5

    def test_against_erf_series(self):
        for z in (0.1, 0.67448975, 1.0, 1.96, 2.5, 3.3):
            oracle = 0.5 * (1.0 + erf_by_series(z / math.sqrt(2.0)))
            assert ndtr(z) == pytest.approx(oracle, abs=1e-14)
        assert ndtr(1.96) == pytest.approx(0.9750021048517795, abs=1e-14)

    @settings(max_examples=200)
    @given(z=st.floats(-8.0, 8.0))
    def test_reflection(self, z):
        assert ndtr(-z) == pytest.approx(1.0 - ndtr(z), abs=1e-14)


def confluent_by_quadrature(m: float, T: float) -> float:
    # integral of exp((1-B) T) dB^m = m B^(m-1) exp((1-B) T) dB over (0, 1)
    f = lambda b: m * b ** (m - 1.0) * math.exp((1.0 - b) * T)
    val, _ = integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def log_confluent_M(m: float, T: float) -> float:
    """log of the Beta(1, m) moment generating function M_m(T), through
    M_m(T) = Gamma(m+1) T^-m exp(T) P(m, T): the exact-Bayes shrinkage is
    a ratio of two such values."""
    log_p = specfun.log_lower_regularized_gamma(m, T)
    return math.lgamma(m + 1.0) - m * math.log(T) + T + log_p


class TestConfluentM:
    def test_mgf_at_zero(self):
        # M_m(T) -> 1 as T -> 0
        for m in (0.5, 1.0, 4.0, 9.0):
            assert log_confluent_M(m, 1e-12) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_m1(self):
        for T in (1e-6, 0.3, 1.0, 10.0, 100.0):
            assert math.exp(log_confluent_M(1.0, T)) == pytest.approx(
                math.expm1(T) / T, rel=1e-13
            )

    def test_m4_T4_against_quadrature(self):
        assert math.exp(log_confluent_M(4.0, 4.0)) == pytest.approx(
            confluent_by_quadrature(4.0, 4.0), rel=1e-10
        )

    def test_quadrature_grid(self):
        for m in (1.0, 4.0, 9.0):
            for T in (0.01, 1.0, 4.0, 10.0, 50.0):
                assert math.exp(log_confluent_M(m, T)) == pytest.approx(
                    confluent_by_quadrature(m, T), rel=1e-10
                )

    @settings(max_examples=100)
    @given(
        m=st.floats(0.5, 40.0),
        t1=st.floats(1e-9, 300.0),
        t2=st.floats(1e-9, 300.0),
    )
    def test_at_least_one_and_nondecreasing(self, m, t1, t2):
        lo, hi = sorted((t1, t2))
        log_lo = log_confluent_M(m, lo)
        log_hi = log_confluent_M(m, hi)
        # the identity cancels terms up to ~m |log T|, so allow 1e-11 on the log
        assert log_lo >= -1e-11
        assert log_hi >= log_lo - 1e-11 * max(1.0, log_lo)

    def test_log_space_guard_for_large_T(self):
        # above T = 700 M itself overflows; the log must stay usable
        log_m = log_confluent_M(4.0, 800.0)
        expected = math.lgamma(5.0) - 4.0 * math.log(800.0) + 800.0
        assert log_m == pytest.approx(expected, rel=1e-12)  # CDF factor is ~1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_confluent_M(0.0, 1.0)
        with pytest.raises(ValueError):
            log_confluent_M(2.0, -1.0)
