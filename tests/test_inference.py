import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkfit import (
    FitMethod,
    PriorSpec,
    ShrinkagePosterior,
    TwoLevelData,
    fit,
    random_effects,
)
from shrinkfit.density import beta_and_projection_diag


class TestRandomEffects:
    def test_mle_boundary_gives_zero_width_intervals(self, fig1_data):
        post = random_effects(fig1_data, fit(fig1_data, PriorSpec(), FitMethod.MLE))
        assert np.all(post.s2 == 0.0)
        np.testing.assert_array_equal(post.lo, post.hi)
        np.testing.assert_array_equal(post.theta_hat, np.zeros(10))

    def test_interval_width_identity(self, two_group_data):
        shr = fit(two_group_data, PriorSpec(), FitMethod.ADM)
        post = random_effects(two_group_data, shr, z_star=1.64)
        np.testing.assert_allclose(
            post.hi - post.lo, 2 * 1.64 * np.sqrt(post.s2), atol=1e-12
        )

    def test_equal_variance_regression_formula(self):
        # s_i^2 = V(1-B) + V x_i'(X'X)^-1 x_i B + v (y_i - x_i' beta)^2
        rng = np.random.default_rng(41)
        k, V = 14, 1.8
        X = np.column_stack([np.ones(k), rng.normal(size=k)])
        y = X @ np.array([0.5, 1.0]) + rng.normal(0, np.sqrt(V + 2.0), k)
        data = TwoLevelData(y, np.full(k, V), X)
        shr = fit(data, PriorSpec(), FitMethod.ADM)
        post = random_effects(data, shr)
        B, v = shr.B_hat[0], shr.v[0]
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        hat = np.einsum("ij,jk,ik->i", X, np.linalg.inv(X.T @ X), X)
        expected = V * (1 - B) + V * hat * B + v * (y - X @ beta) ** 2
        np.testing.assert_allclose(post.s2, expected, rtol=1e-10)
        np.testing.assert_allclose(post.beta_hat, beta, atol=1e-10)

    def test_plugin_reduction_when_v_zero(self, two_group_data):
        # a hand-built posterior with v = 0 reduces to the conditional
        # variance plus the beta-uncertainty term only
        A = 1.3
        B = two_group_data.V / (two_group_data.V + A)
        shr = ShrinkagePosterior(A_hat=A, B_hat=B, v=np.zeros(10))
        post = random_effects(two_group_data, shr)
        _, p = beta_and_projection_diag(A, two_group_data)
        expected = (1 - (1 - p) * B) * two_group_data.V
        np.testing.assert_allclose(post.s2, expected, atol=1e-12)

    def test_exact_equal_pipeline_matches_closed_formulas(self, equal_dataset_factory):
        # with r = 0 the theorem's moments are exact: compare to the direct
        # equal-variance formulas
        rng = np.random.default_rng(43)
        for _ in range(10):
            data = equal_dataset_factory(rng)
            shr = fit(data, PriorSpec(c=1.0), FitMethod.EXACT)
            post = random_effects(data, shr)
            B, v = shr.B_hat[0], shr.v[0]
            np.testing.assert_allclose(post.theta_hat, (1 - B) * data.y, atol=1e-10)
            np.testing.assert_allclose(
                post.s2, data.V * (1 - B) + v * data.y**2, atol=1e-10
            )

    def test_known_mu_recenters(self):
        # for every method, equal and unequal V, the fit and the intervals
        # both centre on data.mu: the same answer as fitting y - mu with
        # zero means, shifted back by mu
        rng = np.random.default_rng(47)
        k = 8
        mu = rng.normal(0, 2, k)
        y = mu + rng.normal(0, 1.2, k)
        for V, method in itertools.product((np.ones(k), np.linspace(0.5, 2.0, k)), FitMethod):
            data = TwoLevelData(y, V, mu=mu)
            shr = fit(data, PriorSpec(), method)
            post = random_effects(data, shr)
            B, v = shr.B_hat, shr.v
            theta = (1 - B) * y + B * mu
            half = post.z_star * np.sqrt(V * (1 - B) + v * (y - mu) ** 2)
            np.testing.assert_allclose(post.theta_hat, theta, rtol=0, atol=1e-12)
            np.testing.assert_allclose(post.lo, theta - half, rtol=0, atol=1e-12)
            np.testing.assert_allclose(post.hi, theta + half, rtol=0, atol=1e-12)
            centred = TwoLevelData(y - mu, V)
            shifted = fit(centred, PriorSpec(), method)
            np.testing.assert_array_equal(shr.B_hat, shifted.B_hat)
            np.testing.assert_array_equal(shr.v, shifted.v)
            back = random_effects(centred, shifted)
            np.testing.assert_allclose(post.theta_hat, back.theta_hat + mu, rtol=0, atol=1e-12)
            np.testing.assert_allclose(post.lo, back.lo + mu, rtol=0, atol=1e-12)
            np.testing.assert_allclose(post.hi, back.hi + mu, rtol=0, atol=1e-12)

    def test_variance_dominates_plugin(self, two_group_data):
        shr = fit(two_group_data, PriorSpec(), FitMethod.ADM)
        post = random_effects(two_group_data, shr)
        _, p = beta_and_projection_diag(shr.A_hat, two_group_data)
        floor = two_group_data.V * (1 - shr.B_hat) * (1 - p)
        assert np.all(post.s2 >= floor - 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_theta_is_convex_combination(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(4, 12))
        V = rng.uniform(0.3, 3.0, k)
        data = TwoLevelData(rng.normal(0, 2, k), V, np.ones((k, 1)))
        shr = fit(data, PriorSpec(), FitMethod.ADM)
        post = random_effects(data, shr)
        fitted = data.X @ post.beta_hat
        lo = np.minimum(data.y, fitted) - 1e-12
        hi = np.maximum(data.y, fitted) + 1e-12
        assert np.all(post.theta_hat >= lo) and np.all(post.theta_hat <= hi)

    def test_z_star_must_be_positive(self, fig1_data):
        with pytest.raises(ValueError):
            random_effects(fig1_data, fit(fig1_data, PriorSpec(), FitMethod.MLE), z_star=0.0)

    @pytest.mark.parametrize("z", [-1.0, math.nan, math.inf, -math.inf])
    def test_z_star_must_be_finite_and_positive(self, fig1_data, z):
        with pytest.raises(ValueError, match="z_star must be finite and positive"):
            random_effects(fig1_data, fit(fig1_data, PriorSpec(), FitMethod.MLE), z_star=z)

