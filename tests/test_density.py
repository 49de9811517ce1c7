import math

import numpy as np
import pytest

from shrinkfit import (
    AdjustedLogDensity,
    NonconcaveAtMax,
    PriorSpec,
    RankDeficientX,
    TwoLevelData,
    density,
)
from shrinkfit.density import beta_and_projection_diag, residual_ss


def fd5_second(f, x, h=1e-3):
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)) / (
        12 * h * h
    )


def loglik_of_A(data, restricted=True):
    """The c = 0 member of the log-density family as a function of A: the
    REML objective, or the (profile) likelihood when not restricted.  A = 0
    is alpha = -800, where exp underflows to 0."""
    ell = AdjustedLogDensity(data, PriorSpec(c=0.0), restricted)
    return lambda A: ell(math.log(A) if A > 0.0 else -800.0)


class TestLoglikL0:
    def test_stationary_at_moment_solution(self):
        rng = np.random.default_rng(5)
        k, V = 12, 1.3
        y = rng.normal(0.0, 3.0, k)
        data = TwoLevelData(y, np.full(k, V))
        s_plus = float(y @ y)
        a_star = s_plus / k - V
        assert a_star > 0
        h = 1e-6
        loglik = loglik_of_A(data, restricted=False)
        deriv = (loglik(a_star + h) - loglik(a_star - h)) / (2 * h)
        assert deriv == pytest.approx(0.0, abs=1e-6)

    def test_decreasing_at_zero_for_small_residuals(self):
        k = 10
        y = np.full(k, 0.05)
        data = TwoLevelData(y, np.ones(k))
        h = 1e-7
        loglik = loglik_of_A(data, restricted=False)
        deriv = (loglik(h) - loglik(0.0)) / h
        assert deriv < 0.0

    def test_fig1_argmax_on_boundary(self, fig1_data):
        loglik = loglik_of_A(fig1_data, restricted=False)
        base = loglik(0.0)
        for A in np.linspace(1e-6, 50.0, 400):
            assert loglik(float(A)) < base


class TestBetaHat:
    def test_equal_variances_reduce_to_ols(self):
        rng = np.random.default_rng(7)
        X = np.column_stack([np.ones(15), rng.normal(size=15)])
        y = rng.normal(size=15)
        data = TwoLevelData(y, np.full(15, 2.0), X)
        ols = np.linalg.lstsq(X, y, rcond=None)[0]
        for A in (0.0, 0.3, 5.0, 80.0):
            beta, _ = beta_and_projection_diag(A, data)
            np.testing.assert_allclose(beta, ols, atol=1e-12)

    def test_intercept_gives_weighted_mean(self):
        rng = np.random.default_rng(8)
        V = rng.uniform(0.5, 4.0, 9)
        y = rng.normal(size=9)
        data = TwoLevelData(y, V, np.ones((9, 1)))
        A = 0.7
        w = 1.0 / (V + A)
        beta, _ = beta_and_projection_diag(A, data)
        assert beta[0] == pytest.approx(np.sum(w * y) / np.sum(w), rel=1e-13)

    def test_two_group_weights(self, two_group_data):
        # weights 1/1.55 and 1/6.5 at A = 1
        y = two_group_data.y
        w = np.array([1 / 1.55] * 5 + [1 / 6.5] * 5)
        expected = np.sum(w * y) / np.sum(w)
        beta, _ = beta_and_projection_diag(1.0, two_group_data)
        assert beta[0] == pytest.approx(expected, rel=1e-13)


class TestProjection:
    def test_diagonal_sums_to_r(self, two_group_data):
        # P is a rank-r orthogonal projection: trace r, each p_ii in [0, 1]
        _, diag = beta_and_projection_diag(0.55, two_group_data)
        assert diag.sum() == pytest.approx(two_group_data.r, abs=1e-12)
        assert np.all((diag >= 0.0) & (diag <= 1.0))
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(12), rng.normal(size=12), rng.normal(size=12)])
        data = TwoLevelData(rng.normal(size=12), rng.uniform(0.2, 5.0, 12), X)
        assert beta_and_projection_diag(1.3, data)[1].sum() == pytest.approx(3.0, abs=1e-12)

    def test_equal_variance_intercept_diagonal(self):
        data = TwoLevelData(np.arange(8.0), np.ones(8), np.ones((8, 1)))
        _, diag = beta_and_projection_diag(2.0, data)
        np.testing.assert_allclose(diag, np.full(8, 1.0 / 8.0), atol=1e-13)

    def test_two_group_against_dense_oracle(self, two_group_data):
        A = 0.55
        D = two_group_data.V + A
        X = two_group_data.X
        Dm = np.diag(1.0 / np.sqrt(D))
        oracle = Dm @ X @ np.linalg.inv(X.T @ np.diag(1.0 / D) @ X) @ X.T @ Dm
        _, diag = beta_and_projection_diag(A, two_group_data)
        np.testing.assert_allclose(diag, np.diag(oracle), atol=1e-12)

    def test_constant_in_A_for_equal_variances(self):
        rng = np.random.default_rng(11)
        X = np.column_stack([np.ones(10), rng.normal(size=10)])
        data = TwoLevelData(rng.normal(size=10), np.full(10, 1.7), X)
        b0, p0 = beta_and_projection_diag(0.0, data)
        for A in (0.5, 3.0, 42.0):
            beta, p = beta_and_projection_diag(A, data)
            assert np.max(np.abs(p - p0)) <= 1e-12
            assert np.max(np.abs(beta - b0)) <= 1e-12


class TestAdjustedLogDensity:
    def test_matches_equal_variance_form_up_to_constant(self, fig1_data):
        prior = PriorSpec(c=1.0)
        V, k = 1.0, 10
        T = residual_ss(fig1_data) / (2 * V)
        m = (k - 2) / 2

        def ell2(alpha):
            A = math.exp(alpha)
            return prior.c * alpha - (m + 1) * math.log(V + A) - T * V / (V + A)

        alphas = np.linspace(-3, 3, 13)
        ell = AdjustedLogDensity(fig1_data, prior)
        values = [ell(a) for a in alphas]
        refs = [ell2(a) for a in alphas]
        diffs = np.array(values) - np.array(refs)
        np.testing.assert_allclose(diffs, diffs[0], atol=1e-10)

    def test_matches_equal_variance_form_with_regression(self):
        rng = np.random.default_rng(13)
        k, V, c = 12, 2.0, 0.5
        X = np.column_stack([np.ones(k), rng.normal(size=k)])
        data = TwoLevelData(rng.normal(size=k), np.full(k, V), X)
        prior = PriorSpec(c=c)
        T = residual_ss(data) / (2 * V)
        m = (k - data.r - 2) / 2

        def ell2(alpha):
            A = math.exp(alpha)
            return c * alpha - (m + 1) * math.log(V + A) - T * V / (V + A)

        alphas = np.linspace(-2, 4, 9)
        ell = AdjustedLogDensity(data, prior)
        diffs = [ell(a) - ell2(a) for a in alphas]
        np.testing.assert_allclose(diffs, diffs[0], atol=1e-10)

    def test_tails_fall_to_minus_infinity(self, two_group_data):
        prior = PriorSpec(c=1.0)
        ell = AdjustedLogDensity(two_group_data, prior)
        assert ell(-60.0) < ell(0.0) - 25.0
        assert ell(80.0) < ell(0.0) - 25.0

    def test_right_tail_exponent(self, two_group_data):
        # slope approaches c - (k - r)/2 for large alpha
        for c in (0.5, 1.0):
            ell = AdjustedLogDensity(two_group_data, PriorSpec(c=c))
            slope = ell(31.0) - ell(30.0)
            expected = c - (two_group_data.k - two_group_data.r) / 2
            assert slope == pytest.approx(expected, abs=1e-9)

    def test_concave_near_maximizer(self, two_group_data):
        from shrinkfit.fitters import fit_adm_general

        shr = fit_adm_general(two_group_data, PriorSpec())
        ell = AdjustedLogDensity(two_group_data, PriorSpec())
        a_hat = math.log(shr.A_hat)
        for d in (-0.2, 0.0, 0.2):
            x = a_hat + d
            second = ell(x + 1e-3) - 2 * ell(x) + ell(x - 1e-3)
            assert second < 0.0


class TestBlockEvaluation:
    """on_nodes, the block evaluation the exact quadrature integrates, against
    the scalar __call__ the optimizers use."""

    @staticmethod
    def _designs():
        # r = 0 with and without known means, r = 1-3, c in {0.5, 1, 1.5}
        rng = np.random.default_rng(37)
        for i in range(40):
            r = i % 4
            k = int(rng.integers(6 + r, 30))
            V = 10.0 ** rng.uniform(-1.0, 1.0, k)
            X = None
            mu = None
            if r >= 1:
                X = np.column_stack([np.ones(k)] + [rng.normal(size=k) for _ in range(r - 1)])
            elif i % 8 == 4:
                mu = rng.normal(size=k)
            y = rng.normal(0.0, np.sqrt(V + rng.uniform(0.0, 5.0)))
            c = (0.5, 1.0, 1.5)[i % 3]
            yield TwoLevelData(y, V, X, mu), PriorSpec(c=c)

    def _check(self, ell, alphas):
        block = ell.on_nodes(alphas)
        scalar = np.array([ell(float(a)) for a in alphas])
        np.testing.assert_allclose(block, scalar, rtol=1e-12, atol=0.0)

    def test_block_equals_scalar(self):
        alphas = np.linspace(-6.0, 6.0, 25)
        for data, prior in self._designs():
            self._check(AdjustedLogDensity(data, prior), alphas)

    def test_block_equals_scalar_for_plugin_members(self):
        # the c = 0 members: REML (restricted) and MLE
        alphas = np.linspace(-6.0, 6.0, 25)
        for data, prior in self._designs():
            zero = PriorSpec(c=0.0)
            for restricted in (True, False):
                self._check(AdjustedLogDensity(data, zero, restricted), alphas)

    @pytest.mark.parametrize("c", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("known_mu", [False, True])
    def test_r0_call_matches_reference_expression(self, c, known_mu):
        # the scalar r = 0 evaluation, bit for bit, against the plain
        # expression c*alpha - sum(log D + e*e/D)/2 it computes
        rng = np.random.default_rng(41)
        for k in (3, 10, 57):
            V = 10.0 ** rng.uniform(-2.0, 2.0, k)
            mu = rng.normal(0.0, 3.0, k) if known_mu else np.zeros(k)
            y = mu + rng.normal(0.0, np.sqrt(V + 1.0))
            ell = AdjustedLogDensity(TwoLevelData(y, V, mu=mu), PriorSpec(c=c))
            e = y - mu
            for alpha in np.linspace(-30.0, 30.0, 241):
                D = V + math.exp(alpha)
                want = c * alpha - 0.5 * float(np.sum(np.log(D) + e * e / D))
                assert ell(float(alpha)) == want

    def test_chunks_join_seamlessly(self, monkeypatch):
        # blocks of two or three nodes: every chunk boundary is crossed (BLAS
        # may round a row differently when the block's shape changes)
        alphas = np.linspace(-4.0, 4.0, 17)
        designs = list(self._designs())[:8]
        whole = [AdjustedLogDensity(d, p).on_nodes(alphas) for d, p in designs]
        for elements in (40, 75):
            monkeypatch.setattr(density, "BLOCK_ELEMENTS", elements)
            for (d, p), ref in zip(designs, whole):
                np.testing.assert_allclose(
                    AdjustedLogDensity(d, p).on_nodes(alphas), ref, rtol=1e-14, atol=0.0
                )

    def test_nearly_collinear_X_raises_rank_deficient(self):
        from test_fitters import nearly_collinear_data

        ell = AdjustedLogDensity(nearly_collinear_data(), PriorSpec())
        with pytest.raises(RankDeficientX):
            ell.on_nodes(np.linspace(-2.0, 2.0, 9))

    def test_every_entry_point_raises_rank_deficient(self):
        from test_fitters import nearly_collinear_data

        data = nearly_collinear_data()
        for restricted in (True, False):
            ell = AdjustedLogDensity(data, PriorSpec(0.0), restricted)
            for call in (ell, ell.derivatives, lambda a: ell.on_nodes([a, a + 1.0])):
                with pytest.raises(RankDeficientX):
                    call(0.5)

    def test_rank_test_does_not_wait_for_cholesky_to_fail(self):
        # at s = 3e-8 LAPACK factors X'D^-1 X, with squared pivots about 1e-15
        # of their diagonal entries; the pivot test still rejects it
        from test_fitters import nearly_collinear_data

        data = nearly_collinear_data(s=3e-8, seed=1)
        for alpha in (-3.0, 0.0, 3.0):
            W = 1.0 / (data.V + math.exp(alpha))
            M = (data.X * W[:, None]).T @ data.X
            ratio = np.diag(np.linalg.cholesky(M)) ** 2 / np.diag(M)
            assert 0.0 < ratio.min() <= density.PIVOT_REL
            for restricted in (True, False):
                ell = AdjustedLogDensity(data, PriorSpec(), restricted)
                with pytest.raises(RankDeficientX):
                    ell(alpha)
                with pytest.raises(RankDeficientX):
                    ell.derivatives(alpha)
            with pytest.raises(RankDeficientX):
                beta_and_projection_diag(math.exp(alpha), data)


class TestInvariantInformation:
    def test_equal_variance_c1_formula(self, fig1_data):
        # at the closed-form maximizer with c=1: -l'' = m (1-B)^2 + B^2
        from shrinkfit.fitters import fit_adm_equal

        prior = PriorSpec(c=1.0)
        shr = fit_adm_equal(fig1_data, prior)
        B = float(shr.B_hat[0])
        m = (fig1_data.k - 2) / 2
        expected = m * (1 - B) ** 2 + B**2
        d1, d2 = AdjustedLogDensity(fig1_data, prior).derivatives(math.log(shr.A_hat))
        assert -d2 == pytest.approx(expected, rel=1e-12)
        assert d1 == pytest.approx(0.0, abs=1e-12)

    def test_finite_difference_matches_analytic(self):
        # unequal variances, r = 0-3, several c, known means when r = 0; and
        # the c = 0 members on the same datasets: REML (restricted) and MLE
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(40):
            r = int(rng.integers(0, 4))
            k = int(rng.integers(6 + r, 30))
            V = rng.uniform(0.2, 5.0, k)
            X = None
            mu = None
            if r >= 1:
                X = np.column_stack([np.ones(k)] + [rng.normal(size=k) for _ in range(r - 1)])
            elif rng.random() < 0.5:
                mu = rng.normal(size=k)
            y = rng.normal(0.0, np.sqrt(V + rng.uniform(0.0, 5.0)))
            data = TwoLevelData(y, V, X, mu)
            c = float(rng.choice([0.5, 1.0, 1.5]))
            alpha = float(rng.uniform(-2.0, 3.0))
            for ell in (
                AdjustedLogDensity(data, PriorSpec(c=c)),
                AdjustedLogDensity(data, PriorSpec(c=0.0)),
                AdjustedLogDensity(data, PriorSpec(c=0.0), restricted=False),
            ):
                d1, d2 = ell.derivatives(alpha)
                fd1 = (ell(alpha + h) - ell(alpha - h)) / (2 * h)
                assert d1 == pytest.approx(fd1, abs=1e-6)
                assert d2 == pytest.approx(fd5_second(ell, alpha), abs=1e-6)

    @pytest.mark.parametrize("c", [0.0, 1.0])
    @pytest.mark.parametrize("restricted", [True, False])
    def test_hostile_designs_match_central_differences_of_on_nodes(self, restricted, c):
        # V over 1, 4 or 12 decades, A = 10^+-3, y offset by 1e6, r = 0-3: l'
        # and l'' within 1e-5 relative (of max(|difference|, 1)) of 5-point
        # central differences of on_nodes, with steps 1e-2 and 5e-2, at the
        # true log A and at log V's minimum, median and maximum
        from test_fitters import HOSTILE_DESIGNS, hostile_design

        stencil = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        for design in HOSTILE_DESIGNS:
            data, _ = hostile_design(*design)
            ell = AdjustedLogDensity(data, PriorSpec(c=c), restricted)
            log_V = np.log(np.quantile(data.V, [0.0, 0.5, 1.0]))
            for alpha in [design[1] * math.log(10.0), *log_V]:
                f1 = ell.on_nodes(alpha + 1e-2 * stencil)
                f2 = ell.on_nodes(alpha + 5e-2 * stencil)
                fd1 = (f1[0] - 8.0 * f1[1] + 8.0 * f1[3] - f1[4]) / (12.0 * 1e-2)
                fd2 = (-f2[0] + 16.0 * f2[1] - 30.0 * f2[2] + 16.0 * f2[3] - f2[4]) / (
                    12.0 * 5e-2**2
                )
                d1, d2 = ell.derivatives(alpha)
                assert abs(d1 - fd1) <= 1e-5 * max(abs(fd1), 1.0), (design, alpha)
                assert abs(d2 - fd2) <= 1e-5 * max(abs(fd2), 1.0), (design, alpha)

    def test_logit_coordinate_identity(self, unequal_dataset_factory):
        # curvature in logit(B_i) of the B_i-density equals curvature in
        # log A of the A-density, unit by unit
        rng = np.random.default_rng(19)
        data = unequal_dataset_factory(rng, k=9)
        prior = PriorSpec(c=1.0)
        ell = AdjustedLogDensity(data, prior)
        from shrinkfit.fitters import fit_adm_general

        a_hat = math.log(fit_adm_general(data, prior).A_hat)
        d2_alpha = fd5_second(ell, a_hat)
        for i in (0, 4, 8):
            V_i = float(data.V[i])

            def ell_logit(t):
                # B_i-side construction: log{B(1-B) f(B_i)} with
                # f(B_i) = marginal(A) * pi(A) * V_i / B_i^2
                B = 1.0 / (1.0 + math.exp(-t))
                A = V_i * (1.0 - B) / B
                log_f = (
                    AdjustedLogDensity(data, PriorSpec(c=0.0))(math.log(A))
                    + (prior.c - 1.0) * math.log(A)
                    + math.log(V_i)
                    - 2.0 * math.log(B)
                )
                return math.log(B * (1.0 - B)) + log_f

            t_hat = math.log(V_i) - a_hat  # logit(B_i) at the maximizer
            d2_logit = fd5_second(ell_logit, t_hat)
            assert d2_logit == pytest.approx(d2_alpha, abs=1e-6)

    def test_nonconcave_raises(self):
        # far left of the maximizer with large T the adjusted density is
        # convex, so a curvature read there is refused
        from shrinkfit.fitters import adm_beta_moments

        y = np.full(6, 10.0)
        ell = AdjustedLogDensity(TwoLevelData(y, np.ones(6)), PriorSpec())
        assert ell.derivatives(-8.0)[1] > 0.0
        with pytest.raises(NonconcaveAtMax):
            adm_beta_moments(lambda a: (-2.0 * (a + 8.0), ell.derivatives(a)[1]), 0.0)


class TestRestrictedLoglik:
    def test_r0_equals_L0(self, fig1_data):
        restricted = loglik_of_A(fig1_data)
        unrestricted = loglik_of_A(fig1_data, restricted=False)
        for A in (0.0, 0.5, 2.0):
            assert restricted(A) == unrestricted(A)

    def test_equal_variance_stationarity(self):
        rng = np.random.default_rng(23)
        k, V = 14, 0.8
        X = np.column_stack([np.ones(k), rng.normal(size=k)])
        y = rng.normal(0, 2.0, k)
        data = TwoLevelData(y, np.full(k, V), X)
        s_plus = residual_ss(data)
        a_star = s_plus / (k - 2) - V
        assert a_star > 0
        h = 1e-6
        loglik = loglik_of_A(data)
        d = (loglik(a_star + h) - loglik(a_star - h)) / (2 * h)
        assert d == pytest.approx(0.0, abs=1e-6)
