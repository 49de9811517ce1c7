import functools
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import mpmath
from scipy import integrate, optimize
from scipy.special import hyp1f1

import shrinkfit
from shrinkfit import (
    FitMethod,
    NonintegrablePosterior,
    OptimizerNoBracket,
    PriorSpec,
    RankDeficientX,
    ShrinkagePosterior,
    ShrinkfitError,
    TooFewUnits,
    TwoLevelData,
    fit,
    random_effects,
)
from shrinkfit.density import (
    AdjustedLogDensity,
    beta_and_projection_diag,
    known_means_rows,
    residual_ss,
)
from shrinkfit import density, fitters
from shrinkfit.fitters import (
    _fit_adm,
    _fit_exact,
    _GL_NODES,
    _TAIL_NODES,
    _brent,
    _lockstep,
    _newton_alpha,
    _SKIP_DROP,
    _search_range,
    adm_beta_moments,
    adm_moments_equal,
    equal_variance_moments,
    exact_moments_equal,
    mle_known_means,
    quadrature_moments,
)


class TestAdmEqual:
    def test_maximum_shrinkage_at_T0(self):
        data = TwoLevelData(np.zeros(4), np.ones(4))  # S+ = 0
        shr = fit(data, PriorSpec(c=1.0), FitMethod.ADM)
        assert shr.B_hat[0] == pytest.approx(0.5, abs=1e-15)  # m/(m+1), m=1
        assert shr.boundary is False

    def test_fig1_value(self, fig1_data):
        shr = fit(fig1_data, PriorSpec(c=1.0), FitMethod.ADM)
        expected = 8.0 / (9.0 + math.sqrt(17.0))  # closed form at T=4, m=4
        assert shr.B_hat[0] == pytest.approx(expected, rel=1e-14)
        assert shr.A_hat == pytest.approx((1 - expected) / expected, rel=1e-12)

    def test_monotone_nonincreasing_in_splus(self):
        V, k = 1.0, 10
        prev = None
        for s_plus in np.linspace(0.0, 60.0, 40):
            B, _, _ = adm_moments_equal(s_plus / (2 * V), (k - 2) / 2, 1.0)
            if prev is not None:
                assert B <= prev + 1e-15
            prev = B

    def test_shrinkage_cap(self, equal_dataset_factory):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = float(rng.choice([0.5, 1.0, 2.0]))
            data = equal_dataset_factory(rng, k=int(rng.integers(4 + int(2 * c), 30)))
            shr = fit(data, PriorSpec(c=c), FitMethod.ADM)
            m = (data.k - data.r - 2) / 2
            cap = 1.0 - c / (m + 1.0)
            assert np.all(shr.B_hat <= cap + 1e-12)
            assert np.all(shr.B_hat < 1.0)

    def test_stationarity_quadratic_residual(self, equal_dataset_factory):
        # the positive root of (m+1-c) A^2 - (2c+T-m-1) V A - c V^2 is A_hat
        rng = np.random.default_rng(3)
        for _ in range(100):
            c = float(rng.choice([0.5, 1.0]))
            data = equal_dataset_factory(rng)
            V = float(data.V[0])
            shr = fit(data, PriorSpec(c=c), FitMethod.ADM)
            T = residual_ss(data) / (2 * V)
            m = (data.k - 2) / 2
            A = shr.A_hat
            resid = (m + 1 - c) * A * A - (2 * c + T - m - 1) * V * A - c * V * V
            assert abs(resid) <= 1e-9 * V * V * max(1.0, (A / V) ** 2)

    def test_beta_parameters_recover_moments(self, fig1_data):
        shr = fit(fig1_data, PriorSpec(c=1.0), FitMethod.ADM)
        a1, a0 = shr.a1[0], shr.a0[0]
        B = shr.B_hat[0]
        assert a1 / (a1 + a0) == pytest.approx(B, rel=1e-13)
        assert B * (1 - B) / (a1 + a0 + 1) == pytest.approx(shr.v[0], rel=1e-12)

    def test_c_to_zero_limit(self):
        # as c -> 0+ the ADM shrinkage approaches min((m+1)/T, 1)
        m = 4.0
        for T in (0.5, 2.0, 4.9, 5.1, 20.0):
            B, _, _ = adm_moments_equal(T, m, 1e-6)
            assert B == pytest.approx(min((m + 1) / T, 1.0), abs=5e-3)


class TestAdmGeneral:
    def test_agrees_with_closed_form(self, equal_dataset_factory):
        rng = np.random.default_rng(5)
        for _ in range(30):
            r = int(rng.integers(0, 2))
            c = float(rng.choice([0.5, 1.0]))
            data = equal_dataset_factory(rng, r=r)
            closed = fit(data, PriorSpec(c=c), FitMethod.ADM)
            _, B, v, inv_info = _fit_adm(data, PriorSpec(c=c))
            assert np.max(np.abs(closed.B_hat - B)) <= 1e-8
            assert np.max(np.abs(closed.v - v)) <= 1e-6
            assert inv_info == pytest.approx(closed.inv_info, abs=1e-6)

    def test_two_group_ordering(self, two_group_data):
        _, B, _, _ = _fit_adm(two_group_data, PriorSpec())
        assert B[0] < B[5]  # smaller V shrinks less
        assert np.all((B > 0) & (B < 1))

    def test_relative_shrinkage_noise_shrinks_with_k(self):
        # median v_i / B_i^2 decreases roughly like 1/k
        rng = np.random.default_rng(7)
        A = 1.0
        medians = []
        for k in (10, 100, 1000):
            vals = []
            for _ in range(5):
                V = rng.uniform(0.5, 2.0, k)
                y = rng.normal(0, np.sqrt(V + A))
                _, B, v, _ = _fit_adm(TwoLevelData(y, V), PriorSpec())
                vals.append(np.median(v / B**2))
            medians.append(np.median(vals))
        assert medians[0] > medians[1] > medians[2]

    def test_known_mu_offsets(self):
        rng = np.random.default_rng(9)
        k = 12
        mu = rng.normal(0, 3.0, k)
        y = mu + rng.normal(0, 1.5, k)
        data = TwoLevelData(y, np.ones(k), mu=mu)
        shifted = TwoLevelData(y - mu, np.ones(k))
        a = _fit_adm(data, PriorSpec(c=1.0))[0]
        b = _fit_adm(shifted, PriorSpec(c=1.0))[0]
        assert a == pytest.approx(b, rel=1e-10)


    def test_gradient_vanishes_at_maximizer(self, two_group_data, unequal_dataset_factory):
        rng = np.random.default_rng(37)
        cases = [(two_group_data, 1.0)] + [
            (unequal_dataset_factory(rng, r=int(rng.integers(0, 3))), float(c))
            for c in rng.choice([0.5, 1.0, 1.5], 10)
        ]
        for data, c in cases:
            A_hat, _, _, inv_info = _fit_adm(data, PriorSpec(c=c))
            ell = AdjustedLogDensity(data, PriorSpec(c=c))
            d1, d2 = ell.derivatives(math.log(A_hat))
            assert abs(d1) <= 1e-6
            assert inv_info == -d2


class TestBetaRecovery:
    """Feeding an exact Beta(a1, a0) adjusted log-density through the ADM
    pipeline must return that Beta's own mean and variance."""

    CASES = [(2.0, 3.0), (5.0, 1.0), (0.5, 0.5)]

    @staticmethod
    def beta_derivatives(a1, a0):
        # B = 1/(1 + A); the adjusted density in alpha = log A is
        # a1 log B + a0 log(1 - B), with analytic first two derivatives
        def derivatives(alpha):
            B = 1.0 / (1.0 + math.exp(alpha))
            return -a1 * (1.0 - B) + a0 * B, -(a1 + a0) * B * (1.0 - B)

        return derivatives

    @pytest.mark.parametrize("a1,a0", CASES)
    def test_exact_recovery_with_analytic_derivatives(self, a1, a0):
        B, v, _, info = adm_beta_moments(self.beta_derivatives(a1, a0), 0.0)
        assert B == pytest.approx(a1 / (a1 + a0), rel=1e-14, abs=1e-15)
        assert v == pytest.approx(B * (1 - B) / (a1 + a0 + 1.0), rel=1e-13)
        assert info == pytest.approx((a1 + a0) * B * (1 - B), rel=1e-13)

    def test_rising_density_has_no_bracket(self):
        with pytest.raises(OptimizerNoBracket):
            adm_beta_moments(lambda a: (0.3, 0.0), 0.0)


class TestMle:
    def test_fig1_boundary(self, fig1_data):
        shr = fit(fig1_data, PriorSpec(), FitMethod.MLE)
        assert shr.boundary is True
        assert shr.A_hat == 0.0
        assert np.all(shr.B_hat == 1.0)
        assert np.all(shr.v == 0.0)

    def test_equal_variance_closed_form(self, equal_dataset_factory):
        rng = np.random.default_rng(11)
        for _ in range(40):
            data = equal_dataset_factory(rng)
            V = float(data.V[0])
            s_plus = residual_ss(data)
            shr = fit(data, PriorSpec(), FitMethod.MLE)
            expected = min(1.0, data.k * V / s_plus)
            assert shr.B_hat[0] == pytest.approx(expected, rel=1e-9)
            assert shr.boundary == (data.k * V >= s_plus)

    def test_profile_likelihood_with_regression(self):
        # equal variances, r >= 1: V + A_hat = S+/k when interior
        rng = np.random.default_rng(13)
        k, V = 25, 0.6
        X = np.column_stack([np.ones(k), rng.normal(size=k)])
        y = X @ np.array([1.0, -2.0]) + rng.normal(0, np.sqrt(V + 3.0), k)
        data = TwoLevelData(y, np.full(k, V), X)
        s_plus = residual_ss(data)
        shr = fit(data, PriorSpec(), FitMethod.MLE)
        assert shr.A_hat == pytest.approx(s_plus / k - V, rel=1e-9)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_interior_maximum_with_V_over_12_decades(self, seed):
        # V from 1 to 1e12, true A = 1: the likelihood peaks at A ~ 2, below
        # Vbar * 1e-10 ~ 5 but far above min(V) * 1e-10, so it is no boundary
        rng = np.random.default_rng(seed)
        V = 10.0 ** rng.permutation(np.linspace(0.0, 12.0, 40))
        data = TwoLevelData(rng.normal(0.0, np.sqrt(V + 1.0)), V)
        for method, restricted in ((FitMethod.MLE, False), (FitMethod.REML, True)):
            shr = fit(data, PriorSpec(), method)
            assert not shr.boundary and 1.0 < shr.A_hat < 4.0
            ell = AdjustedLogDensity(data, PriorSpec(0.0), restricted)
            assert ell.derivatives(math.log(shr.A_hat))[0] == pytest.approx(0.0, abs=1e-6)

    def test_mle_attains_full_shrinkage_adm_does_not(self, fig1_data):
        assert np.all(fit(fig1_data, PriorSpec(), FitMethod.MLE).B_hat == 1.0)
        adm = fit(fig1_data, PriorSpec(), FitMethod.ADM)
        m = (fig1_data.k - 2) / 2
        assert np.all(adm.B_hat <= 1.0 - 1.0 / (m + 1.0) + 1e-12)


class TestReml:
    def test_equal_variance_stationary_point(self):
        rng = np.random.default_rng(17)
        for r in (0, 1, 2):
            k, V = 20, 1.4
            X = None
            mean = np.zeros(k)
            if r:
                X = np.column_stack([np.ones(k)] + [rng.normal(size=k) for _ in range(r - 1)])
                mean = X @ rng.normal(size=r)
            y = mean + rng.normal(0, np.sqrt(V + 2.0), k)
            data = TwoLevelData(y, np.full(k, V), X)
            s_plus = residual_ss(data)
            shr = fit(data, PriorSpec(), FitMethod.REML)
            if s_plus > (k - r) * V:
                assert shr.A_hat == pytest.approx(s_plus / (k - r) - V, rel=1e-9)
            else:
                assert shr.A_hat == 0.0 and shr.boundary

    def test_r0_coincides_with_mle(self, equal_dataset_factory, unequal_dataset_factory):
        rng = np.random.default_rng(19)
        for factory in (equal_dataset_factory, unequal_dataset_factory):
            data = factory(rng)
            a = fit(data, PriorSpec(), FitMethod.MLE)
            b = fit(data, PriorSpec(), FitMethod.REML)
            assert a.A_hat == pytest.approx(b.A_hat, rel=1e-10, abs=1e-12)

    def test_reml_below_adm_with_c1(self, equal_dataset_factory, unequal_dataset_factory):
        # the A-multiplier pushes the ADM maximizer right of the REML one
        rng = np.random.default_rng(23)
        for i in range(1000):
            factory = equal_dataset_factory if i % 2 == 0 else unequal_dataset_factory
            r = int(rng.integers(0, 3))
            data = factory(rng, r=r)
            reml = fit(data, PriorSpec(), FitMethod.REML)
            assert reml.A_hat <= _fit_adm(data, PriorSpec(c=1.0))[0] + 1e-9


def known_means_rows_data(V: np.ndarray, n: int, seed: int) -> np.ndarray:
    """n rows of residuals y - mu with V shared; a quarter are drawn at
    A = 0, where MLE mostly sits on the boundary."""
    rng = np.random.default_rng(seed)
    A = np.array([0.0, 0.1, 1.0, 6.0])[rng.integers(0, 4, n)] * V.mean()
    return rng.normal(0.0, np.sqrt(V + A[:, None]))


def brent_by_lockstep(f, bracket):
    """_brent's maximizer of f, driven as a batch of one from the bracket's
    values."""
    search = _brent([(a, f(a)) for a in bracket])
    return _lockstep([search], lambda rows, alphas: [f(a) for a in alphas])[0][0]


class TestKnownMeansBatch:
    """MLE and REML at r = 0 run in lockstep over rows (mle_known_means);
    a row's fit must not depend on its batch, and a scalar MLE or REML fit
    is a batch of one."""

    @pytest.mark.parametrize("equal", [True, False])
    def test_a_row_does_not_depend_on_its_batch(self, equal):
        k = 12
        V = np.full(k, 0.7) if equal else np.random.default_rng(3).uniform(0.2, 5.0, k)
        resid = known_means_rows_data(V, 1000, seed=5 + equal)
        whole = mle_known_means(resid, V)
        assert (whole == 0.0).sum() > 100 and (whole > 0.0).sum() > 500
        perm = np.random.default_rng(8).permutation(1000)
        assert mle_known_means(resid[perm], V).tobytes() == whole[perm].tobytes()
        parts = [mle_known_means(resid[i : i + 20], V) for i in range(0, 1000, 20)]
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        subset = perm[:37]
        assert mle_known_means(resid[subset], V).tobytes() == whole[subset].tobytes()
        for i in perm[:60]:
            data = TwoLevelData(resid[i], V)
            for method in (FitMethod.MLE, FitMethod.REML):
                shr = fit(data, PriorSpec(), method)
                assert shr.A_hat == mle_known_means(resid[i : i + 1], V)[0] == whole[i]
                assert shr.boundary == (whole[i] == 0.0)
                assert shr.B_hat.tobytes() == (V / (V + whole[i])).tobytes()

    def test_scalar_fit_with_known_means_is_the_batch_of_its_residuals(self):
        rng = np.random.default_rng(21)
        k = 9
        V = rng.uniform(0.3, 3.0, k)
        mu = rng.normal(4.0, 2.0, k)
        resid = known_means_rows_data(V, 40, seed=22)
        batch = mle_known_means(resid, V)
        for i in range(40):
            data = TwoLevelData(mu + resid[i], V, mu=mu)
            for method in (FitMethod.MLE, FitMethod.REML):
                shr = fit(data, PriorSpec(), method)
                # mu + resid - mu need not round back to resid
                want = mle_known_means((data.y - mu)[None, :], V)[0]
                assert shr.A_hat == want and shr.boundary == (want == 0.0)
                assert shr.B_hat.tobytes() == (V / (V + want)).tobytes()
                assert want == pytest.approx(batch[i], rel=1e-6, abs=1e-9)

    @pytest.mark.parametrize("k", [5, 300])
    def test_kernel_rows_match_the_scalar_density(self, k):
        rng = np.random.default_rng(k)
        V = rng.uniform(0.2, 5.0, k)
        resid = known_means_rows_data(V, 50, seed=k + 1)
        alphas = rng.uniform(-8.0, 8.0, 50).tolist()
        for c in (0.0, 1.0):
            rows = known_means_rows(alphas, resid * resid, V, c)
            for i, alpha in enumerate(alphas):
                ell = AdjustedLogDensity(TwoLevelData(resid[i], V), PriorSpec(c))
                assert rows[i] == ell(alpha)
                assert known_means_rows(alphas[i : i + 1], resid[i : i + 1] ** 2, V, c)[0] == rows[i]

    def test_brent_is_scipys_brent(self):
        V = np.random.default_rng(1).uniform(0.5, 2.0, 10)
        resid = known_means_rows_data(V, 30, seed=2)
        for e in resid:
            ell = AdjustedLogDensity(TwoLevelData(e, V), PriorSpec(0.0))
            for bracket in ((-3.0, 0.0, 3.0), (-8.0, -1.0, 0.5), (4.0, 0.0, -3.0)):
                values = [ell(a) for a in bracket]
                if not values[1] > max(values[0], values[2]):
                    with pytest.raises(ValueError):
                        brent_by_lockstep(ell, bracket)
                    with pytest.raises(ValueError):
                        optimize.minimize_scalar(lambda a: -ell(a), bracket=bracket,
                                                 method="brent")
                    continue
                want = optimize.minimize_scalar(
                    lambda a: -ell(a), bracket=bracket, method="brent", options={"xtol": 1e-10}
                ).x
                assert brent_by_lockstep(ell, bracket) == want


def scalar_search_A(e: np.ndarray, V: np.ndarray) -> float:
    """MLE's A_hat at r = 0 for one row of residuals, written out here on
    the scalar density AdjustedLogDensity.__call__ rather than through
    mle_known_means: the start and range, the bracket walk (l at x0, x0 + 1
    and x0 - 1, then steps growing by 1.7), scipy's Brent at xtol 1e-10
    from the walk's triple (its middle point when scipy rejects the
    triple), six central-difference Newton steps at most, and the A = 0
    boundary below min(V) 1e-10."""
    ell = AdjustedLogDensity(TwoLevelData(e, V), PriorSpec(0.0))
    v_bar = float(V.mean())
    lo = math.log(float(V.min()) * 1e-12)
    a0 = max(float(e @ e) / e.size - v_bar, v_bar / 10.0)
    hi = math.log(max(a0, v_bar)) + 45.0
    x0 = min(max(math.log(a0), lo + 1.0), hi - 1.0)
    f0, fp, fm = ell(x0), ell(x0 + 1.0), ell(x0 - 1.0)
    if f0 >= fp and f0 >= fm:
        triple = (x0 - 1.0, x0, x0 + 1.0)
    else:
        a, b, fb, d = (x0, x0 + 1.0, fp, 1.0) if fp > f0 else (x0, x0 - 1.0, fm, -1.0)
        while True:
            d *= 1.7
            c = min(max(b + d, lo), hi)
            fc = ell(c)
            if fc <= fb:
                triple = (a, b, c)
                break
            if c == lo:
                return 0.0
            assert c != hi
            a, b, fb = b, c, fc
    try:
        x = optimize.minimize_scalar(lambda a: -ell(a), bracket=triple, method="brent",
                                     options={"xtol": 1e-10}).x
    except ValueError:
        x = triple[1]
    x = min(max(x, lo), hi)
    for _ in range(6):
        h = 1e-5 * max(1.0, abs(x))
        fp, fm, f0 = ell(x + h), ell(x - h), ell(x)
        g = (fp - fm) / (2.0 * h)
        curv = (fp - 2.0 * f0 + fm) / (h * h)
        if not (curv < 0.0) or not math.isfinite(g):
            break
        xn = min(max(x + max(-0.5, min(0.5, -g / curv)), lo), hi)
        if abs(xn - x) <= 1e-14 * max(1.0, abs(x)):
            x = xn
            break
        x = xn
    A = math.exp(x)
    return 0.0 if A < float(V.min()) * 1e-10 else A


class TestKnownMeansSearchOracle:
    """mle_known_means, the lockstep search on the row kernel, gives every
    row bit for bit the A_hat of the same search run on that row alone by
    the scalar density and scipy's Brent (scalar_search_A)."""

    @pytest.mark.parametrize("equal", [True, False])
    def test_lockstep_matches_the_scalar_search(self, equal):
        k = 12
        V = np.full(k, 0.7) if equal else np.random.default_rng(31).uniform(0.2, 5.0, k)
        resid = known_means_rows_data(V, 1000, seed=32 + equal)
        want = np.array([scalar_search_A(e, V) for e in resid])
        assert (want == 0.0).sum() > 100 and (want > 0.0).sum() > 500  # boundary rows too
        for n in (1, 20, 1000):
            assert mle_known_means(resid[:n], V).tobytes() == want[:n].tobytes()


def _fresh_interpreter(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that finds the shrinkfit
    under test first."""
    src = str(Path(shrinkfit.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r})\n{code}"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return out.stdout


SCIPY_LOADED = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


@functools.cache
def _modules_after_import() -> list[str]:
    return _fresh_interpreter("import shrinkfit; print(*sys.modules)").split()


def test_import_does_not_load_scipy():
    modules = _modules_after_import()
    assert "shrinkfit.fitters" in modules and "shrinkfit.evaluate" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_import_does_not_load_orjson():
    # the CSV reader and the JSON writer import it when first called
    modules = _modules_after_import()
    assert "shrinkfit.evaluate" in modules and "orjson" not in modules


@pytest.mark.parametrize("method", ["adm", "mle", "reml", "exact"])
def test_unequal_variance_cli_fit_loads_no_scipy(tmp_path, method):
    from shrinkfit.cli import write_dataset_csv

    path, out = tmp_path / "in.csv", tmp_path / "out.json"
    write_dataset_csv(path, cli_pool_dataset(10, 0))  # unequal V, r = 2
    argv = ["fit", str(path), "--method", method, "--out", str(out)]
    code = f"from shrinkfit import cli; assert cli.main({argv!r}) == 0; {SCIPY_LOADED}"
    assert _fresh_interpreter(code) == "\n"
    assert out.stat().st_size > 0


@pytest.mark.parametrize("c", [0.5, 1.0])
def test_equal_variance_exact_and_curves_load_no_scipy(c, tmp_path):
    data = TwoLevelData(np.linspace(-2.0, 3.0, 10), np.ones(10))
    shr = fit(data, PriorSpec(c), FitMethod.EXACT)
    argv = ["curves", "--c", str(c), "--out", str(tmp_path / "curves.csv")]
    code = (
        "from shrinkfit import *; from shrinkfit import cli; import numpy as np\n"
        "data = TwoLevelData(np.linspace(-2.0, 3.0, 10), np.ones(10))\n"
        f"shr = fit(data, PriorSpec({c}), FitMethod.EXACT)\n"
        f"assert cli.main({argv!r}) == 0\n"
        f"print(*shr.B_hat.tolist(), *shr.v.tolist()); {SCIPY_LOADED}"
    )
    values, after = _fresh_interpreter(code).split("\n")[:2]
    assert after == ""
    assert [float(x) for x in values.split()] == [*shr.B_hat.tolist(), *shr.v.tolist()]


def test_simulation_loads_no_scipy(tmp_path):
    # the coverage scoring's Normal CDF is specfun.ndtr: a simulation in a
    # fresh interpreter, in process or through the CLI, loads no SciPy module
    # and gives what it gives here
    cfgs = (
        "equal_variance_config(6, seed=5, reps=30, grid=(0.4,), methods=tuple(FitMethod), c=0.5)",
        "two_group_config(seed=5, reps=10, grid=(0.3, 0.7))",
    )
    want = [repr(shrinkfit.run_coverage(eval(cfg, vars(shrinkfit))).rows) for cfg in cfgs]
    argv = ["simulate", "--preset", "equal", "--k", "6", "--reps", "5", "--grid-points", "3",
            "--threads", "1", "--out", str(tmp_path)]
    code = (
        "from shrinkfit import *; from shrinkfit import cli\n"
        + "".join(f"print(repr(run_coverage({cfg}).rows))\n" for cfg in cfgs)
        + f"assert cli.main({argv!r}) == 0\n{SCIPY_LOADED}"
    )
    *got, after = _fresh_interpreter(code).split("\n")[:3]
    assert got == want and after == ""
    assert (tmp_path / "simulation.csv").stat().st_size > 0


EQUAL_EXACT_REFERENCE = Path(__file__).parent / "equal_exact_reference.json"


def exact_mean_by_posterior_integral(T: float, m: float) -> float:
    # independent oracle: the posterior of B given S+ has density ~ B^(m-1) e^(-TB)
    num = integrate.quad(lambda b: b**m * math.exp(-T * b), 0, 1, epsabs=0, epsrel=1e-12)[0]
    den = integrate.quad(
        lambda b: b ** (m - 1) * math.exp(-T * b), 0, 1, epsabs=0, epsrel=1e-12
    )[0]
    return num / den


class TestExactEqual:
    def test_T0_limit(self):
        data = TwoLevelData(np.zeros(10), np.ones(10))
        shr = fit(data, PriorSpec(c=1.0), FitMethod.EXACT)
        m = 4.0
        assert shr.B_hat[0] == m / (m + 1.0)
        assert shr.v[0] == pytest.approx(m / ((m + 1) ** 2 * (m + 2)), rel=1e-14)

    def test_small_T_large_m_against_posterior_integral(self):
        # P(m, T) underflows here, so the moments must be formed in log space
        B, _ = exact_moments_equal(1e-3, 499.0)
        assert B == pytest.approx(exact_mean_by_posterior_integral(1e-3, 499.0), rel=1e-12)

    def test_large_T_approaches_james_stein(self):
        m = 4.0
        B, _ = exact_moments_equal(1e6, m)
        assert B == pytest.approx(m / 1e6, rel=1e-8)

    def test_fig1_against_quadrature_oracles(self, fig1_data):
        shr = fit(fig1_data, PriorSpec(c=1.0), FitMethod.EXACT)
        # chi-square CDF ratio via quadrature of the two densities
        from test_specfun import chi2_cdf_by_quadrature

        ratio = chi2_cdf_by_quadrature(8.0, 10.0) / chi2_cdf_by_quadrature(8.0, 8.0)
        assert shr.B_hat[0] == pytest.approx(1.0 * ratio, rel=1e-10)
        # posterior-mean integral as an independent check
        assert shr.B_hat[0] == pytest.approx(
            exact_mean_by_posterior_integral(4.0, 4.0), rel=1e-10
        )

    def test_variance_identity_against_moments(self):
        # Eq-style v equals E[B^2] - (E[B])^2 computed by quadrature
        for m, T in [(1.0, 0.3), (4.0, 4.0), (9.0, 12.0), (2.5, 0.01)]:
            B, v = exact_moments_equal(T, m)

            def raw_moment(p):
                num = integrate.quad(
                    lambda b: b ** (m - 1 + p) * math.exp(-T * b),
                    0,
                    1,
                    epsabs=0,
                    epsrel=1e-12,
                )[0]
                den = integrate.quad(
                    lambda b: b ** (m - 1) * math.exp(-T * b), 0, 1, epsabs=0, epsrel=1e-12
                )[0]
                return num / den

            assert B == pytest.approx(raw_moment(1), rel=1e-11)
            assert v == pytest.approx(raw_moment(2) - raw_moment(1) ** 2, rel=1e-9)

    def test_against_the_mpmath_reference(self):
        # scripts/make_equal_exact_reference.py: 50-digit values on a grid
        # of m up to 49999, c in 0.1 .. 1.5 and T from 0 to 10 (m + 1);
        # bounds fixed before the first run
        rows = np.array(json.loads(EQUAL_EXACT_REFERENCE.read_text())["rows"])
        for m, c in sorted({(row[0], row[1]) for row in rows}):
            T, B_ref, v_ref = rows[(rows[:, 0] == m) & (rows[:, 1] == c)][:, 2:].T
            B, v = exact_moments_equal(T, m, c)
            assert np.all(v > 0.0)
            assert np.max(np.abs(B - B_ref) / B_ref) <= 1e-12
            assert np.max(np.abs(v - v_ref) / v_ref) <= 1e-10

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 100_000), st.floats(0.0, 1.0),
           st.one_of(st.just(0.0), st.floats(0.0, 1e12)))
    def test_variance_is_positive_and_below_its_beta_bound(self, k, share, T):
        # any distribution on [0, 1] has Var B <= E[B] (1 - E[B])
        m = 0.5 * (k - 2.0)
        c = 1e-3 + share * (m - 1e-3)
        B, v = exact_moments_equal(T, m, c)
        assert 0.0 < B < 1.0 and 0.0 < v <= B * (1.0 - B)

    @pytest.mark.parametrize("c", [0.5, 1.0])
    @pytest.mark.parametrize("k", [10_000, 100_000])
    def test_large_k_matches_quadrature(self, k, c):
        # v by the James-Stein identity on a chi-square CDF ratio cancels
        # here: at k = 1e4 it reads -9.1e-9 at T = 1 against 4.0e-8 and is
        # 3.6e-5 off at T = (m + 1)/2, at k = 1e5 2.6e-5 off at
        # T = 0.9 (m + 1).  Bounds: TestSlowTails'.
        m = 0.5 * (k - 2.0)
        for T in (1.0, 49.9, 0.5 * (m + 1.0), 0.9 * (m + 1.0), m + 1.0):
            data = TwoLevelData(np.full(k, math.sqrt(2.0 * T / k)), np.ones(k))
            shr = fit(data, PriorSpec(c), FitMethod.EXACT)
            _, B, v, _ = _fit_exact(data, PriorSpec(c))
            assert np.max(np.abs(shr.B_hat - B) / B) <= 1e-9
            assert np.max(np.abs(shr.v - v) / v) <= 1e-8


def large_k_unequal_data() -> TwoLevelData:
    """Seeded k = 1e5, r = 2 design with unequal variances."""
    rng = np.random.default_rng(41)
    k = 100_000
    V = rng.uniform(0.2, 5.0, k)
    X = np.column_stack([np.ones(k), rng.normal(size=k)])
    y = X @ np.array([1.0, -0.5]) + rng.normal(0.0, np.sqrt(V + 2.0))
    return TwoLevelData(y, V, X)


def hostile_design(decades: int, log10_A: int, k: int, r: int):
    """V spread evenly in log over `decades` decades from 1, true A =
    10^log10_A, Level-2 means offset by 1e6 (known means when r = 0)."""
    rng = np.random.default_rng([decades, log10_A + 3, k, r])
    V = 10.0 ** rng.permutation(np.linspace(0.0, decades, k))
    mu = None
    X = None
    if r >= 1:
        X = np.column_stack([np.ones(k)] + [rng.normal(size=k) for _ in range(r - 1)])
        mean = 1e6 + X @ rng.normal(0.0, 2.0, r)
    else:
        mu = np.full(k, 1e6)
        mean = mu
    y = mean + rng.normal(0.0, np.sqrt(V + 10.0**log10_A))
    return TwoLevelData(y, V, X, mu), PriorSpec(c=1.0)


HOSTILE_DESIGNS = [
    (decades, log10_A, k, r)
    for decades in (1, 4, 12)
    for log10_A in (-3, 3)
    for k, r in ((5, 0), (12, 1), (30, 2), (100, 3))
]

_ORACLE_X, _ORACLE_W = np.polynomial.legendre.leggauss(20)


def fine_grid_B(ell, center: float, V: np.ndarray) -> np.ndarray:
    """Posterior mean of each B_i by 1600 equal panels of 20 Gauss-Legendre
    nodes over center +- 40: an oracle with no adaptive widths, no skipped
    panels and no centring."""
    edges = np.linspace(center - 40.0, center + 40.0, 1601)
    half = 0.5 * np.diff(edges)
    nodes = ((edges[:-1] + half)[:, None] + half[:, None] * _ORACLE_X).ravel()
    logw = ell.on_nodes(nodes)
    w = (half[:, None] * _ORACLE_W).ravel() * np.exp(logw - logw.max())
    return (w @ (V / (V + np.exp(nodes)[:, None]))) / w.sum()


def cli_pool_dataset(k: int, j: int) -> TwoLevelData:
    """The benchmark's `shrinkfit fit` pool dataset j of size k: V
    log-uniform over a decade around 1, an intercept and one Normal
    covariate, A = 1, drawn from default_rng([k, j])."""
    rng = np.random.default_rng([k, j])
    V = 10.0 ** rng.uniform(-0.5, 0.5, k)
    X = np.column_stack([np.ones(k), rng.standard_normal(k)])
    theta = X @ np.array([0.5, 1.0]) + rng.standard_normal(k)
    y = theta + np.sqrt(V) * rng.standard_normal(k)
    return TwoLevelData(y, V, X)


# |l'(alpha_hat)| of a Newton fit on a hostile design; the worst seen is
# about 2e-10 (the bracket-Brent-polish optimizer left up to 7e-6)
HOSTILE_SCORE_TOL = 1e-8


class TestNewton:
    """ADM, MLE and REML at r >= 1 and the mode of exact Bayes find alpha_hat
    by safeguarded Newton on the closed-form l', l''."""

    @pytest.mark.parametrize("method", [FitMethod.ADM, FitMethod.MLE, FitMethod.REML,
                                        FitMethod.EXACT])
    def test_few_evaluations_on_the_cli_pool(self, method, monkeypatch):
        # scalar evaluations (derivatives and __call__) per fit over the 32
        # k <= 100 designs: bracket, Brent and polish made about 40-52
        calls = []
        for name in ("derivatives", "__call__"):
            def counted(self, alpha, evaluate=getattr(AdjustedLogDensity, name)):
                calls.append(alpha)
                return evaluate(self, alpha)

            monkeypatch.setattr(AdjustedLogDensity, name, counted)
        counts = []
        for k in (10, 100):
            for j in range(16):
                calls.clear()
                fit(cli_pool_dataset(k, j), PriorSpec(c=1.0), method)
                counts.append(len(calls))
        assert np.mean(counts) <= 10

    @pytest.mark.parametrize("decades, log10_A, k, r", HOSTILE_DESIGNS)
    def test_hostile_designs(self, decades, log10_A, k, r):
        data, prior = hostile_design(decades, log10_A, k, r)
        A_hat = _fit_adm(data, prior)[0]
        ell = AdjustedLogDensity(data, prior)
        assert abs(ell.derivatives(math.log(A_hat))[0]) <= HOSTILE_SCORE_TOL
        if r == 0:
            return  # MLE and REML keep bracket, Brent and polish at r = 0
        # MLE's and REML's A = 0 verdict is the sign of the A-score l'/A at
        # the floor
        for method, restricted in ((FitMethod.MLE, False), (FitMethod.REML, True)):
            shr = fit(data, PriorSpec(), method)
            ell0 = AdjustedLogDensity(data, PriorSpec(0.0), restricted=restricted)
            floor = _search_range(data.V, [ell0.residual_ss()], data.k - data.r)[0][1]
            assert shr.boundary == (ell0.derivatives(floor)[0] <= 0.0)
            if not shr.boundary:
                assert abs(ell0.derivatives(math.log(shr.A_hat))[0]) <= HOSTILE_SCORE_TOL

    def test_clipped_steps_do_not_cycle(self):
        # the score B(e^x) - 0.55 at m = 10 from x = 0: steps clipped to +-2
        # once went 0, 2, 4, 2, 4, ... back onto evaluated ends until the
        # iterations ran out, though the root lies between 2 and 4
        def score(x):
            B, v = exact_moments_equal(math.exp(x), 10.0)
            return float(B) - 0.55, -float(v) * math.exp(x)

        root = _newton_alpha(score, math.log(10.0 / 0.55), -25.0, 25.0)[0]
        assert root == pytest.approx(2.8843072784, abs=1e-10)
        assert _newton_alpha(score, 0.0, -25.0, 25.0)[0] == pytest.approx(root, abs=1e-12)

    @pytest.mark.parametrize("j", [4, 8])
    def test_cli_pool_reml_boundaries_stay(self, j):
        shr = fit(cli_pool_dataset(10, j), PriorSpec(), FitMethod.REML)
        assert shr.boundary and shr.A_hat == 0.0 and np.all(shr.B_hat == 1.0)


class TestExactQuadrature:
    def test_matches_closed_form_equal_variances(self, equal_dataset_factory):
        rng = np.random.default_rng(29)
        for _ in range(10):
            data = equal_dataset_factory(rng, r=int(rng.integers(0, 2)))
            e = fit(data, PriorSpec(c=1.0), FitMethod.EXACT)
            _, B, v, _ = _fit_exact(data, PriorSpec(c=1.0))
            assert np.max(np.abs(e.B_hat - B)) <= 1e-7
            assert np.max(np.abs(e.v - v)) <= 1e-7

    def test_posterior_normalizes(self, two_group_data):
        prior = PriorSpec(c=1.0)
        A_hat, B, _, _ = _fit_exact(two_group_data, prior)
        ell = AdjustedLogDensity(two_group_data, prior)
        a_hat = math.log(A_hat)
        l_max = ell(a_hat)
        Z = integrate.quad(
            lambda a: math.exp(ell(a) - l_max), a_hat - 40, a_hat + 40, epsabs=0,
            epsrel=1e-10, limit=400,
        )[0]
        mass = integrate.quad(
            lambda a: math.exp(ell(a) - l_max) / Z, a_hat - 40, a_hat + 40, epsabs=0,
            epsrel=1e-10, limit=400,
        )[0]
        assert mass == pytest.approx(1.0, abs=1e-8)
        # and the quadrature moments match an independent scalar integration
        EB1 = integrate.quad(
            lambda a: (two_group_data.V[0] / (two_group_data.V[0] + math.exp(a)))
            * math.exp(ell(a) - l_max) / Z,
            a_hat - 40, a_hat + 40, epsabs=0, epsrel=1e-10, limit=400,
        )[0]
        assert B[0] == pytest.approx(EB1, rel=1e-8)

    def test_mle_shrinks_more_than_exact_two_group(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            A = float(rng.choice([0.05, 0.55, 1.0, 5.5]))
            V = np.array([0.55] * 5 + [5.5] * 5)
            theta = rng.normal(0.0, math.sqrt(A), 10)
            y = theta + rng.normal(0, np.sqrt(V))
            data = TwoLevelData(y, V, np.ones((10, 1)))
            mle = fit(data, PriorSpec(), FitMethod.MLE)
            B_exact = _fit_exact(data, PriorSpec(c=1.0))[1]
            B_adm = _fit_adm(data, PriorSpec(c=1.0))[1]
            assert np.all(mle.B_hat >= B_exact - 1e-9)
            assert np.all(mle.B_hat >= B_adm - 1e-9)

    def test_equal_variance_c_half_matches_curve_quadrature(self):
        # the curve tables integrate the closed-form alpha-posterior of
        # (T, m); the fitter integrates the adjusted density of a dataset with
        # the same T and m (V = 1, r = 0, k = 10, so m = 4)
        T, k = 3.0, 10
        data = TwoLevelData(np.full(k, math.sqrt(2.0 * T / k)), np.ones(k))
        _, B_q, v_q, _ = _fit_exact(data, PriorSpec(c=0.5))
        B, v = exact_moments_equal(T, 0.5 * (k - 2.0), 0.5)
        assert B_q[0] == pytest.approx(B, abs=1e-9)
        assert v_q[0] == pytest.approx(v, abs=1e-9)

    def test_large_k_unequal_variances_is_finite(self):
        # at k = 1e5 the posterior of alpha is ~0.01 wide inside the +-40
        # quadrature interval; the fit must still sample its peak
        data = large_k_unequal_data()
        B_exact = _fit_exact(data, PriorSpec(c=1.0))[1]
        B_adm = _fit_adm(data, PriorSpec(c=1.0))[1]
        assert np.all(np.isfinite(B_exact))
        assert np.all((B_exact > 0.0) & (B_exact < 1.0))
        assert np.max(np.abs(B_exact - B_adm)) <= 1e-4

    def test_large_k_memory_is_bounded(self):
        # the block passes are chunked, so the peak does not grow with the
        # node count times k (58 MB with adaptive quadrature, about 12 now)
        data = large_k_unequal_data()
        tracemalloc.start()
        try:
            _fit_exact(data, PriorSpec(c=1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20

    @pytest.mark.parametrize("decades, log10_A, k, r", HOSTILE_DESIGNS)
    def test_matches_fine_grid_oracle(self, decades, log10_A, k, r):
        # V spread over 1, 4 or 12 decades, A = 10^+-3, y offset by 1e6: the
        # fixed rule's B within 1e-10 relative of a 32000-node rule (the
        # rule without its panel-width cap is off by up to 1e-4 here)
        data, prior = hostile_design(decades, log10_A, k, r)
        A_hat, B_hat, _, _ = _fit_exact(data, prior)
        ell = AdjustedLogDensity(data, prior)
        B = fine_grid_B(ell, math.log(A_hat), data.V)
        assert np.max(np.abs(B_hat - B) / B) <= 1e-10

    def test_narrow_peak_needs_its_breakpoints(self):
        # a peak of width ~1e-5 at 0: with no curvature to place breakpoints
        # the rule misses it and the normalizer vanishes, which must raise
        # rather than return 0/0
        logpost = NarrowPeak(TwoLevelData(np.zeros(3), np.ones(3)), PriorSpec())
        EB, _ = quadrature_moments(logpost, 0.0, 2e10)
        assert EB[0] == pytest.approx(0.5, abs=1e-6)
        with pytest.raises(NonintegrablePosterior):
            quadrature_moments(logpost, 0.0, 0.0)

    def test_improper_posterior_raises(self):
        data = TwoLevelData(np.arange(4.0), np.ones(4), np.column_stack(
            [np.ones(4), [0.0, 1.0, 2.0, 3.0]]
        ))
        with pytest.raises(TooFewUnits):
            fit(data, PriorSpec(c=1.0), FitMethod.EXACT)
        # c = 0: the A -> 0 tail of exp(l) has infinite mass
        data = TwoLevelData(np.arange(6.0), np.ones(6))
        with pytest.raises(NonintegrablePosterior):
            quadrature_moments(AdjustedLogDensity(data, PriorSpec(0.0)), 1.0, 1.0)

    @pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 3.0, 48.0, 5e4])
    def test_tail_rule_is_gaussian(self, a):
        # the n-node rule for t^(a-1) on (0, 1) integrates t^j exactly for
        # j < 2n: the integral is 1/(a + j)
        log_t, omega = fitters._tail_rule(a)
        j = np.arange(2 * _TAIL_NODES)
        assert np.all(np.diff(log_t) > 0.0) and log_t[-1] < 0.0
        assert np.max(np.abs(np.exp(np.outer(j, log_t)) @ omega * (a + j) - 1.0)) <= 1e-13


# Designs whose posterior of alpha has a slow tail (ROADMAP item 10): toward
# A = 0 it falls as exp(c alpha), toward A = infinity as exp(-(m - c) alpha)
# with m = (k - r)/2.  Small c: k = 8; small m - c = 0.1, 0.2, 0.3: k - r = 4.
SLOW_TAILS = [(8, r, c) for c in (0.1, 0.25, 0.5) for r in (0, 1)] + [
    (4 + r, r, 2.0 - d) for d in (0.1, 0.2, 0.3) for r in (0, 1)]


def slow_tail_data(k: int, r: int, equal: bool) -> TwoLevelData:
    """V log-spaced over 0.3 to 3 (all 1.3 when `equal`), an intercept when
    r = 1, y drawn with A = 1 from default_rng([k, r, equal])."""
    rng = np.random.default_rng([k, r, int(equal)])
    V = np.full(k, 1.3) if equal else np.geomspace(0.3, 3.0, k)
    return TwoLevelData(rng.normal(0.0, np.sqrt(V + 1.0)), V, np.ones((k, 1)) if r else None)


def reference_moments(ell: AdjustedLogDensity, center: float):
    """E[B_i] and Var(B_i) under exp(l) by mpmath's tanh-sinh quadrature
    over all of A: alpha over [lo, hi] (the range of log V and the mode,
    widened by 8), A = exp(lo) s^(1/c) below it and A = exp(hi) s^(-1/a)
    above it (a = m - c), s in (0, 1], which make the two tails smooth
    in s.  l is evaluated once per node and reused for every moment."""
    c, a = ell.tail_exponents
    V = ell.data.V
    l0 = ell(center)
    lo = min(math.log(V.min()), center) - 8.0
    hi = max(math.log(V.max()), center) + 8.0
    pieces = [  # (alpha of the variable, dalpha/dvariable, the variable's range)
        (lambda s: lo + math.log(s) / c, lambda s: 1.0 / (c * s), [0, 1]),
        (lambda x: x, lambda x: 1.0, np.linspace(lo, hi, 9).tolist()),
        (lambda s: hi - math.log(s) / a, lambda s: 1.0 / (a * s), [0, 1]),
    ]
    cache = {}

    def integral(f):
        total = 0.0
        for i, (alpha, jacobian, ends) in enumerate(pieces):
            def integrand(s):
                s = float(s)
                if s == 0.0 and i != 1:  # l is -inf at either end of A
                    return 0.0
                if (i, s) not in cache:
                    x = alpha(s)
                    cache[i, s] = math.exp(ell(x) - l0) * jacobian(s), math.exp(x)
                weight, A = cache[i, s]
                return weight * f(A)
            total += mpmath.quad(integrand, ends)
        return total

    Z = integral(lambda A: 1.0)
    m1 = np.array([float(integral(lambda A: v / (v + A)) / Z) for v in V])
    m2 = np.array([float(integral(lambda A: (v / (v + A)) ** 2) / Z) for v in V])
    return m1, m2 - m1 * m1


class TestSlowTails:
    """Exact Bayes integrates both tails of alpha to A = 0 and A = infinity,
    so slow tails lose no mass.  Bounds stated before the first run: B_hat
    within 1e-9 and v within 1e-8 relative of each oracle (a rule cut at the
    mode +- 40 was off by up to 7e-3 at c = 0.1 and 2.6e-4 at m - c = 0.2)."""

    @pytest.mark.parametrize("k, r, c", SLOW_TAILS)
    def test_unequal_variances_against_a_reference_integral(self, k, r, c):
        data, prior = slow_tail_data(k, r, equal=False), PriorSpec(c)
        A_hat, B_hat, v_hat, _ = _fit_exact(data, prior)
        B, v = reference_moments(AdjustedLogDensity(data, prior), math.log(A_hat))
        assert np.max(np.abs(B_hat - B) / B) <= 1e-9
        assert np.max(np.abs(v_hat - v) / v) <= 1e-8

    @pytest.mark.parametrize("k, r, c", SLOW_TAILS)
    def test_equal_variances_against_the_kummer_form(self, k, r, c):
        # the posterior of B is proportional to B^(a-1) (1 - B)^(c-1) e^(-TB),
        # a = m - c, so E[B^j] is a ratio of Kummer functions 1F1
        data = slow_tail_data(k, r, equal=True)
        _, B_hat, v_hat, _ = _fit_exact(data, PriorSpec(c))
        T = residual_ss(data) / (2.0 * 1.3)
        a, n = 0.5 * (k - r) - c, 0.5 * (k - r)
        M0 = hyp1f1(a, n, -T)
        B = a / n * hyp1f1(a + 1.0, n + 1.0, -T) / M0
        B2 = a * (a + 1.0) / (n * (n + 1.0)) * hyp1f1(a + 2.0, n + 2.0, -T) / M0
        assert 1.0 < T < 20.0
        assert np.max(np.abs(B_hat - B)) <= 1e-9 * B
        assert np.max(np.abs(v_hat - (B2 - B * B))) <= 1e-8 * (B2 - B * B)


class EveryEdge(AdjustedLogDensity):
    """An AdjustedLogDensity that the quadrature evaluates plainly: no bound
    on l stops the edge walk (S and Q read +inf), so l is evaluated at
    every panel edge and both tail panels are kept, and power_sums declines,
    so the nodes go through on_nodes."""

    def on_nodes(self, alphas, parts=False):
        values = super().on_nodes(alphas)
        return np.stack([values, np.full_like(values, np.inf), np.full_like(values, np.inf)]) if parts else values

    def power_sums(self, center, alphas):
        return None


class NarrowPeak(EveryEdge):
    """l(alpha) = -1e10 alpha^2, a peak of width ~1e-5 at alpha = 0."""

    def on_nodes(self, alphas, parts=False):
        values = -1e10 * np.square(np.asarray(alphas, dtype=float).ravel())
        return np.stack([values, np.full_like(values, np.inf), np.full_like(values, np.inf)]) if parts else values


def walk_and_every_edge(data: TwoLevelData, prior: PriorSpec, center=None):
    """The quadrature's kept panels (a, b, l at the mode) at the exact fit's
    mode (or at `center`, a local mode): walked outward on the
    AdjustedLogDensity, and with every edge evaluated (EveryEdge); and the
    sizes of the walk's on_nodes calls."""
    ell = AdjustedLogDensity(data, prior)
    if center is None:
        (alpha0, lo, hi), = _search_range(data.V, [ell.residual_ss()], data.k - data.r)
        center, _, d2 = _newton_alpha(ell.derivatives, alpha0, lo, hi)
    else:
        center, _, d2 = _newton_alpha(ell.derivatives, center, center - 3.0, center + 3.0)
    every = fitters._panels(EveryEdge(data, prior), center, -d2)
    sizes = []

    def counted(alphas, parts=False, on_nodes=ell.on_nodes):
        sizes.append(np.size(alphas))
        return on_nodes(alphas, parts)

    ell.on_nodes = counted
    return fitters._panels(ell, center, -d2), every, sizes


def assert_same_panels(walk, every):
    assert np.array_equal(walk[0], every[0]) and np.array_equal(walk[1], every[1])


class TestEdgeWalk:
    """quadrature_moments walks the panel edges of an AdjustedLogDensity
    outward from the mode and stops a side at a proven bound; it must keep
    exactly the panels that evaluating every edge keeps."""

    @pytest.mark.parametrize("decades, log10_A, k, r", HOSTILE_DESIGNS)
    def test_hostile_designs(self, decades, log10_A, k, r, monkeypatch):
        # one edge a block, so that the walk stops wherever its bounds allow
        monkeypatch.setattr(fitters, "BLOCK_ELEMENTS", k)
        walk, every, sizes = walk_and_every_edge(*hostile_design(decades, log10_A, k, r))
        assert_same_panels(walk, every)
        assert max(sizes) == 1

    @pytest.mark.parametrize("c", [0.5, 1.0])
    @pytest.mark.parametrize("k, pool", [(10, 16), (100, 16), (10_000, 4), (100_000, 1)])
    def test_cli_pool(self, k, pool, c):
        for j in range(pool):
            walk, every, sizes = walk_and_every_edge(cli_pool_dataset(k, j), PriorSpec(c))
            assert_same_panels(walk, every)
            if k <= 10_000:
                assert len(sizes) == 1  # every edge at k <= 100, 13 at 1e4
            else:
                assert sum(sizes) <= 20
            if k <= 100:  # the middle panels and the tails that matter
                assert _GL_NODES * walk[0].size + _TAIL_NODES * len(walk[3]) <= 200
            else:  # the walk stops far inside the middle range
                assert walk[3] == []

    @pytest.mark.parametrize("c", [0.5, 1.0])
    @pytest.mark.parametrize("k", [10, 100])
    def test_dropped_tails_are_negligible(self, k, c):
        # EveryEdge gets both tail panels; the walk drops a tail only where
        # its bound puts the tail's mass e^50 below the mode's
        dropped = 0
        for j in range(16):
            data, prior = cli_pool_dataset(k, j), PriorSpec(c)
            ell = AdjustedLogDensity(data, prior)
            (alpha0, lo, hi), = _search_range(data.V, [ell.residual_ss()], data.k - data.r)
            center, _, d2 = _newton_alpha(ell.derivatives, alpha0, lo, hi)
            dropped += 2 - len(fitters._panels(ell, center, -d2)[3])
            B, v = quadrature_moments(ell, center, -d2)
            B_all, v_all = quadrature_moments(EveryEdge(data, prior), center, -d2)
            assert np.max(np.abs(B - B_all) / B) <= 1e-13
            assert np.max(np.abs(v - v_all) / v) <= 1e-11
        assert dropped > 0 if k == 100 else dropped == 0

    def test_walk_passes_a_second_mode(self, monkeypatch):
        # forty units with V = 1e-4 and residuals of 0.1 prefer A ~ 0.01, six
        # with V = 1e3 and residuals of 316 prefer A ~ 1e5: l has local maxima
        # near alpha = -4.6 and 9.4, 23 apart in height, and between them a
        # dip 129 below the lower one.  A walk that stopped at the first edge
        # more than 50 below its mode would miss the other mode, from either.
        V = np.array([1e-4] * 40 + [1e3] * 6)
        data = TwoLevelData(np.array([0.1, -0.1] * 20 + [math.sqrt(1e5)] * 6), V)
        ell = AdjustedLogDensity(data, PriorSpec(1.0))
        modes = [_newton_alpha(ell.derivatives, a, a - 3.0, a + 3.0)[0] for a in (-4.6, 9.4)]
        assert modes[1] - modes[0] > 5.0 and 0.0 < ell(modes[1]) - ell(modes[0]) < 50.0
        assert ell(4.3) < ell(modes[0]) - 2.0 * _SKIP_DROP
        monkeypatch.setattr(fitters, "BLOCK_ELEMENTS", data.k)  # one edge a block
        for center in (None, modes[0]):  # from the global mode, then the lower one
            walk, every, sizes = walk_and_every_edge(data, PriorSpec(1.0), center)
            assert_same_panels(walk, every)
            for mode in modes:  # the walk went past the dip to the other mode
                assert np.any((walk[0] <= mode) & (mode <= walk[1]))


def exact_fit_paths(data: TwoLevelData, prior: PriorSpec, monkeypatch):
    """The exact fit's (B_hat, v) with its node pass by power sums and by
    blocks (forced by a zero term cap), and what the first did: the J that power_sums
    returned (None when it declined) and the sizes of its on_nodes calls."""
    terms, sizes = [], []
    power_sums, on_nodes = AdjustedLogDensity.power_sums, AdjustedLogDensity.on_nodes

    def counted_sums(self, center, alphas):
        out = power_sums(self, center, alphas)
        terms.append(None if out is None else out.terms)
        return out

    def counted_nodes(self, alphas, parts=False):
        sizes.append(np.size(alphas))
        return on_nodes(self, alphas, parts)

    with monkeypatch.context() as patch:
        patch.setattr(AdjustedLogDensity, "power_sums", counted_sums)
        patch.setattr(AdjustedLogDensity, "on_nodes", counted_nodes)
        sums = _fit_exact(data, prior)[1:3]
    with monkeypatch.context() as patch:
        patch.setattr(density, "SERIES_TERMS", 0)
        blocks = _fit_exact(data, prior)[1:3]
    return sums, blocks, terms, sizes


def assert_close_to_blocks(sums, blocks):
    # bounds fixed before the first run; the worst seen is 1.4e-11 (B_hat)
    # and 1.4e-9 (v), at r = 3 with X beta offset by 1e6
    (B_sums, v_sums), (B, v) = sums, blocks
    assert np.max(np.abs(B_sums - B) / B) <= 1e-10
    assert np.max(np.abs(v_sums - v) / v) <= 1e-8


class TestPowerSums:
    """Near the mode quadrature_moments evaluates l and the moments of B at
    the kept nodes by power sums of W0 = 1/(V + A_hat); the block pass is
    the reference."""

    @pytest.mark.parametrize("c", [0.5, 1.0])
    @pytest.mark.parametrize("k, pool", [(10_000, 4), (100_000, 1)])
    def test_cli_pool(self, k, pool, c, monkeypatch):
        for j in range(pool):
            sums, blocks, terms, sizes = exact_fit_paths(
                cli_pool_dataset(k, j), PriorSpec(c), monkeypatch)
            assert_close_to_blocks(sums, blocks)
            assert terms[0] is not None  # the nodes made no on_nodes call
            assert sum(sizes) <= 20  # the edge walk's (of 91 or 93 edges)

    @pytest.mark.parametrize("decades, k, r, c", [
        (1, 20_000, 0, 1.0),  # known means offset by 1e6
        (0, 40_000, 1, 0.5),  # equal V, so c = 0.5 goes to the quadrature
        (1, 60_000, 3, 1.0),  # X beta offset by 1e6
    ])
    def test_designs(self, decades, k, r, c, monkeypatch):
        data, _ = hostile_design(decades, 0, k, r)
        sums, blocks, terms, _ = exact_fit_paths(data, PriorSpec(c), monkeypatch)
        assert terms[0] is not None
        assert_close_to_blocks(sums, blocks)

    @pytest.mark.parametrize("scale", [1e-9, 1e9])
    def test_scaled_cli_pool(self, scale, monkeypatch):
        # y times scale and V times scale^2 leave B as it is; A_hat near 1e18
        # or 1e-18 must not overflow or underflow the powers of delta or W0
        data = cli_pool_dataset(10_000, 0)
        scaled = TwoLevelData(data.y * scale, data.V * scale**2, data.X)
        sums, blocks, terms, _ = exact_fit_paths(scaled, PriorSpec(1.0), monkeypatch)
        assert terms[0] is not None
        assert_close_to_blocks(sums, blocks)

    @pytest.mark.parametrize("k", [10, 100])
    def test_small_k_keeps_the_block_pass(self, k, monkeypatch):
        for j in range(4):
            sums, blocks, terms, sizes = exact_fit_paths(
                cli_pool_dataset(k, j), PriorSpec(1.0), monkeypatch)
            # the edges' one call and the nodes' one call
            assert terms == [None] and len(sizes) == 2 and sizes[1] % fitters._GL_NODES == 0
            assert all(map(np.array_equal, sums, blocks))

    def test_pivot_test_raises_rank_deficient(self, monkeypatch):
        # _gls at the mode is let through without its pivot test, so that only
        # the series' own test on the X'D^-1 X it sums can raise
        data = nearly_collinear_data(k=20_000)
        gls = AdjustedLogDensity._gls

        def gls_without_pivot_test(self, W, out=None):
            with monkeypatch.context() as patch:
                patch.setattr(density, "PIVOT_REL", -1.0)
                return gls(self, W, out)

        monkeypatch.setattr(AdjustedLogDensity, "_gls", gls_without_pivot_test)
        ell = AdjustedLogDensity(data, PriorSpec(1.0))
        with pytest.raises(RankDeficientX):
            ell.power_sums(0.0, np.linspace(-0.05, 0.05, 12))


def adm_loss_ratio(data: TwoLevelData) -> float:
    """Acceptance criterion 4's measure for one dataset: the ADM random-effect
    estimates' squared distance from the exact ones over the exact posterior
    variances, sum (theta_adm - theta_exact)^2 / sum s2_exact (c = 1)."""
    prior = PriorSpec(c=1.0)
    exact = random_effects(data, fit(data, prior, FitMethod.EXACT))
    adm = random_effects(data, fit(data, prior, FitMethod.ADM))
    return float(np.sum((adm.theta_hat - exact.theta_hat) ** 2) / np.sum(exact.s2))


class TestAdmAgainstExact:
    """The paper's claim that ADM keeps its accuracy beyond equal variances,
    in criterion 4's measure.  The loss ratio varies with the draw: over 1000
    draws per design family the median was 0.0019 (two-group) and 0.0007
    (random) and 0.6% / 0.2% of draws exceeded 0.02, the worst 0.052.  So the
    bulk is held to 0.01 at the 95th percentile and the worst case to 0.06."""

    @staticmethod
    def _report(name, ratios, where):
        worst = int(np.argmax(ratios))
        p95 = float(np.quantile(ratios, 0.95))
        print(f"\n{name}: p95 loss ratio {p95:.4f}, worst {ratios[worst]:.4f} at {where[worst]}")
        assert p95 <= 0.01
        assert ratios[worst] <= 0.06

    def test_two_group_designs(self):
        rng = np.random.default_rng(5)
        V = np.array([0.55] * 5 + [5.5] * 5)
        ratios, where = [], []
        for _ in range(100):
            B0 = float(rng.uniform(0.01, 0.99))  # true shrinkage at V = 1
            y = rng.normal(0.0, np.sqrt(V + (1.0 - B0) / B0))
            ratios.append(adm_loss_ratio(TwoLevelData(y, V, np.ones((10, 1)))))
            where.append(f"B0={B0:.3f}")
        self._report("two-group", np.array(ratios), where)

    def test_random_unequal_variance_designs(self):
        rng = np.random.default_rng(5)
        ratios, where = [], []
        for _ in range(200):
            r = int(rng.integers(0, 3))
            k = int(rng.integers(5 + r, 40))
            V = 10.0 ** rng.uniform(-1.0, 1.0, k)
            A = 10.0 ** rng.uniform(-1.0, 1.0)
            X = None
            mean = np.zeros(k)
            if r >= 1:
                X = np.column_stack([np.ones(k)] + [rng.normal(size=k) for _ in range(r - 1)])
                mean = X @ rng.normal(0.0, 2.0, r)
            y = mean + rng.normal(0.0, np.sqrt(V + A))
            ratios.append(adm_loss_ratio(TwoLevelData(y, V, X)))
            where.append(f"k={k}, r={r}, A={A:.3g}")
        self._report("random unequal V", np.array(ratios), where)


class TestDispatcherAndInvariants:
    def test_dispatch_routes(self, fig1_data, two_group_data):
        prior = PriorSpec(c=1.0)
        assert fit(fig1_data, prior, FitMethod.ADM).method is FitMethod.ADM
        assert fit(two_group_data, prior, FitMethod.EXACT).method is FitMethod.EXACT
        # equal variances with c != 1 must route to quadrature and still work
        shr = fit(fig1_data, PriorSpec(c=0.5), FitMethod.EXACT)
        assert np.all((shr.B_hat > 0) & (shr.B_hat < 1))

    @pytest.mark.parametrize("method", list(FitMethod))
    def test_validate_runs_once_per_fit(self, method, fig1_data, two_group_data, monkeypatch):
        calls = []

        def counted(*args, validate=fitters.validate):
            calls.append(args[2])
            return validate(*args)

        monkeypatch.setattr(fitters, "validate", counted)
        for data in (fig1_data, two_group_data):  # equal and unequal V
            calls.clear()
            fit(data, PriorSpec(c=1.0), method)
            assert calls == [method]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_B_in_unit_interval_every_method(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(4, 15))
        V = rng.uniform(0.3, 4.0, k)
        y = rng.normal(0.0, 2.0, k)
        data = TwoLevelData(y, V)
        prior = PriorSpec(c=1.0)
        for method in FitMethod:
            shr = fit(data, prior, method)
            assert np.all(shr.B_hat >= 0.0) and np.all(shr.B_hat <= 1.0)
            assert np.all(shr.v >= 0.0)
            assert np.all(shr.v <= shr.B_hat * (1.0 - shr.B_hat) + 1e-15)
            if method is not FitMethod.EXACT and shr.A_hat > 0.0:
                # plug-in identity between the fitted variance and shrinkages
                np.testing.assert_allclose(
                    shr.B_hat, V / (V + shr.A_hat), rtol=1e-12
                )

    def test_B_increasing_in_V_at_fixed_A(self):
        rng = np.random.default_rng(37)
        V = np.sort(rng.uniform(0.2, 6.0, 8))
        y = rng.normal(0, 2.0, 8)
        _, B, _, _ = _fit_adm(TwoLevelData(y, V), PriorSpec())
        assert np.all(np.diff(B) > 0.0)



def assert_reports(shr: ShrinkagePosterior, method: FitMethod) -> None:
    """What `method` reports: inv_info and the Beta parameters a1 =
    inv_info/(1 - B), a0 = inv_info/B (bit for bit) for ADM only; v = 0 and
    the boundary flag, set exactly when A_hat == 0, for MLE and REML only."""
    assert shr.method is method
    if method is FitMethod.ADM:
        assert shr.inv_info > 0.0
        assert shr.a1.tobytes() == (shr.inv_info / (1.0 - shr.B_hat)).tobytes()
        assert shr.a0.tobytes() == (shr.inv_info / shr.B_hat).tobytes()
    else:
        assert shr.inv_info is None and shr.a1 is None and shr.a0 is None
    if method in (FitMethod.MLE, FitMethod.REML):
        assert np.all(shr.v == 0.0)
        assert shr.boundary == (shr.A_hat == 0.0)
    else:
        assert shr.boundary is False and shr.A_hat > 0.0 and np.all(shr.v > 0.0)


class TestWhatEachMethodReports:
    """fit builds every ShrinkagePosterior; each branch of its dispatch (the
    equal-variance closed forms, the Newton and quadrature fitters, MLE and
    REML at r = 0 and r >= 1) must report the same fields per method."""

    @pytest.mark.parametrize("method", list(FitMethod))
    @pytest.mark.parametrize("equal", [True, False])
    @pytest.mark.parametrize("r", [0, 1])
    def test_every_dispatch_branch(self, method, equal, r):
        rng = np.random.default_rng(43)
        k = 12
        V = np.full(k, 1.3) if equal else rng.uniform(0.3, 4.0, k)
        y = rng.normal(2.0 * r, np.sqrt(V + 2.0))
        data = TwoLevelData(y, V, np.ones((k, 1)) if r else None)
        assert data.equal_variances is equal
        assert_reports(fit(data, PriorSpec(c=1.0), method), method)

    def test_mle_on_the_boundary(self, fig1_data):
        shr = fit(fig1_data, PriorSpec(), FitMethod.MLE)
        assert shr.A_hat == 0.0 and shr.boundary is True
        assert_reports(shr, FitMethod.MLE)


class TestEqualVarianceMoments:
    """equal_variance_moments over a list of T gives each T the bits of a
    one-T call and of adm_moments_equal or exact_moments_equal alone."""

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("method", [FitMethod.ADM, FitMethod.EXACT])
    def test_batch_invariant(self, method, c):
        m = 4.0  # T = 500 lies past the exact mixture's top, about 65 here
        T = [3.0, 0.0, 0.25, 4.9, 17.5, 60.0, 500.0]
        batch = equal_variance_moments(method, T, m, c)
        assert len(batch) == 3 and (batch[2] is None) is (method is FitMethod.EXACT)
        for i, t in enumerate(T):
            one = equal_variance_moments(method, [t], m, c)
            alone = (adm_moments_equal(t, m, c) if method is FitMethod.ADM
                     else (*exact_moments_equal(t, m, c), None))
            for many, single, scalar in zip(batch, one, alone):
                if many is None:
                    assert single is None and scalar is None
                    continue
                assert many[i].tobytes() == single[0].tobytes() == np.float64(scalar).tobytes()


def nearly_collinear_data(k: int = 30, s: float = 1e-8, seed: int = 41) -> TwoLevelData:
    """X = [1, x, x + s e] with V over one decade.  At s = 1e-8 (condition
    number ~1e8) X is full rank to the pivoted-QR test, but X'D^-1 X is not
    numerically positive definite."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=k)
    X = np.column_stack([np.ones(k), x, x + s * rng.normal(size=k)])
    V = 10.0 ** rng.uniform(-0.5, 0.5, k)
    return TwoLevelData(rng.normal(size=k), V, X)


@pytest.mark.parametrize("method", list(FitMethod))
def test_nearly_collinear_X_raises_rank_deficient(method):
    with pytest.raises(RankDeficientX):
        fit(nearly_collinear_data(), PriorSpec(), method)


def rank_verdicts(data: TwoLevelData) -> list[str]:
    """Per method: "fit" when the fit and its random effects run, else the
    name of the named error or bare LinAlgError raised."""
    verdicts = []
    for method in FitMethod:
        try:
            random_effects(data, fit(data, PriorSpec(), method))
            verdicts.append("fit")
        except (ShrinkfitError, np.linalg.LinAlgError) as err:
            verdicts.append(type(err).__name__)
    return verdicts


@pytest.mark.parametrize("seed", range(5))
class TestRankVerdict:
    # the squared Cholesky pivot of the third column over its diagonal entry
    # is about s^2: ~1e-12 at s = 1e-6, ~1e-15 at 3e-8, ~1e-16 at 1e-8
    def test_separated_columns_fit(self, seed):
        assert rank_verdicts(nearly_collinear_data(s=1e-6, seed=seed)) == ["fit"] * 4

    def test_collinear_columns_raise(self, seed):
        verdicts = rank_verdicts(nearly_collinear_data(s=1e-8, seed=seed))
        assert verdicts == ["RankDeficientX"] * 4

    def test_collinear_columns_raise_with_equal_variances(self, seed):
        # the equal-variance closed forms take T from the same kernel, so the
        # fit itself raises under every method, not only random_effects after it
        data = nearly_collinear_data(s=1e-8, seed=seed)
        equal = TwoLevelData(data.y, np.ones(data.k), data.X)
        for method in FitMethod:
            with pytest.raises(RankDeficientX):
                fit(equal, PriorSpec(), method)

    def test_borderline_columns_get_one_verdict(self, seed):
        verdicts = rank_verdicts(nearly_collinear_data(s=3e-8, seed=seed))
        assert len(set(verdicts)) == 1 and verdicts[0] in ("fit", "RankDeficientX")


def test_random_effects_rejects_nearly_collinear_X():
    data = nearly_collinear_data()
    for A in (0.0, 1.0, 100.0):
        with pytest.raises(RankDeficientX):
            beta_and_projection_diag(A, data)
        shr = ShrinkagePosterior(A_hat=A, B_hat=data.V / (data.V + A), v=np.zeros(data.k))
        with pytest.raises(RankDeficientX):
            random_effects(data, shr)


@pytest.mark.parametrize("method", list(FitMethod))
def test_known_mu_with_regression_rejected(method):
    # known means and an estimated regression contradict each other, for
    # every method alike: the data carrying both cannot be built, so no fit
    # under any method sees it
    rng = np.random.default_rng(43)
    y, V = rng.normal(0.0, 2.0, 8), rng.uniform(0.5, 2.0, 8)
    with pytest.raises(ValueError, match="known means mu are only meaningful when r = 0"):
        fit(TwoLevelData(y, V, np.ones((8, 1)), np.zeros(8)), PriorSpec(1.0), method)
    # the same known means without covariates fit under this method
    assert fit(TwoLevelData(y, V, mu=np.zeros(8)), PriorSpec(1.0), method).B_hat.shape == (8,)
