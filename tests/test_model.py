import numpy as np
import pytest

from shrinkfit import (
    FitMethod,
    NonpositiveC,
    NonpositiveVariance,
    PriorSpec,
    RankDeficientX,
    TooFewUnits,
    TwoLevelData,
    validate,
)
from shrinkfit.model import matrix_rank_pivoted, pivoted_r_diag


def test_named_errors_share_one_base():
    from shrinkfit import (
        ModelError,
        NonconcaveAtMax,
        NonintegrablePosterior,
        OptimizerNoBracket,
        ShrinkfitError,
    )
    from shrinkfit.cli import CliInputError

    for cls in (ModelError, RankDeficientX, TooFewUnits, NonpositiveVariance, NonpositiveC,
                NonconcaveAtMax, NonintegrablePosterior, OptimizerNoBracket, CliInputError):
        assert issubclass(cls, ShrinkfitError)
    assert not issubclass(ShrinkfitError, ValueError)


def test_valid_dataset_passes():
    data = TwoLevelData(np.arange(10.0), np.full(10, 2.0))
    for method in FitMethod:
        validate(data, PriorSpec(), method)


def test_adm_needs_k_at_least_r_plus_3_for_c1():
    data = TwoLevelData([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], np.ones((3, 1)))
    with pytest.raises(TooFewUnits):
        validate(data, PriorSpec(c=1.0), FitMethod.ADM)
    # MLE/REML only need k >= r + 1
    validate(data, PriorSpec(c=1.0), FitMethod.MLE)
    validate(data, PriorSpec(c=1.0), FitMethod.REML)


def test_propriety_rule_scales_with_c():
    data = TwoLevelData([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], np.ones((3, 1)))
    # k - r = 2 > 2c for c = 0.5 fails (2 > 1 is fine): c=0.5 passes
    validate(data, PriorSpec(c=0.5), FitMethod.ADM)
    with pytest.raises(TooFewUnits):
        validate(data, PriorSpec(c=1.5), FitMethod.ADM)


def test_c_zero_rejected():
    data = TwoLevelData(np.arange(10.0), np.ones(10))
    with pytest.raises(NonpositiveC):
        validate(data, PriorSpec(c=0.0), FitMethod.ADM)
    with pytest.raises(NonpositiveC):
        validate(data, PriorSpec(c=-1.0), FitMethod.EXACT)


def test_nonpositive_variance_rejected():
    # a data error: raised when the data is built, before any fit
    for V in ([1.0, 0.0], [1.0, -2.0], [1.0, np.nan], [1.0, np.inf]):
        with pytest.raises(NonpositiveVariance):
            TwoLevelData([1.0, 2.0], V)


def test_nonfinite_y_and_X_rejected():
    with pytest.raises(ValueError, match="y contains non-finite"):
        TwoLevelData([1.0, np.nan, 3.0], np.ones(3))
    X = np.column_stack([np.ones(4), [0.0, 1.0, np.inf, 2.0]])
    with pytest.raises(ValueError, match="X contains non-finite"):
        TwoLevelData(np.arange(4.0), np.ones(4), X)


def test_rank_deficient_X_rejected():
    X = np.column_stack([np.ones(8), np.ones(8) * 3.0])  # collinear
    with pytest.raises(RankDeficientX):
        TwoLevelData(np.arange(8.0), np.ones(8), X)


def test_rank_tolerance_is_scale_aware():
    rng = np.random.default_rng(0)
    base = rng.normal(size=(12, 1))
    # second column differs from the first by far less than the tolerance
    X = np.column_stack([base, base * (1.0 + 1e-14)])
    assert matrix_rank_pivoted(X) == 1
    X_ok = np.column_stack([base, rng.normal(size=(12, 1))])
    assert matrix_rank_pivoted(X_ok) == 2


@pytest.mark.parametrize("scale", [1e-300, 1e-10, 1.0, 1e9, 1e10, 1e155, 1e300])
def test_rank_verdict_does_not_depend_on_column_scale(scale):
    # a full-rank [1, x] stays full rank however x is scaled; entries past
    # 1.34e154 would overflow a sum of squares (a RuntimeWarning, which the
    # test configuration turns into an error)
    x = np.arange(1.0, 6.0) * scale
    assert matrix_rank_pivoted(np.column_stack([np.ones(5), x])) == 2
    assert TwoLevelData(np.arange(5.0), np.ones(5), np.column_stack([np.ones(5), x])).r == 2
    # and a collinear pair stays collinear at any scale
    assert matrix_rank_pivoted(np.column_stack([x, 3.0 * x])) == 1


def test_rank_verdicts_kept_for_zero_and_nearly_collinear_columns():
    assert matrix_rank_pivoted(np.column_stack([np.ones(6), np.zeros(6)])) == 1
    assert matrix_rank_pivoted(np.zeros((6, 2))) == 0
    with pytest.raises(RankDeficientX):
        TwoLevelData(np.arange(6.0), np.ones(6), np.column_stack([np.ones(6), np.zeros(6)]))
    # X = [1, x, x + 1e-8 e] passes this test; the GLS kernel's pivot test
    # rejects it at fit time
    from test_fitters import nearly_collinear_data

    for seed in range(5):
        assert nearly_collinear_data(s=1e-8, seed=seed).r == 3


def rank_test_designs(n: int = 3000) -> list[np.ndarray]:
    """Seeded designs for the pivoted-QR equivalence test: k from 3 to 60
    and r from 1 to 6 (wide ones included), each column scaled by 10^U(-8, 8).
    Every third design has a last column equal to a multiple of its first
    plus noise of relative size eps = 10^U(-14, -6), which straddles the
    1e-10 rank tolerance; every third, one or more all-zero columns."""
    rng = np.random.default_rng(20261020)
    designs = []
    for i in range(n):
        k, r = int(rng.integers(3, 61)), int(rng.integers(1, 7))
        X = rng.standard_normal((k, r)) * 10.0 ** rng.uniform(-8.0, 8.0, r)
        if i % 3 == 1 and r >= 2:
            multiple = rng.uniform(-1e3, 1e3)
            eps = 10.0 ** rng.uniform(-14.0, -6.0)
            X[:, -1] = multiple * (X[:, 0] + eps * np.abs(X[:, 0]).max() * rng.standard_normal(k))
        elif i % 3 == 2:
            X[:, rng.choice(r, size=int(rng.integers(1, r + 1)), replace=False)] = 0.0
        designs.append(X)
    return designs


def test_rank_verdicts_and_pivots_match_scipy_pivoted_qr():
    # the test the rank check made with scipy.linalg.qr(pivoting=True)
    # (LAPACK dgeqp3) on the column-scaled X; |R_jj| may differ by rounding,
    # at most 1e-13 |R_11| (about 4e-16 |R_11| is seen on the random columns)
    from scipy import linalg as sla
    from test_fitters import HOSTILE_DESIGNS, hostile_design

    designs = rank_test_designs()
    designs += [hostile_design(*d)[0].X for d in HOSTILE_DESIGNS if d[3] >= 1]
    for s, j in np.ndindex(2, 5):  # X = [1, x, x + s e] at s = 1e-8 (full rank) and 1e-12
        x, e = np.random.default_rng(j).normal(size=(2, 30))
        designs.append(np.column_stack([np.ones(30), x, x + 10.0 ** (-8 - 4 * s) * e]))
    verdicts = []
    for X in designs:
        scale = np.abs(X).max(axis=0)
        scaled = X / np.where(scale > 0.0, scale, 1.0)
        want = np.abs(np.diag(sla.qr(scaled, mode="economic", pivoting=True)[1]))
        got = np.array(pivoted_r_diag(X))
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * want[0])
        verdict = int((want > 1e-10 * want[0]).sum())
        assert matrix_rank_pivoted(X) == verdict
        verdicts.append(verdict == min(X.shape))
    # both verdicts occur: zero columns, and eps or s below the tolerance
    assert 0 < verdicts.count(False) < len(verdicts)


def test_known_mu_rules():
    # known means: zeros by default, one finite entry per unit, r = 0 only
    np.testing.assert_array_equal(TwoLevelData(np.arange(6.0), np.ones(6)).mu, np.zeros(6))
    data = TwoLevelData(np.arange(6.0), np.ones(6), mu=[1, 2, 3, 4, 5, 6])
    np.testing.assert_array_equal(data.mu, np.arange(1.0, 7.0))
    assert data.mu.dtype == float and not data.mu.flags.writeable
    for mu, message in (
        (np.ones(4), "mu has shape"),
        (np.ones((6, 1)), "mu has shape"),
        ([0.0, 1.0, np.nan, 0.0, 0.0, 0.0], "mu contains non-finite"),
        ([0.0, 1.0, -np.inf, 0.0, 0.0, 0.0], "mu contains non-finite"),
    ):
        with pytest.raises(ValueError, match=message):
            TwoLevelData(np.arange(6.0), np.ones(6), mu=mu)
    assert TwoLevelData(np.arange(6.0), np.ones(6), np.ones((6, 1))).mu is None


def test_mu_with_covariates_rejected():
    # known means and an estimated regression contradict each other; the
    # check is on the data, so it holds for every method alike
    rng = np.random.default_rng(43)
    with pytest.raises(ValueError, match="known means mu are only meaningful when r = 0"):
        TwoLevelData(
            rng.normal(0.0, 2.0, 8), rng.uniform(0.5, 2.0, 8), np.ones((8, 1)), np.zeros(8)
        )


def test_validate_is_pure():
    data = TwoLevelData(np.arange(10.0), np.ones(10))
    prior = PriorSpec()
    y_before = data.y.copy()
    validate(data, prior, FitMethod.ADM)
    validate(data, prior, FitMethod.ADM)
    assert np.array_equal(data.y, y_before)


def test_arrays_are_readonly():
    data = TwoLevelData([1.0, 2.0, 3.0, 4.0], np.ones(4))
    with pytest.raises(ValueError):
        data.y[0] = 9.0
    with pytest.raises(AttributeError):
        data.y = np.zeros(4)  # type: ignore[misc]


def test_shape_checks():
    with pytest.raises(TooFewUnits):
        TwoLevelData([], [])
    with pytest.raises(ValueError):
        TwoLevelData([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        TwoLevelData([1.0, 2.0], [1.0, 1.0], np.ones((3, 1)))
    data = TwoLevelData([1.0, 2.0], [1.0, 2.0], [0.5, 0.5])
    assert data.X.shape == (2, 1)
    assert data.r == 1
    assert not data.equal_variances
