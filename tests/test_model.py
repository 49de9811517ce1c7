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
    fit,
    validate,
)
from shrinkfit.density import residual_ss


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
    with pytest.raises(RankDeficientX):
        TwoLevelData(np.arange(12.0), np.ones(12), np.column_stack([base, base * (1.0 + 1e-14)]))
    X_ok = np.column_stack([base, rng.normal(size=(12, 1))])
    assert TwoLevelData(np.arange(12.0), np.ones(12), X_ok).r == 2


@pytest.mark.parametrize("scale", [1e-300, 1e-10, 1.0, 1e9, 1e10, 1e155, 1e300])
def test_rank_verdict_does_not_depend_on_column_scale(scale):
    # the pivot test compares each squared pivot with its own diagonal
    # entry, so a full-rank [1, x] is accepted at any scale at which X'X
    # holds x^2; at 1e-300 x^2 underflows to 0, and at 1e155 and 1e300 it
    # overflows (which, like any RuntimeWarning, the test configuration
    # turns into an error), and [1, x] is rejected
    x = np.arange(1.0, 6.0) * scale
    X = np.column_stack([np.ones(5), x])
    if 1e-10 <= scale <= 1e10:
        assert TwoLevelData(np.arange(5.0), np.ones(5), X).r == 2
    else:
        with pytest.raises(RankDeficientX):
            TwoLevelData(np.arange(5.0), np.ones(5), X)
    # and a collinear pair is rejected at any scale
    with pytest.raises(RankDeficientX):
        TwoLevelData(np.arange(5.0), np.ones(5), np.column_stack([x, 3.0 * x]))


def test_rank_verdicts_kept_for_zero_and_nearly_collinear_columns():
    for X in (np.column_stack([np.ones(6), np.zeros(6)]), np.zeros((6, 2))):
        with pytest.raises(RankDeficientX):
            TwoLevelData(np.arange(6.0), np.ones(6), X)
    # X = [1, x, x + 1e-8 e] is rejected when the data is built, not at fit time
    from test_fitters import nearly_collinear_arrays

    for seed in range(5):
        with pytest.raises(RankDeficientX):
            TwoLevelData(*nearly_collinear_arrays(s=1e-8, seed=seed))


def rank_test_designs(n: int = 3000) -> list[np.ndarray]:
    """Seeded designs for the rank-verdict test: k from 3 to 60 and r from 1
    to 6 (wide ones included), each column scaled by 10^U(-8, 8).  Every
    third design has a last column equal to a multiple of its first plus
    noise of relative size eps = 10^U(-14, -6), which straddles both rank
    tolerances; every third, one or more all-zero columns."""
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


def test_rank_verdict_is_never_looser_than_scipy_pivoted_qr():
    # scipy.linalg.qr(pivoting=True) (LAPACK dgeqp3) on the column-scaled X,
    # counting a pivot above 1e-10 |R_11|, resolves finer than the Cholesky
    # pivot test of X'X: every design it rejects must be rejected when the
    # data is built, and every design that builds must give residual_ss
    # and, at equal variances (where ADM takes T from residual_ss), an ADM fit
    from scipy import linalg as sla
    from test_fitters import HOSTILE_DESIGNS, hostile_design

    designs = rank_test_designs()
    designs += [hostile_design(*d)[0].X for d in HOSTILE_DESIGNS if d[3] >= 1]
    for s, j in np.ndindex(2, 5):  # X = [1, x, x + s e] at s = 1e-8 and 1e-12
        x, e = np.random.default_rng(j).normal(size=(2, 30))
        designs.append(np.column_stack([np.ones(30), x, x + 10.0 ** (-8 - 4 * s) * e]))
    rng = np.random.default_rng(20261022)
    built = []
    for X in designs:
        k, r = X.shape
        scale = np.abs(X).max(axis=0)
        R = sla.qr(X / np.where(scale > 0.0, scale, 1.0), mode="economic", pivoting=True)[1]
        pivots = np.abs(np.diag(R))
        qr_full_rank = r <= k and bool((pivots > 1e-10 * pivots[0]).all())
        try:
            data = TwoLevelData(rng.standard_normal(k), np.ones(k), X)
        except RankDeficientX:
            built.append(False)
            continue
        assert qr_full_rank
        assert np.isfinite(residual_ss(data))
        if k - r > 2:
            assert fit(data, PriorSpec(), FitMethod.ADM).B_hat.shape == (k,)
        built.append(True)
    # both verdicts occur: zero columns, and eps or s below the tolerance
    assert 0 < built.count(False) < len(built)


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
