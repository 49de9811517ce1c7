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
from shrinkfit.model import matrix_rank_pivoted


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
