"""Domain types shared by all fitters, and input validation.

The value types are frozen dataclasses wrapping read-only numpy arrays, so
instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from numpy.linalg import _umath_linalg as _lapack

# X'D^-1 X counts as singular when a squared Cholesky pivot L_jj^2 is at most
# this fraction of its diagonal entry M_jj (about 1.1e-14)
PIVOT_REL = 50 * np.finfo(float).eps


class ShrinkfitError(Exception):
    """Base class of every named shrinkfit error."""


class ModelError(ShrinkfitError):
    """Base class for input-validation failures."""


class RankDeficientX(ModelError):
    pass


class TooFewUnits(ModelError):
    pass


class NonpositiveVariance(ModelError):
    pass


class NonpositiveC(ModelError):
    pass


class FitMethod(Enum):
    ADM = "adm"
    MLE = "mle"
    REML = "reml"
    EXACT = "exact"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _cholesky(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack of X'D^-1 X, (..., r, r), by
    _lapack.cholesky_lo, numpy's LAPACK gufunc (np.linalg.cholesky's bits
    without its ~4 us of Python).  The one rank test of X: raises
    RankDeficientX when some L_jj^2 <= PIVOT_REL * M_jj or the Cholesky
    fails (LAPACK then leaves L NaN; no RuntimeWarning is raised for it)."""
    with np.errstate(invalid="ignore"):
        L = _lapack.cholesky_lo(M)
    d = L.diagonal(0, -2, -1)
    if not all((d * d > PIVOT_REL * M.diagonal(0, -2, -1)).ravel().tolist()):
        raise RankDeficientX("X'D^-1 X is numerically singular: X is nearly collinear")
    return L


@dataclass(frozen=True)
class TwoLevelData:
    """Unit-level estimates y with known sampling variances V, and the
    Level-2 mean structure: either covariates X (a k-by-r matrix, the means
    X beta to be fitted) or, when r = 0, known means mu (zeros when not
    given).

    Every check that depends on the data alone runs here, so an instance
    is valid: at least one unit (TooFewUnits); y finite; V finite and
    positive (NonpositiveVariance); X finite, with X'X passing the pivot
    test of _cholesky, the one that every weighted regression of the data
    runs (RankDeficientX); mu finite, one entry per unit, and only when
    r = 0.  Other shape and value errors raise ValueError.  For r >= 1 the
    instance keeps the regression kernel's columns, built once here.
    """

    y: np.ndarray
    V: np.ndarray
    X: np.ndarray = field(default=None)  # type: ignore[assignment]
    mu: np.ndarray | None = None

    def __post_init__(self) -> None:
        y = _readonly(np.atleast_1d(self.y))
        V = _readonly(np.atleast_1d(self.V))
        if y.ndim != 1 or V.ndim != 1:
            raise ValueError("y and V must be one-dimensional")
        if y.shape != V.shape:
            raise ValueError(f"y has length {y.size} but V has length {V.size}")
        if y.size < 1:
            raise TooFewUnits("at least one unit is required")
        if not np.all(np.isfinite(y)):
            raise ValueError("y contains non-finite values")
        if not np.all(np.isfinite(V)):
            raise NonpositiveVariance("V contains non-finite values")
        if np.any(V <= 0.0):
            raise NonpositiveVariance("all Level-1 variances must be positive")
        if self.X is None:
            X = np.empty((y.size, 0))
        else:
            X = np.array(self.X, dtype=float)  # a copy, kept as the read-only X
            if X.ndim == 1:
                X = X[:, None]
            if X.shape[0] != y.size:
                raise ValueError(f"X has {X.shape[0]} rows for {y.size} units")
            if not np.all(np.isfinite(X)):
                raise ValueError("X contains non-finite values")
            if r := X.shape[1]:
                # the kernels' fixed inputs X' and [1, X (x) X, X y], built
                # row by row (products over a length-r inner axis are slow at
                # large k), held read-only as a (k, 1 + r^2 + r) view, and X
                # tested for rank on the product residual_ss forms from them
                XT = np.ascontiguousarray(X.T)
                cols = np.empty((1 + r * r + r, y.size))
                cols[0] = 1.0
                with np.errstate(over="ignore"):  # an inf in X'X fails the test
                    np.multiply(XT[:, None, :], XT[None, :, :],
                                out=cols[1 : r * r + 1].reshape(r, r, -1))
                    np.multiply(XT, y, out=cols[r * r + 1 :])
                G = np.ones((1, y.size)) @ cols.T[:, 1:]
                _cholesky(G[:, : r * r].reshape(-1, r, r))
                XT.setflags(write=False)
                cols.setflags(write=False)
                object.__setattr__(self, "_XT", XT)
                object.__setattr__(self, "_cols", cols.T)
        mu = None
        if X.shape[1] == 0:
            mu = _readonly(np.zeros(y.size) if self.mu is None else np.atleast_1d(self.mu))
            if mu.shape != y.shape:
                raise ValueError(f"mu has shape {mu.shape} for {y.size} units")
            if not np.all(np.isfinite(mu)):
                raise ValueError("mu contains non-finite values")
        elif self.mu is not None:
            raise ValueError("known means mu are only meaningful when r = 0")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "V", V)
        X.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "mu", mu)

    @property
    def k(self) -> int:
        return self.y.size

    @property
    def r(self) -> int:
        return self.X.shape[1]

    @property
    def equal_variances(self) -> bool:
        return bool(self.V.max() == self.V.min())


@dataclass(frozen=True)
class PriorSpec:
    """Scale-invariant prior on the Level-2 variance, density ~ A^(c-1).

    c = 1 is the flat prior on A (the harmonic prior on the random effects).
    The Level-2 means are part of the data (TwoLevelData.mu or X), not of
    the prior.  The density-adjustment machinery itself works for any
    smooth prior on the variance, but only this power family is exposed
    here; generalizing means swapping the c*log(A) term of the adjusted
    log-density for log(A * pi(A)).
    """

    c: float = 1.0


@dataclass(frozen=True)
class ShrinkagePosterior:
    """Fitted Level-2 variance with per-unit shrinkage moments.

    B_hat and v approximate (or, for the exact methods, equal) the posterior
    mean and variance of each shrinkage factor.  inv_info and the per-unit
    Beta parameters (a1, a0) are populated by the ADM fitters only; the
    plug-in methods (MLE, REML) report v = 0 and may sit on the A = 0
    boundary.
    """

    A_hat: float
    B_hat: np.ndarray
    v: np.ndarray
    inv_info: float | None = None
    a1: np.ndarray | None = None
    a0: np.ndarray | None = None
    boundary: bool = False
    method: FitMethod | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "B_hat", _readonly(self.B_hat))
        object.__setattr__(self, "v", _readonly(self.v))
        if self.a1 is not None:
            object.__setattr__(self, "a1", _readonly(self.a1))
        if self.a0 is not None:
            object.__setattr__(self, "a0", _readonly(self.a0))


@dataclass(frozen=True)
class RandomEffectPosterior:
    """Posterior means and variances of the random effects with Normal
    interval endpoints theta_hat +- z_star * sqrt(s2)."""

    theta_hat: np.ndarray
    s2: np.ndarray
    beta_hat: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    z_star: float

    def __post_init__(self) -> None:
        for name in ("theta_hat", "s2", "beta_hat", "lo", "hi"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


def check_c(c: float) -> None:
    """Raise NonpositiveC unless the prior exponent c is finite and positive."""
    if not 0.0 < c < np.inf:
        raise NonpositiveC(
            f"prior exponent c must be finite and positive, got {c} "
            "(c = 0 forces 100% shrinkage regardless of the data)"
        )


def validate(data: TwoLevelData, prior: PriorSpec, method: FitMethod) -> None:
    """Check that the prior and the unit count admit the requested fit;
    raise otherwise.  The data itself was checked when it was constructed.

    The improper prior A^(c-1) yields a proper posterior only when
    k - r > 2c (for c = 1 this is the usual k >= r + 3), so the ADM and
    exact fitters require it.  MLE/REML only need a positive residual
    dimension, k >= r + 1.
    """
    if not isinstance(method, FitMethod):
        raise TypeError(f"method must be a FitMethod, got {method!r}")
    check_c(prior.c)
    if method in (FitMethod.ADM, FitMethod.EXACT):
        if data.k - data.r <= 2.0 * prior.c:
            raise TooFewUnits(
                f"k - r must exceed 2c for a proper posterior; "
                f"got k={data.k}, r={data.r}, c={prior.c}"
            )
    else:
        if data.k < data.r + 1:
            raise TooFewUnits(f"k >= r + 1 required; got k={data.k}, r={data.r}")
