"""Likelihoods and marginal/adjusted log-densities of the Level-2 variance.

Everything is parameterized by alpha = log(A); the adjusted density is the
posterior density of alpha itself, since the Jacobian dA = exp(alpha) dalpha
contributes exactly the A-multiplier that makes an argmax approximate the
posterior mean of each shrinkage factor rather than its mode.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_solve

from .model import PriorSpec, RankDeficientX, TwoLevelData, level2_means


class NonconcaveAtMax(Exception):
    """The adjusted log-density has nonpositive curvature at the reported
    maximizer, so no Beta approximation can be formed."""


def _normal_cholesky(X: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D^-1 X and the lower Cholesky factor of X'D^-1 X.

    Raises RankDeficientX when X'D^-1 X is not numerically positive definite:
    nearly collinear columns can pass validate's rank test and still fail
    here.
    """
    Xw = X / D[:, None]
    try:
        return Xw, np.linalg.cholesky(X.T @ Xw)
    except np.linalg.LinAlgError as err:
        raise RankDeficientX(
            "X'D^-1 X is not numerically positive definite: "
            "the columns of X are nearly collinear"
        ) from err


def _gls_parts(data: TwoLevelData, A: float):
    """Weighted-regression quantities at a fixed Level-2 variance A.

    Returns (log|D|, beta_hat_A, residuals, quadratic form, log|X'D^-1 X|)
    with D = diag(V_i + A); the last two regression terms are 0/empty when
    r = 0 (callers then subtract known means themselves).
    """
    D = data.V + A
    logdet_D = float(np.log(D).sum())
    if data.r == 0:
        return logdet_D, np.empty(0), data.y, 0.0, 0.0
    Xw, L = _normal_cholesky(data.X, D)
    logdet_M = 2.0 * float(np.log(np.diag(L)).sum())
    beta = cho_solve((L, True), Xw.T @ data.y)
    resid = data.y - data.X @ beta
    quad = float(np.sum(resid * resid / D))
    return logdet_D, beta, resid, quad, logdet_M


def loglik_L0(A: float, data: TwoLevelData, known_mu: np.ndarray | None = None) -> float:
    """Log-likelihood of A when the Level-2 means are known (r = 0)."""
    if data.r != 0:
        raise ValueError("loglik_L0 requires r = 0")
    if A < 0.0:
        raise ValueError("A must be nonnegative")
    resid = data.y - level2_means(data, known_mu)
    D = data.V + A
    return -0.5 * float(np.sum(np.log(D) + resid * resid / D))


def beta_hat_A(A: float, data: TwoLevelData) -> np.ndarray:
    """Weighted least squares coefficient at variance A,
    (X'D^-1 X)^-1 X'D^-1 y with D = diag(V_i + A)."""
    if data.r < 1:
        raise ValueError("beta_hat_A requires r >= 1")
    _, beta, _, _, _ = _gls_parts(data, A)
    return beta


def projection_diag(A: float, data: TwoLevelData) -> np.ndarray:
    """Diagonal p_ii of the projection matrix, without forming the k-by-k
    matrix."""
    if data.r < 1:
        raise ValueError("projection_diag requires r >= 1")
    D = data.V + A
    _, L = _normal_cholesky(data.X, D)
    Z = cho_solve((L, True), data.X.T)
    return np.einsum("ij,ji->i", data.X, Z) / D


def residual_ss(data: TwoLevelData, known_mu: np.ndarray | None = None) -> float:
    """Sum of squared residuals after removing the Level-2 mean structure:
    ordinary least squares on X when r >= 1, centering at the known means
    otherwise.  For equal variances this is the sufficient statistic."""
    if data.r == 0:
        resid = data.y - level2_means(data, known_mu)
    else:
        beta, *_ = np.linalg.lstsq(data.X, data.y, rcond=None)
        resid = data.y - data.X @ beta
    return float(resid @ resid)


class AdjustedLogDensity:
    """The adjusted log-density l(alpha) of alpha = log A for the prior
    A^(c-1):

        l(alpha) = c*alpha - (1/2) sum log(V_i + A)
                   - (1/2) log|X'D^-1 X| - (1/2) (y - X beta_A)' D^-1 (y - X beta_A),

    that is c*alpha plus the REML objective, with the regression terms absent
    for r = 0 (residuals are then taken to the known means).  The same object
    serves every r, so one optimizer drives all fitters.
    """

    def __init__(self, data: TwoLevelData, prior: PriorSpec):
        self.data = data
        self.prior = prior

    def __call__(self, alpha: float) -> float:
        return self.prior.c * alpha + restricted_loglik(
            math.exp(alpha), self.data, self.prior.known_mu
        )


def _fd_second_derivative(f, x: float, h: float) -> float:
    """Central 5-point finite-difference second derivative."""
    return (
        -f(x + 2.0 * h) + 16.0 * f(x + h) - 30.0 * f(x) + 16.0 * f(x - h) - f(x - 2.0 * h)
    ) / (12.0 * h * h)


def invariant_info_equal_variance(
    alpha: float, data: TwoLevelData, prior: PriorSpec
) -> float:
    """-d^2 l / d alpha^2 in closed form for equal variances (any r, any c):

        (m+1) B(1-B) + T B(1-B)(1-2B),   B = V/(V+A),

    with m = (k-r-2)/2 and T the residual sum of squares over 2V.  At a
    stationary point this reduces to m(1-B)^2 + B^2 + (1-c)(1-2B)."""
    if not data.equal_variances:
        raise ValueError("equal variances required")
    V = float(data.V[0])
    A = math.exp(alpha)
    B = V / (V + A)
    m = 0.5 * (data.k - data.r - 2.0)
    T = residual_ss(data, prior.known_mu) / (2.0 * V)
    return (m + 1.0) * B * (1.0 - B) + T * B * (1.0 - B) * (1.0 - 2.0 * B)


def adjusted_logdensity_d2(
    alpha_hat: float, data: TwoLevelData, prior: PriorSpec
) -> float:
    """Invariant information -l''(alpha_hat) at a stationary point of the
    adjusted log-density.

    Closed form for equal variances; central finite differences otherwise.
    The log-density is O(k), not O(1), so the stencil uses h = 1e-3 (scaled
    by |alpha_hat|): roundoff then sits near 1e-8 while truncation stays
    below 1e-10.  Raises NonconcaveAtMax when the result is not positive.
    """
    if data.equal_variances:
        info = invariant_info_equal_variance(alpha_hat, data, prior)
    else:
        ell = AdjustedLogDensity(data, prior)
        h = 1e-3 * max(1.0, abs(alpha_hat))
        info = -_fd_second_derivative(ell, alpha_hat, h)
    if not info > 0.0:
        raise NonconcaveAtMax(
            f"adjusted log-density is not concave at alpha={alpha_hat} (info={info})"
        )
    return info


def profile_loglik(A: float, data: TwoLevelData) -> float:
    """Profile log-likelihood of A with beta maximized out (r >= 1)."""
    if data.r < 1:
        raise ValueError("profile_loglik requires r >= 1; use loglik_L0")
    logdet_D, _, _, quad, _ = _gls_parts(data, A)
    return -0.5 * (logdet_D + quad)


def restricted_loglik(
    A: float, data: TwoLevelData, known_mu: np.ndarray | None = None
) -> float:
    """REML objective: the marginal log-density of A after integrating beta
    against a flat prior (no A-adjustment, flat prior on A).  Coincides with
    loglik_L0 when r = 0."""
    if data.r == 0:
        return loglik_L0(A, data, known_mu)
    logdet_D, _, _, quad, logdet_M = _gls_parts(data, A)
    return -0.5 * (logdet_D + logdet_M + quad)
