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
    _, L, beta, resid = _gls_fit(data, D)
    logdet_M = 2.0 * float(np.log(np.diag(L)).sum())
    quad = float(np.sum(resid * resid / D))
    return logdet_D, beta, resid, quad, logdet_M


def _gls_fit(data: TwoLevelData, D: np.ndarray):
    """D^-1 X, the Cholesky factor L of X'D^-1 X, beta_hat and the residuals
    y - X beta_hat of the weighted regression with D = diag(V_i + A)."""
    Xw, L = _normal_cholesky(data.X, D)
    beta = cho_solve((L, True), Xw.T @ data.y)
    return Xw, L, beta, data.y - data.X @ beta


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

    def derivatives(self, alpha: float) -> tuple[float, float]:
        """(l'(alpha), l''(alpha)) in closed form.

        With D = diag(V_i + A), e the weighted-regression residual (y - mu
        when r = 0), u = D^-1 e and P = D^-1 - D^-1 X M^-1 X'D^-1 for
        M = X'D^-1 X (P = D^-1 when r = 0):

            l'  = c + A (u'u - tr P) / 2
            l'' = A (u'u - tr P) / 2 + A^2 (tr P^2 / 2 - u'P u).

        P is never formed: its traces and u'P u come from r-by-r solves on
        the Cholesky factor of M.
        """
        data = self.data
        A = math.exp(alpha)
        D = data.V + A
        Dinv = 1.0 / D
        tr_P = float(Dinv.sum())
        tr_P2 = float(Dinv @ Dinv)
        if data.r == 0:
            u = (data.y - level2_means(data, self.prior.known_mu)) * Dinv
            uPu = float(u @ (u * Dinv))
        else:
            Xw, L, _, resid = _gls_fit(data, D)
            u = resid * Dinv
            S2 = cho_solve((L, True), Xw.T @ Xw)  # M^-1 X'D^-2 X
            S3 = cho_solve((L, True), Xw.T @ (Xw * Dinv[:, None]))  # M^-1 X'D^-3 X
            Xu = Xw.T @ u
            tr_P -= float(np.trace(S2))
            tr_P2 += float(np.sum(S2 * S2.T)) - 2.0 * float(np.trace(S3))
            uPu = float(u @ (u * Dinv)) - float(Xu @ cho_solve((L, True), Xu))
        g = 0.5 * (float(u @ u) - tr_P)
        return self.prior.c + A * g, A * g + A * A * (0.5 * tr_P2 - uPu)


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
