"""The log-density family of the Level-2 variance.

Everything is parameterized by alpha = log(A).  ADM, MLE, REML and exact
Bayes all maximize (or integrate) one family

    l(alpha) = c*alpha - (1/2) [log|D| + s log|X'D^-1 X| + e'D^-1 e],

with D = diag(V_i + A) and e the weighted-regression residual (y - mu when
r = 0), where (c, s) is (0, 0) for MLE, (0, 1) for REML and (prior c, 1) for
ADM and exact Bayes.  For c > 0 it is the posterior density of alpha itself
under the prior A^(c-1): the Jacobian dA = exp(alpha) dalpha contributes
exactly the A-multiplier that makes an argmax approximate the posterior mean
of each shrinkage factor rather than its mode.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_solve

from .model import PriorSpec, RankDeficientX, TwoLevelData


# Elements of one (nodes, k) array in a block pass over quadrature nodes:
# 1 MB of floats, so a pass's few arrays stay in a 2 MB L2 cache
BLOCK_ELEMENTS = 1 << 17


class NonconcaveAtMax(Exception):
    """The adjusted log-density has nonpositive curvature at the reported
    maximizer, so no Beta approximation can be formed."""


def _gls_fit(data: TwoLevelData, D: np.ndarray):
    """D^-1 X, the lower Cholesky factor L of X'D^-1 X, beta_hat and the
    residuals y - X beta_hat of the weighted regression with D = diag(V_i + A).

    Raises RankDeficientX when X'D^-1 X is not numerically positive definite:
    nearly collinear columns can pass validate's rank test and still fail
    here.
    """
    Xw = data.X / D[:, None]
    try:
        L = np.linalg.cholesky(data.X.T @ Xw)
    except np.linalg.LinAlgError as err:
        raise RankDeficientX(
            "X'D^-1 X is not numerically positive definite: "
            "the columns of X are nearly collinear"
        ) from err
    beta = cho_solve((L, True), Xw.T @ data.y)
    return Xw, L, beta, data.y - data.X @ beta


def beta_and_projection_diag(A: float, data: TwoLevelData) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least squares at variance A (r >= 1): the coefficient
    (X'D^-1 X)^-1 X'D^-1 y with D = diag(V_i + A), and the diagonal p_ii of
    the projection matrix, both from one Cholesky factor and without forming
    a k-by-k matrix."""
    if data.r < 1:
        raise ValueError("beta_and_projection_diag requires r >= 1")
    D = data.V + A
    _, L, beta, _ = _gls_fit(data, D)
    Z = cho_solve((L, True), data.X.T)
    return beta, np.einsum("ij,ji->i", data.X, Z) / D


def residual_ss(data: TwoLevelData) -> float:
    """Sum of squared residuals after removing the Level-2 mean structure:
    ordinary least squares on X when r >= 1, centering at the known means
    data.mu otherwise.  For equal variances this is the sufficient
    statistic."""
    if data.r == 0:
        resid = data.y - data.mu
    else:
        beta, *_ = np.linalg.lstsq(data.X, data.y, rcond=None)
        resid = data.y - data.X @ beta
    return float(resid @ resid)


class AdjustedLogDensity:
    """One member of the log-density family of alpha = log A:

        l(alpha) = c*alpha - (1/2) sum log(V_i + A)
                   - (s/2) log|X'D^-1 X| - (1/2) (y - X beta_A)' D^-1 (y - X beta_A),

    with c = prior.c and s = 1 when `restricted` (beta integrated out against
    a flat prior), s = 0 otherwise (beta maximized out).  ADM and exact Bayes
    use (prior c, 1), the posterior log-density of alpha under A^(c-1); REML
    is c = 0 and MLE is c = 0 with restricted=False.  For r = 0 the
    regression terms are absent, the residuals are taken to the known means
    and `restricted` makes no difference.  The same object serves every
    method and every r, so one optimizer drives all fitters.
    """

    def __init__(self, data: TwoLevelData, prior: PriorSpec, restricted: bool = True):
        self.data = data
        self.prior = prior
        self.restricted = restricted
        # r = 0: the residuals to the known means and their squares do not depend on A
        self._resid0 = data.y - data.mu if data.r == 0 else None
        self._e2 = self._resid0 * self._resid0 if data.r == 0 else None

    def __call__(self, alpha: float) -> float:
        data = self.data
        D = data.V + math.exp(alpha)
        if data.r == 0:
            total = float(np.add.reduce(np.log(D) + self._e2 / D))
        else:
            _, L, _, resid = _gls_fit(data, D)
            logdet_M = 2.0 * float(np.log(np.diag(L)).sum()) if self.restricted else 0.0
            total = float(np.log(D).sum()) + logdet_M + float(np.sum(resid * resid / D))
        return self.prior.c * alpha - 0.5 * total

    def on_nodes(self, alphas: np.ndarray) -> np.ndarray:
        """l at every alpha of a 1-d array, evaluated in blocks of nodes.

        A block of n nodes forms W = 1/(V + A) as an (n, k) array; for r >= 1
        X'D^-1 X and X'D^-1 y come from one product W @ [X (x) X, X y], the
        n r-by-r matrices are factored by one stacked Cholesky, and the
        residuals are taken as e = y - X beta (not y'D^-1 y - b'beta, which
        cancels when |y| is large).  Blocks hold about BLOCK_ELEMENTS
        elements.  Raises RankDeficientX when any X'D^-1 X is not
        numerically positive definite.
        """
        data = self.data
        k, r = data.k, data.r
        alphas = np.asarray(alphas, dtype=float).ravel()
        out = np.empty(alphas.size)
        if r >= 1:
            XX = (data.X[:, :, None] * data.X[:, None, :]).reshape(k, r * r)
            cross = np.column_stack([XX, data.X * data.y[:, None]])
            XT = np.ascontiguousarray(data.X.T)
        step = max(1, BLOCK_ELEMENTS // k)
        for start in range(0, alphas.size, step):
            a = alphas[start : start + step]
            D = np.add.outer(np.exp(a), data.V)
            W = 1.0 / D
            total = np.log(D, out=D).sum(axis=1)
            if r == 0:
                total += W @ self._e2
            else:
                G = W @ cross
                M = G[:, : r * r].reshape(-1, r, r)
                try:
                    L = np.linalg.cholesky(M)
                except np.linalg.LinAlgError as err:
                    raise RankDeficientX(
                        "X'D^-1 X is not numerically positive definite: "
                        "the columns of X are nearly collinear"
                    ) from err
                beta = np.linalg.solve(M, G[:, r * r :, None])[:, :, 0]
                resid = np.subtract(data.y, beta @ XT, out=D)
                total += np.einsum("nk,nk,nk->n", resid, resid, W)
                if self.restricted:
                    total += 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
            out[start : start + step] = self.prior.c * a - 0.5 * total
        return out

    def derivatives(self, alpha: float) -> tuple[float, float]:
        """(l'(alpha), l''(alpha)) in closed form.

        With D = diag(V_i + A), e the weighted-regression residual (y - mu
        when r = 0), u = D^-1 e and P = D^-1 - D^-1 X M^-1 X'D^-1 for
        M = X'D^-1 X (P = D^-1 when r = 0):

            l'  = c + A (u'u - tr P) / 2
            l'' = A (u'u - tr P) / 2 + A^2 (tr P^2 / 2 - u'P u).

        Unrestricted (MLE), the log|M| term is absent, so tr P and tr P^2
        become tr D^-1 and tr D^-2; u'P u keeps its correction, which comes
        from beta_A moving with A.  P is never formed: its traces and u'P u
        come from r-by-r solves on the Cholesky factor of M.
        """
        data = self.data
        A = math.exp(alpha)
        D = data.V + A
        Dinv = 1.0 / D
        tr_P = float(Dinv.sum())
        tr_P2 = float(Dinv @ Dinv)
        if data.r == 0:
            u = self._resid0 * Dinv
            uPu = float(u @ (u * Dinv))
        else:
            Xw, L, _, resid = _gls_fit(data, D)
            u = resid * Dinv
            Xu = Xw.T @ u
            uPu = float(u @ (u * Dinv)) - float(Xu @ cho_solve((L, True), Xu))
            if self.restricted:
                S2 = cho_solve((L, True), Xw.T @ Xw)  # M^-1 X'D^-2 X
                S3 = cho_solve((L, True), Xw.T @ (Xw * Dinv[:, None]))  # M^-1 X'D^-3 X
                tr_P -= float(np.trace(S2))
                tr_P2 += float(np.sum(S2 * S2.T)) - 2.0 * float(np.trace(S3))
        g = 0.5 * (float(u @ u) - tr_P)
        return self.prior.c + A * g, A * g + A * A * (0.5 * tr_P2 - uPu)
