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

For r >= 1 one kernel, AdjustedLogDensity._gls, runs the weighted regression
at a block of A values; the log-density, its derivatives and
beta_and_projection_diag all take beta_A and X'D^-1 X from it.
"""

from __future__ import annotations

import math

import numpy as np

from .model import PriorSpec, RankDeficientX, ShrinkfitError, TwoLevelData


# Elements of one (nodes, k) array in a block pass over quadrature nodes:
# 1 MB of floats, so a pass's few arrays stay in a 2 MB L2 cache
BLOCK_ELEMENTS = 1 << 17

# X'D^-1 X counts as singular when a squared Cholesky pivot L_jj^2 is at most
# this fraction of its diagonal entry M_jj (about 1.1e-14)
PIVOT_REL = 50 * np.finfo(float).eps


class NonconcaveAtMax(ShrinkfitError):
    """The adjusted log-density has nonpositive curvature at the reported
    maximizer, so no Beta approximation can be formed."""


def residual_ss(data: TwoLevelData) -> float:
    """AdjustedLogDensity.residual_ss of the data."""
    return AdjustedLogDensity(data, PriorSpec()).residual_ss()


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
    method and every r.
    """

    def __init__(self, data: TwoLevelData, prior: PriorSpec, restricted: bool = True):
        self.data = data
        self.prior = prior
        self.restricted = restricted
        if data.r == 0:
            # the residuals to the known means and their squares do not depend on A
            self._resid0 = data.y - data.mu
            self._e2 = self._resid0 * self._resid0
        else:
            # the kernel's fixed inputs X' and [X (x) X, X y], built row by row
            # (products over a length-r inner axis are slow at large k) and
            # held as a (k, r^2 + r) view
            r = data.r
            self._XT = XT = np.ascontiguousarray(data.X.T)
            cross = np.empty((r * r + r, data.k))
            np.multiply(XT[:, None, :], XT[None, :, :], out=cross[: r * r].reshape(r, r, -1))
            np.multiply(XT, data.y, out=cross[r * r :])
            self._cross = cross.T

    def _gls(self, W: np.ndarray, out: np.ndarray | None = None):
        """The weighted regression (r >= 1) at each row of W = 1/(V + A), an
        (n, k) array: M = X'D^-1 X and its lower Cholesky factor L, (n, r, r),
        beta_A, (n, r), and the residuals y - X beta_A, (n, k), into `out` if
        given.  M and X'D^-1 y are one product W @ [X (x) X, X y]; the
        residuals are taken directly (y'D^-1 y - b'beta cancels when |y| is
        large).  Raises RankDeficientX when some L_jj^2 <= PIVOT_REL * M_jj or
        the Cholesky fails: nearly collinear X can pass TwoLevelData's rank
        test and still fail here.
        """
        r = self.data.r
        G = W @ self._cross
        M = G[:, : r * r].reshape(-1, r, r)
        try:
            L = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:  # a pivot <= 0, which the test below rejects
            L = np.zeros_like(M)
        if (L.diagonal(0, 1, 2) ** 2 <= PIVOT_REL * M.diagonal(0, 1, 2)).any():
            raise RankDeficientX("X'D^-1 X is numerically singular: X is nearly collinear")
        beta = np.linalg.solve(M, G[:, r * r :, None])[:, :, 0]
        return M, L, beta, np.subtract(self.data.y, beta @ self._XT, out=out)

    def residual_ss(self) -> float:
        """Sum of squared residuals after removing the Level-2 mean structure:
        ordinary least squares on X when r >= 1 (the kernel _gls at unit
        weights, so a nearly collinear X raises RankDeficientX here too),
        centering at the known means data.mu otherwise.  For equal variances
        this is the sufficient statistic."""
        if self.data.r == 0:
            return float(self._resid0 @ self._resid0)
        resid = self._gls(np.ones((1, self.data.k)))[3][0]
        return float(resid @ resid)

    def __call__(self, alpha: float) -> float:
        if self.data.r >= 1:
            return float(self.on_nodes(alpha)[0])
        D = self.data.V + math.exp(alpha)
        return self.prior.c * alpha - 0.5 * float(np.add.reduce(np.log(D) + self._e2 / D))

    def on_nodes(self, alphas: np.ndarray) -> np.ndarray:
        """l at every alpha of an array (or at one alpha), in blocks of about
        BLOCK_ELEMENTS elements: a block of n nodes forms W = 1/(V + A) as an
        (n, k) array, and for r >= 1 one call of the kernel _gls gives its n
        regressions (and raises RankDeficientX as _gls does).
        """
        data = self.data
        alphas = np.asarray(alphas, dtype=float).ravel()
        out = np.empty(alphas.size)
        step = max(1, BLOCK_ELEMENTS // data.k)
        for start in range(0, alphas.size, step):
            a = alphas[start : start + step]
            D = np.add.outer(np.exp(a), data.V)
            W = 1.0 / D
            total = np.log(D, out=D).sum(axis=1)
            if data.r == 0:
                total += W @ self._e2
            else:
                _, L, _, resid = self._gls(W, out=D)
                total += np.einsum("nk,nk,nk->n", resid, resid, W)
                if self.restricted:
                    total += 2.0 * np.log(L.diagonal(0, 1, 2)).sum(axis=1)
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
        from beta_A moving with A.  P is never formed: M and e come from the
        kernel _gls at one row, and the traces and u'P u from one r-by-r
        solve of M against [X'D^-1 u, X'D^-2 X, X'D^-3 X].
        """
        data = self.data
        A = math.exp(alpha)
        Dinv = 1.0 / (data.V + A)
        tr_P = float(Dinv.sum())
        tr_P2 = float(Dinv @ Dinv)
        if data.r == 0:
            u = self._resid0 * Dinv
            uPu = float(u @ (u * Dinv))
        else:
            M, _, _, resid = self._gls(Dinv[None, :])
            u = resid[0] * Dinv
            Xw = data.X * Dinv[:, None]
            Xu = Xw.T @ u
            rhs = np.column_stack([Xu, Xw.T @ Xw, Xw.T @ (Xw * Dinv[:, None])])
            S = np.linalg.solve(M[0], rhs)
            S2, S3 = np.hsplit(S[:, 1:], 2)  # M^-1 X'D^-2 X, M^-1 X'D^-3 X
            uPu = float(u @ (u * Dinv)) - float(Xu @ S[:, 0])
            if self.restricted:
                tr_P -= float(np.trace(S2))
                tr_P2 += float(np.sum(S2 * S2.T)) - 2.0 * float(np.trace(S3))
        g = 0.5 * (float(u @ u) - tr_P)
        return self.prior.c + A * g, A * g + A * A * (0.5 * tr_P2 - uPu)


def beta_and_projection_diag(A: float, data: TwoLevelData) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least squares at variance A (r >= 1): beta_A by the kernel at
    one row, and the diagonal p_ii = x_i'M^-1 x_i / D_i of the projection
    matrix (M = X'D^-1 X, D = diag(V_i + A)) from the kernel's columns
    X (x) X, without forming a k-by-k matrix."""
    if data.r < 1:
        raise ValueError("beta_and_projection_diag requires r >= 1")
    D = data.V + A
    ell = AdjustedLogDensity(data, PriorSpec())
    M, _, beta, _ = ell._gls(1.0 / D[None, :])
    return beta[0], ell._cross[:, : data.r**2] @ np.linalg.inv(M[0]).ravel() / D
