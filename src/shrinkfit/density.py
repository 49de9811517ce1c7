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
beta_and_projection_diag all take beta_A and X'D^-1 X from it.  Near a mode
A0, AdjustedLogDensity.power_sums takes only the residual e0 = y - X beta_A0
from it and gets l at many A, and the moments of 1/(V + A) under weights on
them, from power sums of 1/(V + A0): the truncated series is used only when
rho = max|A - A0| / (V_min + A0) < 1 and at most SERIES_TERMS terms bound
its error in l by SERIES_TOL.  Both test X'D^-1 X for rank by the same
Cholesky pivot test (_cholesky).
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.polynomial import polyval

from .model import PriorSpec, RankDeficientX, ShrinkfitError, TwoLevelData


# Elements of one (nodes, k) array in a block pass over quadrature nodes:
# 1 MB of floats, so a pass's few arrays stay in a 2 MB L2 cache
BLOCK_ELEMENTS = 1 << 17

# The power-sum pass (AdjustedLogDensity.power_sums) uses at most this many
# terms, enough for a bound of SERIES_TOL on its truncation error in l
SERIES_TERMS = 64
SERIES_TOL = 1e-13

# X'D^-1 X counts as singular when a squared Cholesky pivot L_jj^2 is at most
# this fraction of its diagonal entry M_jj (about 1.1e-14)
PIVOT_REL = 50 * np.finfo(float).eps


class PowerSums(NamedTuple):
    """AdjustedLogDensity.power_sums at a set of alphas around a mode."""

    ell: np.ndarray  # l(alpha) - l(center) at each alpha
    terms: int  # J, the terms of the truncated series
    # normalized weights w on the alphas -> E[W - W0] and E[(W - W0)^2] per
    # unit, with W = 1/(V + exp(alpha)) and W0 its value at center
    moments: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


class NonconcaveAtMax(ShrinkfitError):
    """The adjusted log-density has nonpositive curvature at the reported
    maximizer, so no Beta approximation can be formed."""


def _cholesky(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack of X'D^-1 X, (n, r, r).  Raises
    RankDeficientX when some L_jj^2 <= PIVOT_REL * M_jj or the Cholesky
    fails."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:  # a pivot <= 0, which the test below rejects
        L = np.zeros_like(M)
    if (L.diagonal(0, 1, 2) ** 2 <= PIVOT_REL * M.diagonal(0, 1, 2)).any():
        raise RankDeficientX("X'D^-1 X is numerically singular: X is nearly collinear")
    return L


def known_means_rows(alphas, e2: np.ndarray, V: np.ndarray, c: float = 0.0) -> np.ndarray:
    """l at r = 0, c alpha - (1/2) sum_k [log D + e^2/D] with D = V + exp(alpha),
    for each row i of e2 = (y - mu)^2, (n, k), at alphas[i].  A row's value is
    bitwise the same in any batch: A comes from math.exp row by row (np.exp
    may round differently) and the sum runs along axis 1 of a C array.  It
    is the row kernel of MLE's r = 0 search (fitters.mle_known_means), about
    46 calls a 20-replication gridpoint, so it makes few temporaries: e2/D
    goes into D once log D is taken, and the c alpha term is formed only
    for c != 0 (-(1/2) sum is 0 alpha - (1/2) sum but for the sign of a
    zero)."""
    D = np.add.outer(np.fromiter(map(math.exp, alphas), float, len(alphas)), V)
    ell = np.log(D)
    ell += np.divide(e2, D, out=D)
    total = np.add.reduce(ell, axis=1)
    if c:
        return c * np.asarray(alphas) - 0.5 * total
    total *= -0.5
    return total


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

    @property
    def tail_exponents(self) -> tuple[float, float]:
        """(c, (k - s r)/2 - c): l(alpha) - c alpha tends to a constant as
        A -> 0, and l(alpha) + ((k - s r)/2 - c) alpha as A -> infinity."""
        data = self.data
        return self.prior.c, 0.5 * (data.k - data.r * self.restricted) - self.prior.c

    def _gls(self, W: np.ndarray, out: np.ndarray | None = None):
        """The weighted regression (r >= 1) at each row of W = 1/(V + A), an
        (n, k) array: M = X'D^-1 X and its lower Cholesky factor L, (n, r, r),
        beta_A, (n, r), and the residuals y - X beta_A, (n, k), into `out` if
        given.  M and X'D^-1 y are one product W @ [X (x) X, X y]; the
        residuals are taken directly (y'D^-1 y - b'beta cancels when |y| is
        large).  Raises RankDeficientX by _cholesky's pivot test: nearly
        collinear X can pass TwoLevelData's rank test and still fail here.
        """
        r = self.data.r
        G = W @ self._cross
        M = G[:, : r * r].reshape(-1, r, r)
        L = _cholesky(M)
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
        if self.data.r == 0:
            e2 = self._e2[None, :]
            return float(known_means_rows([alpha], e2, self.data.V, self.prior.c)[0])
        return float(self.on_nodes(alpha)[0])

    def on_nodes(self, alphas: np.ndarray, parts: bool = False) -> np.ndarray:
        """l at every alpha of an array (or at one alpha), in blocks of about
        BLOCK_ELEMENTS elements: a block of n nodes forms W = 1/(V + A) as an
        (n, k) array, and for r >= 1 one call of the kernel _gls gives its n
        regressions (and raises RankDeficientX as _gls does).  With `parts`,
        the (3, n) rows l, S = sum log(V_i + A) and Q = e'D^-1 e.
        """
        data = self.data
        alphas = np.asarray(alphas, dtype=float).ravel()
        out = np.empty((3, alphas.size))
        step = max(1, BLOCK_ELEMENTS // data.k)
        for start in range(0, alphas.size, step):
            a = alphas[start : start + step]
            D = np.add.outer(np.exp(a), data.V)
            W = 1.0 / D
            S = np.log(D, out=D).sum(axis=1)
            if data.r == 0:
                Q = W @ self._e2
            else:
                _, L, _, resid = self._gls(W, out=D)
                Q = np.einsum("nk,nk,nk->n", resid, resid, W)
            total = S + Q
            if data.r and self.restricted:
                total += 2.0 * np.log(L.diagonal(0, 1, 2)).sum(axis=1)
            block = out[:, start : start + step]
            block[0], block[1], block[2] = self.prior.c * a - 0.5 * total, S, Q
        return out if parts else out[0]

    def power_sums(self, center: float, alphas: np.ndarray) -> PowerSums | None:
        """l(alpha) - l(center) at every alpha of an array, by power sums of
        W0 = 1/(V + A0), A0 = exp(center), in O(J k) rather than the O(n k)
        of on_nodes, with the number of terms J and the moments of W under
        weights on the alphas; None when the series would need more than
        SERIES_TERMS terms.

        With delta = A - A0 = A0 expm1(alpha - center), 1/(V_i + A) is
        W0_i sum_j (-delta W0_i)^j.  The series is taken in u = -delta / scale
        and omega = scale W0, with scale = V_min + A0, so that |u| < 1 and
        omega <= 1 whatever the scale of V and A: 1/(V_i + A) =
        W0_i sum_j u^j omega_i^j, and
        S = sum log(V_i + A) moves by -sum_{j>=1} u^j sum_i omega_i^j / j.  With
        e0 the residual y - X beta_A0 of _gls at center (y - mu when r = 0),
        M = X'D^-1 X, g = X'D^-1 e0 and e0'D^-1 e0 are power series in u
        whose coefficients are one product of the powers W0 omega^j with the
        columns [1, X (x) X, X e0, e0^2], taken a chunk of about BLOCK_ELEMENTS
        at a time.  Q = e0'D^-1 e0 - g'M^-1 g exactly, as Q does not change
        when y is shifted by X b, and log|M| and RankDeficientX come from
        _cholesky, as in _gls.

        With rho = max|u| = max|delta| max W0 < 1, each truncated 1/(V_i + A)
        is off by at most eta = rho^(J+1)/(1 - rho) relative, so S by
        k eta/(J+1), Q by eta Q0/(1 - rho) (Q0 = e0'D0^-1 e0) and log|M| by
        r eta to first order; J is the least for which half their sum is at
        most SERIES_TOL.

        With mu_j = E[u^j] under the weights, W - W0 = W0 sum_{j>=1}
        u^j omega^j gives E[W - W0] = W0 sum_{j>=1} mu_j omega^j and
        E[(W - W0)^2] = W0^2 sum_{j>=2} (j - 1) mu_j omega^j, each summed by
        Horner's rule in omega.
        """
        data = self.data
        A0 = math.exp(center)
        scale = float(data.V.min()) + A0
        alphas = np.asarray(alphas, dtype=float).ravel()
        # |u| is largest at an end of the range
        rho = A0 / scale * max(-math.expm1(alphas.min() - center),
                               math.expm1(alphas.max() - center))
        if not rho < 1.0:
            return None
        W0 = 1.0 / (data.V + A0)
        r, s = data.r, float(data.r >= 1 and self.restricted)
        e0 = self._gls(W0[None, :])[3][0] if r else self._resid0
        Q0 = float(W0 @ (e0 * e0))
        J = np.arange(2, SERIES_TERMS + 1)
        eta = rho ** (J + 1) / (1.0 - rho)
        fits = 0.5 * eta * (data.k / (J + 1) + s * r + Q0 / (1.0 - rho)) <= SERIES_TOL
        if not fits.any():
            return None
        J = int(J[fits.argmax()])

        # C[j] = sum_i W0_i omega_i^j [1, X (x) X, X e0, e0^2]_i for j = 0..J
        C = np.zeros((J + 1, r * r + r + 2))
        step = max(1, BLOCK_ELEMENTS // (J + 1))
        for start in range(0, data.k, step):
            W = W0[start : start + step]
            e = e0[start : start + step]
            omega = scale * W
            T = np.empty((J + 1, W.size))
            T[0] = W
            for j in range(J):
                np.multiply(T[j], omega, out=T[j + 1])
            F = np.empty((C.shape[1], W.size))
            F[0] = 1.0
            if r:
                F[1 : r * r + 1] = self._cross.T[: r * r, start : start + step]
                np.multiply(self._XT[:, start : start + step], e, out=F[r * r + 1 : -1])
            np.multiply(e, e, out=F[-1])
            C += T @ F.T

        # the series at each alpha and, in the last row, at center
        u = -(A0 / scale) * np.expm1(alphas - center)
        P = np.vander(np.append(u, 0.0), J + 1, increasing=True)
        G = P @ C
        dS = -scale * (P[:-1, 1:] @ (C[:-1, 0] / np.arange(1, J + 1)))
        rest = G[:, -1]  # s log|M| + Q
        if r:
            M = G[:, 1 : r * r + 1].reshape(-1, r, r)
            L, g = _cholesky(M), G[:, r * r + 1 : -1]
            rest = rest - np.einsum("nj,nj->n", g, np.linalg.solve(M, g[:, :, None])[:, :, 0])
            if self.restricted:
                rest += 2.0 * np.log(L.diagonal(0, 1, 2)).sum(axis=1)
        ell = self.prior.c * (alphas - center) - 0.5 * (dS + rest[:-1] - rest[-1])

        def moments(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            mu = w @ P[:-1]
            omega = scale * W0
            lead = W0 * omega
            return (lead * polyval(omega, mu[1:]),
                    lead**2 * polyval(omega, np.arange(1, J) * mu[2:]))

        return PowerSums(ell, J, moments)

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
        solve of M against [X'D^-1 u, X'D^-2 X, X'D^-3 X], the last two
        from the kernel's X (x) X columns.
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
            uw, w2, r = u * Dinv, (Dinv * Dinv)[None, :], data.r
            XX = np.concatenate([w2, w2 * Dinv]) @ self._cross[:, : r * r]  # X'D^-2 X, X'D^-3 X
            Xu = self._XT @ uw
            S = np.linalg.solve(M[0], np.concatenate([Xu[:, None], XX.reshape(2 * r, r).T], 1))
            S2, S3 = S[:, 1 : r + 1], S[:, r + 1 :]  # M^-1 X'D^-2 X, M^-1 X'D^-3 X
            uPu = float(u @ uw) - float(Xu @ S[:, 0])
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
