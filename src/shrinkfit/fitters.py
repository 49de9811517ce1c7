"""The four estimation methods for the Level-2 variance and the shrinkage
factors: ADM (adjusted density maximization), MLE, REML, and exact Bayes.

fit is the one fitting entry point: it validates (data, prior, method) once
and picks the algorithm from the method and the data, a closed form at equal
variances, a Newton search, or a quadrature.  It is a pure function and can
run concurrently on different datasets.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .density import BLOCK_ELEMENTS, AdjustedLogDensity, NonconcaveAtMax, residual_ss
from .density import known_means_rows
from .model import (
    FitMethod,
    PriorSpec,
    ShrinkagePosterior,
    ShrinkfitError,
    TooFewUnits,
    TwoLevelData,
    validate,
)

__all__ = [
    "FitMethod",
    "OptimizerNoBracket",
    "NonintegrablePosterior",
    "fit",
    "mle_known_means",
    "adm_beta_moments",
    "adm_moments_equal",
    "exact_moments_equal",
    "equal_variance_moments",
    "mle_shrinkage_equal",
    "quadrature_moments",
]

_GROW = 1.7
_MAX_STEP = 2.0  # largest Newton step in alpha
_NEWTON_XTOL = 1e-13
_NOISE_STEP = 1e-6  # a Newton step this small is at least halved by the next
_NEWTON_ITERS = 100
_BRENT_XTOL = 1e-10
_BOUNDARY_REL = 1e-10
_FLOOR_REL = 1e-12

# The fixed quadrature rule of quadrature_moments
_GL_NODES = 12  # Gauss-Legendre nodes per panel
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)
_TAIL_NODES = 12  # Gauss-Jacobi nodes per tail panel
_MAX_WIDTH = 1.0  # widest panel, in alpha
_SKIP_DROP = 50.0  # skip panels whose edges both lie this far below the mode


class OptimizerNoBracket(ShrinkfitError):
    """No finite interior maximizer was bracketed; for the adjusted density
    this signals c too large relative to k - r."""


class NonintegrablePosterior(ShrinkfitError):
    """The posterior of A is improper (k - r <= 2c), so its moments diverge."""


# ---------------------------------------------------------------------------
# 1-D maximization in alpha = log A


def _brent(bracket):
    """Maximizer of l and l there, from a bracketing triple of (x, l(x))
    pairs in either orientation (a search generator, see _lockstep, that
    _maximize_alpha delegates to): the Brent minimizer of scipy 1.17 (500
    iterations at most) on -l at xtol _BRENT_XTOL, with every float
    operation and comparison kept.  scipy evaluates the three bracket points
    again; l is a pure function, so their given values are those bits.
    Raises ValueError, as scipy does, unless the triple is strictly ordered
    with its middle value strictly the largest.
    """
    if bracket[0][0] > bracket[2][0]:
        bracket = bracket[::-1]
    (xa, fa), (xb, fb), (xc, fc) = ((x, -f) for x, f in bracket)
    if not (xa < xb and xb < xc):
        raise ValueError("bracket points are not strictly ordered")
    if not (fb < fa and fb < fc):
        raise ValueError("bracket does not strictly enclose a maximum")
    x = w = v = xb
    fw = fv = fx = fb
    a, b, deltax, rat = xa, xc, 0.0, 0.0
    for _ in range(500):
        tol1 = _BRENT_XTOL * abs(x) + 1.0e-11
        tol2 = 2.0 * tol1
        xmid = 0.5 * (a + b)
        if abs(x - xmid) < (tol2 - 0.5 * (b - a)):
            break
        golden = abs(deltax) <= tol1
        if not golden:  # try a parabolic step
            tmp1 = (x - w) * (fx - fv)
            tmp2 = (x - v) * (fx - fw)
            p = (x - v) * tmp2 - (x - w) * tmp1
            tmp2 = 2.0 * (tmp2 - tmp1)
            p, tmp2 = -p if tmp2 > 0.0 else p, abs(tmp2)
            dx_temp, deltax = deltax, rat
            golden = not (p > tmp2 * (a - x) and p < tmp2 * (b - x)
                          and abs(p) < abs(0.5 * tmp2 * dx_temp))
            if not golden:
                rat = p / tmp2
                if (x + rat - a) < tol2 or (b - (x + rat)) < tol2:
                    rat = tol1 if xmid - x >= 0 else -tol1
        if golden:
            deltax = a - x if x >= xmid else b - x
            rat = 0.3819660 * deltax  # scipy's golden-section fraction
        if abs(rat) < tol1:  # move by at least tol1
            u = x + tol1 if rat >= 0 else x - tol1
        else:
            u = x + rat
        fu = -(yield u)
        if fu > fx:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, w, fv, fw = w, u, fw, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
        else:
            a, b = (x, b) if u >= x else (a, x)
            v, w, x, fv, fw, fx = w, x, u, fw, fx, fu
    return x, -fx


def _maximize_alpha(x0: float, lo: float, hi: float):
    """The maximizer of l from x0, or None when the maximum sits at/below
    `lo` (a search generator, see _lockstep).  Serves MLE and REML at r = 0
    only (mle_known_means), where it is most of a simulation gridpoint, so
    its three stages share one generator and only Brent's is delegated:

    - walk: from x0, steps of 1 that grow by _GROW until a triple a < b < c
      has l(b) >= l at both ends; None when l keeps rising toward `lo`, and
      OptimizerNoBracket when it still rises at `hi`.  l(x0 - 1) is asked
      for only when l(x0 + 1) <= l(x0), as it is read only then;
    - Brent (_brent) from the triple, or its middle point when the triple is
      degenerate (flat);
    - polish: Newton steps on the central-difference gradient, as bracketing
      locates an argmax only to ~sqrt(eps) and a few steps recover ~1e-10
      in alpha; each step evaluates l at x + h, x - h, and x unless known.

    _brent reproduces scipy's arithmetic so that the MLE figures
    bench/reference/sim-equal.json pins keep their bits; once that file pins
    the true MLE, _newton_alpha replaces this whole search.
    """
    x0 = min(max(x0, lo + 1.0), hi - 1.0)
    f0 = yield x0
    fp = yield x0 + 1.0
    bracket = None
    if fp > f0:
        b, fb, d = x0 + 1.0, fp, 1.0
    else:
        fm = yield x0 - 1.0
        if f0 >= fp and f0 >= fm:
            bracket = ((x0 - 1.0, fm), (x0, f0), (x0 + 1.0, fp))
        b, fb, d = x0 - 1.0, fm, -1.0
    a, fa = x0, f0
    while bracket is None:
        d *= _GROW
        c = min(max(b + d, lo), hi)
        fc = yield c
        if fc <= fb:
            bracket = ((a, fa), (b, fb), (c, fc))
        elif c == lo:
            return None
        elif c == hi:
            raise OptimizerNoBracket(
                "objective is still increasing at the top of the search range"
            )
        else:
            a, b, fa, fb = b, c, fb, fc
    try:
        x, fx = yield from _brent(bracket)
    except ValueError:
        x, fx = bracket[1]
    clipped = min(max(x, lo), hi)
    if clipped != x:
        x, fx = clipped, None
    for _ in range(6):
        h = 1e-5 * max(1.0, abs(x))
        fp, fm = (yield x + h), (yield x - h)
        f0 = (yield x) if fx is None else fx
        g = (fp - fm) / (2.0 * h)
        curv = (fp - 2.0 * f0 + fm) / (h * h)
        if not (curv < 0.0) or not math.isfinite(g):
            break
        step = max(-0.5, min(0.5, -g / curv))
        xn = min(max(x + step, lo), hi)
        if abs(xn - x) <= 1e-14 * max(1.0, abs(x)):
            return xn
        x, fx = xn, None
    return x


def _lockstep(searches: list, evaluate) -> list:
    """Run search generators, each of which yields an alpha and is sent the
    objective there, in lockstep; return their return values in order.
    Each round, one call evaluate(rows, alphas) returns the objective at
    the pending alpha of every generator still running (rows index
    `searches`, in order).  The live (index, generator) pairs carry over
    from round to round, and rows is rebuilt only in a round where a search
    ended: a round's Python is little more than one send per search."""
    out = [None] * len(searches)
    live = list(enumerate(searches))
    rows, values = list(range(len(live))), [None] * len(live)  # send(None) starts one
    while live:
        kept, alphas = [], []
        for pair, value in zip(live, values):
            try:
                alphas.append(pair[1].send(value))
            except StopIteration as stop:
                out[pair[0]] = stop.value
            else:
                kept.append(pair)
        if len(kept) < len(live):
            rows = [i for i, _ in kept]
        live = kept
        if live:
            values = evaluate(rows, alphas)
    return out


def _newton_alpha(derivatives, alpha0: float, lo: float, hi: float):
    """Root of the score l'(alpha) in [lo, hi] by safeguarded Newton from
    alpha0, where derivatives(alpha) = (l', l'') is called once per step.

    Each evaluation narrows a bracket [a, b], l' > 0 at a and l' < 0 at b,
    which starts as the whole range (its ends count as bracketing until they
    are evaluated).  A step is -l'/l'' where l'' < 0 and _MAX_STEP uphill
    otherwise, clipped to +-_MAX_STEP and to [lo, hi]; a step that leaves
    the bracket, or lands on an end already evaluated (where it would
    cycle), is replaced by bisection.  Stops when the step or the bracket
    is at most _NEWTON_XTOL, or when a step below _NOISE_STEP is not at
    least halved by the next (Newton has reached the rounding noise of l'),
    and returns (alpha, l', l'') of the last evaluation, so the curvature at
    the root costs no further call.  Raises OptimizerNoBracket when l' > 0
    at hi or l' < 0 at lo (the density still rises at an end of the range),
    when l' is not a number, or after _NEWTON_ITERS steps.
    """
    a, b = lo, hi
    x = min(max(alpha0, lo), hi)
    last = math.inf  # the previous Newton step
    seen = set()
    for _ in range(_NEWTON_ITERS):
        d1, d2 = derivatives(x)
        seen.add(x)
        if d1 > 0.0:
            if x >= hi:
                raise OptimizerNoBracket(
                    "objective is still increasing at the top of the search range"
                )
            a = x
        elif d1 < 0.0:
            if x <= lo:
                raise OptimizerNoBracket("objective keeps rising toward A = 0")
            b = x
        elif d1 == 0.0:
            return x, d1, d2
        else:
            raise OptimizerNoBracket(f"score is {d1} at alpha={x}")
        step = -d1 / d2 if d2 < 0.0 else math.copysign(_MAX_STEP, d1)
        step = min(max(step, -_MAX_STEP), _MAX_STEP)
        if abs(step) <= _NEWTON_XTOL or b - a <= _NEWTON_XTOL:
            return x, d1, d2
        if abs(last) <= _NOISE_STEP and abs(step) > 0.5 * abs(last):
            return x, d1, d2
        last = step
        x_new = min(max(x + step, lo), hi)
        x = x_new if a <= x_new <= b and x_new not in seen else 0.5 * (a + b)
    raise OptimizerNoBracket(f"Newton did not converge in {_NEWTON_ITERS} steps")


def _search_range(V: np.ndarray, ss, dof: int) -> list[tuple[float, float, float]]:
    """Starting point and search bounds for alpha, one triple per residual
    sum of squares in ss (dof = k - r): start at log(max(A_unb, Vbar/10))
    with A_unb = ss/dof - Vbar the moment estimate of A, and floor the search
    at min(V) * 1e-12, so that the floor stays below the mode however widely
    V is spread."""
    v_bar = float(V.mean())
    lo = math.log(float(V.min()) * _FLOOR_REL)
    starts = [max(s / dof - v_bar, v_bar / 10.0) for s in ss]
    return [(math.log(a0), lo, math.log(max(a0, v_bar)) + 45.0) for a0 in starts]


# ---------------------------------------------------------------------------
# ADM engine


def adm_beta_moments(
    derivatives,
    alpha0: float = 0.0,
    *,
    V: float | np.ndarray = 1.0,
    lo: float | None = None,
    hi: float | None = None,
) -> tuple[float, float, float, float]:
    """ADM Beta approximation for shrinkage factors B = V / (V + exp(alpha))
    (V a scalar or an array of unit variances) whose adjusted log-density
    in alpha has the first two derivatives derivatives(alpha) = (l', l'').

    Finds the maximizer alpha_hat by safeguarded Newton on l' (_newton_alpha),
    takes the invariant information -l''(alpha_hat) from the same call, and
    returns (B_hat, v, alpha_hat, inv_info).  With exact Beta input the
    recovered mean and variance are exact.
    """
    lo = alpha0 - 100.0 if lo is None else lo
    hi = alpha0 + 100.0 if hi is None else hi
    alpha_hat, _, d2 = _newton_alpha(derivatives, alpha0, lo, hi)
    inv_info = -d2
    if not inv_info > 0.0:
        raise NonconcaveAtMax(
            f"nonpositive curvature {inv_info} at alpha={alpha_hat}"
        )
    B = V / (V + math.exp(alpha_hat))
    w = B * (1.0 - B)
    v = w * w / (inv_info + w)
    return B, v, alpha_hat, inv_info


# ---------------------------------------------------------------------------
# Equal-variance closed forms (shared with the deterministic curve tables)


def adm_moments_equal(T: float, m: float, c: float = 1.0) -> tuple[float, float, float]:
    """Closed-form ADM posterior moments of B for equal variances.

    B_hat is the positive root of the stationarity quadratic of the adjusted
    density, written in its cancellation-free form; returns
    (B_hat, v, inv_info).  At T = 0 the shrinkage attains its maximum
    1 - c/(m+1).
    """
    if m + 1.0 <= c:
        raise TooFewUnits(f"need m + 1 > c, got m={m}, c={c}")
    B = 2.0 * (m - c + 1.0) / (T + m + 1.0 + math.sqrt((T - m - 1.0) ** 2 + 4.0 * c * T))
    inv_info = (m + 1.0) * (1.0 - B) ** 2 - c * (1.0 - 2.0 * B)
    w = B * (1.0 - B)
    v = w * w / (inv_info + w)
    return B, v, inv_info


def exact_moments_equal(T, m: float, c: float = 1.0):
    """Exact posterior mean and variance of B for equal variances under the
    prior A^(c-1), at each T (a float or an array of them): with n = m + 1
    and a = n - c, p(B) ~ B^(a-1) (1 - B)^(c-1) e^(-TB) on [0, 1].

    Below top = n + 9 sqrt(n) + 40, Kummer's transformation makes B a
    mixture over J >= 0 of Beta(a, c + J) with weights ~ (c)_J T^J /
    ((n)_J J!): E[B] = a E[x], x = 1/(n + J), and Var B = E[Var(B | J)] +
    a^2 Var x.  From top on, sigma_j = 1 - E[B^(j+1)]/E[B^j] = (c + T
    sigma_(j+1)) / D_j, D_j = n + j + T sigma_(j+1), so E[B] = a/D_0, and
    tau_j = d(T sigma_j)/dT = sigma_j + T (a + j) tau_(j+1) / D_j^2 gives
    Var B = -dE[B]/dT = a tau_1 / D_0^2.  The fraction starts at level K
    from sigma_K = 1 - (a + K)/T, tau_K = 1: exact at c = 1 (but for e^-T
    T^(n-1) / Gamma(n) < 1e-17), otherwise off by min(1, |c - 1|) at most,
    an error each level shrinks by (a + j)/T or less.  All terms are
    positive, so v never cancels, and a T's moments do not depend on the
    other T's.
    """
    if not m + 1.0 > c:
        raise NonintegrablePosterior(f"posterior of B is improper: need m + 1 > c, got m={m}, c={c}")
    T = np.asarray(T, dtype=float)
    flat, n, a = T.ravel(), m + 1.0, m + 1.0 - c
    top, J, log_w, x, within, levels = _equal_terms(n, c)
    lw = log_w + np.log(np.maximum(np.minimum(flat, top), np.finfo(float).tiny))[:, None] * J
    w = np.exp(lw - lw.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    mean_x = (w * x).sum(axis=1)
    mixture = a * mean_x, (w * (within + a * a * (x - mean_x[:, None]) ** 2)).sum(axis=1)
    T_top = np.maximum(flat, top)
    sigma, tau = 1.0 - (a + levels) / T_top, 1.0
    for j in range(levels - 1, 0, -1):
        D = n + j + T_top * sigma
        sigma = (c + T_top * sigma) / D
        tau = sigma + T_top * (a + j) * tau / (D * D)
    D = n + T_top * sigma
    B, v = np.where(flat < top, mixture, (a / D, a * tau / (D * D)))
    return B.reshape(T.shape)[()], v.reshape(T.shape)[()]


@functools.lru_cache(maxsize=16)
def _equal_terms(n: float, c: float):
    """exact_moments_equal's top; the mixture's J, up to the last whose
    weight at T = top lies within e^40 of its peak, with log (c)_J / ((n)_J
    J!), x and Var(B | J); and the least K at which the bounds (a + j)/top,
    j < K, bring the fraction's start below 1e-17.  Arrays read-only."""
    a, top = n - c, n + 9.0 * math.sqrt(n) + 40.0
    J = np.arange(math.ceil(top + 10.0 * math.sqrt(top) + 50.0))
    log_w = np.concatenate(([0.0], np.cumsum(np.log((c + J[:-1]) / ((n + J[:-1]) * (J[:-1] + 1.0))))))
    at_top = log_w + J * math.log(top)
    J = J[: np.flatnonzero(at_top >= at_top.max() - 40.0)[-1] + 1]
    x = 1.0 / (n + J)
    K, gain, target = 1, 0.0, math.log(1e17 * min(1.0, abs(c - 1.0)) + 1.0)
    while gain < target:
        gain += math.log(top / (a + K))
        K += 1
    arrays = J, log_w[: J.size], x, a * (c + J) * x * x / (n + J + 1.0)
    for arr in arrays:
        arr.flags.writeable = False
    return top, *arrays, K


def equal_variance_moments(method: FitMethod, T: list[float], m: float, c: float = 1.0):
    """Equal-variance (B, v, inv_info) of ADM or exact Bayes at each T of
    the list T, as arrays (inv_info None for exact Bayes): one
    exact_moments_equal call for all of T, or adm_moments_equal at each T
    in turn, so each T's figures are those of a call on it alone.  The one
    entry of the closed forms for fit, the simulation and the curve tables."""
    if method is FitMethod.EXACT:
        return (*exact_moments_equal(T, m, c), None)
    return tuple(np.array([adm_moments_equal(t, m, c) for t in T]).reshape(-1, 3).T)


def mle_shrinkage_equal(T: float, k: int) -> float:
    """Equal-variance MLE shrinkage min(1, k/2T), for any r: the profile
    likelihood, unlike REML's (k - r)/2T, does not count the r fitted means."""
    if T <= 0.0:
        return 1.0
    return min(1.0, k / (2.0 * T))


# ---------------------------------------------------------------------------
# Fitters: fit validates, the helpers it dispatches to check nothing


def _fit_adm(data: TwoLevelData, prior: PriorSpec):
    """ADM fit by numerical maximization of the adjusted log-density over
    alpha = log A; handles any r >= 0 and unequal variances.  Returns
    (A_hat, B_hat, v, inv_info)."""
    ell = AdjustedLogDensity(data, prior)
    (alpha0, lo, hi), = _search_range(data.V, [ell.residual_ss()], data.k - data.r)
    B, v, alpha_hat, inv_info = adm_beta_moments(ell.derivatives, alpha0, V=data.V, lo=lo, hi=hi)
    return math.exp(alpha_hat), B, v, inv_info


def _plugin_alpha(ell: AdjustedLogDensity, alpha0: float, lo: float, hi: float):
    """MLE's or REML's maximizer for r >= 1, or None on the A = 0 boundary.

    With c = 0 the score is l' = A g for the A-score g = (u'u - tr P)/2
    (tr D^-1 in place of tr P for MLE's profile likelihood), so the
    boundary verdict is the sign of g at the floor: g <= 0 there means l
    falls from A = 0 on (a second, interior mode is not looked for).
    Otherwise Newton runs on g, whose root is l''s but whose steps, unlike
    those on l', do not crawl at about one unit of alpha each where A is
    small; dg/dalpha = (l'' - l')/A.
    """
    if not ell.derivatives(lo)[0] > 0.0:
        return None

    def a_score(alpha: float) -> tuple[float, float]:
        d1, d2 = ell.derivatives(alpha)
        A = math.exp(alpha)
        return d1 / A, (d2 - d1) / A

    return _newton_alpha(a_score, alpha0, lo, hi)[0]


def _plugin_A(alpha_hat: float | None, V: np.ndarray) -> float:
    """MLE's or REML's A_hat from its maximizer; 0 on the A = 0 boundary."""
    A = 0.0 if alpha_hat is None else math.exp(alpha_hat)
    return 0.0 if A < float(V.min()) * _BOUNDARY_REL else A


def mle_known_means(resid: np.ndarray, V: np.ndarray, ss: list[float] | None = None) -> np.ndarray:
    """MLE's A_hat at r = 0 (REML's too), 0 on the A = 0 boundary, for each
    row of resid = y - mu, an (n, k) array; the data are not checked.  Each
    row runs _maximize_alpha, all in lockstep on density.known_means_rows,
    so a row's A_hat does not depend on the other rows.  ss[i], when given,
    is float(np.dot(resid[i], resid[i])), which sets row i's search range.
    A round passes the kernel e2 itself while every row is still searching,
    and the live rows' copy e2[rows] only after one has ended; the values go
    back as Python floats, on which the searches' scalar arithmetic is
    fastest."""
    if ss is None:
        ss = [float(s) for s in map(np.dot, resid, resid)]
    e2 = resid * resid
    n = len(resid)
    starts = _search_range(V, ss, resid.shape[1])
    alphas = _lockstep(
        [_maximize_alpha(*start) for start in starts],
        lambda rows, a: known_means_rows(a, e2 if len(rows) == n else e2[rows], V).tolist(),
    )
    return np.array([_plugin_A(a, V) for a in alphas])


def _fit_plugin(data: TwoLevelData, method: FitMethod):
    """Shared MLE/REML driver: maximize the c = 0 member of the log-density
    family over alpha, with beta maximized out (MLE) or integrated out
    (REML), detect the A = 0 boundary (A below min(V) * 1e-10), then plug in
    (v = 0 convention).  At r >= 1 both find alpha by Newton on the A-score
    (_plugin_alpha); at r = 0, where they are one objective, by bracket,
    Brent and polish as a batch of one row (mle_known_means).  Returns
    (A_hat, B_hat, v, None)."""
    if data.r == 0:
        A_hat = float(mle_known_means((data.y - data.mu)[None, :], data.V)[0])
    else:
        ell = AdjustedLogDensity(data, PriorSpec(0.0), restricted=method is FitMethod.REML)
        (alpha0, lo, hi), = _search_range(data.V, [ell.residual_ss()], data.k - data.r)
        A_hat = _plugin_A(_plugin_alpha(ell, alpha0, lo, hi), data.V)
    return A_hat, data.V / (data.V + A_hat), np.zeros(data.k), None  # B all ones at A_hat = 0


def quadrature_moments(
    ell: AdjustedLogDensity, center: float, inv_info: float
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of each B_i = V_i / (V_i + exp(alpha))
    under the log-posterior of alpha, the AdjustedLogDensity `ell` (c > 0),
    by one fixed rule (_panels): Gauss-Legendre panels over a middle range
    around the mode and, on each side where l falls as exp(a alpha) toward
    A = 0 or A = infinity, one Gauss-Jacobi panel out to that end (a from
    `ell.tail_exponents`).

    `center` is the mode, where the curvature of `ell` is -inv_info.
    The exponent is shifted by its value at the mode before exponentiating.
    With W = 1/(V + exp(alpha)) and W0 its value at the mode, the moments are
    taken in centred form, E[B_i] = V_i (W0_i + E[W_i - W0_i]) and Var(B_i) =
    V_i^2 Var(W_i - W0_i), not as E[B^2] - E[B]^2, which cancels when the
    posterior is narrow.

    The nodes are evaluated in one of two ways.  When the kept range is
    narrow around the mode, l and the moments there come from power sums of
    W0 (AdjustedLogDensity.power_sums): with
    delta = A - A0 and rho = max|delta| max W0 < 1 over the nodes,
    W = W0 sum_j (-delta W0)^j is truncated after J terms, off by at most
    rho^(J+1)/(1 - rho) relative, with J the least (at most
    density.SERIES_TERMS) that bounds the error in l by density.SERIES_TOL.
    That is O(J k) work rather than O(n k) for n nodes.  Otherwise (rho >= 1,
    as wherever the A -> infinity tail is kept, or more terms than the cap)
    l is evaluated at the nodes (AdjustedLogDensity.on_nodes) and the
    moments accumulated a block of about BLOCK_ELEMENTS elements at a time.
    Raises NonintegrablePosterior when a tail exponent is not positive or
    the normalizer is not finite and positive.
    """
    V = ell.data.V
    a, b, shift, ends = _panels(ell, center, inv_info)
    half = 0.5 * (b - a)
    parts = [(((0.5 * (a + b))[:, None] + half[:, None] * _GL_X).ravel(),
              (half[:, None] * _GL_W).ravel(), np.zeros(a.size * _GL_NODES))]
    for start, outward, exponent in ends:
        # at alpha = start - outward log t, exp(l) dalpha is t^(a-1) times
        # the smooth exp(l) t^-a, so a node's weight is omega exp(l - a log t)
        log_t, omega = _tail_rule(exponent)
        parts.append((start - outward * log_t, omega, -exponent * log_t))
    nodes, w, lift = (np.concatenate(x) for x in zip(*parts))
    sums = ell.power_sums(center, nodes)
    w *= np.exp((ell.on_nodes(nodes) - shift if sums is None else sums.ell) + lift)
    Z = float(w.sum())
    if not (math.isfinite(Z) and Z > 0.0):
        raise NonintegrablePosterior(f"posterior normalizer is {Z} around alpha={center}")
    w /= Z
    W0 = 1.0 / (V + math.exp(center))
    m1, m2 = _block_moments(np.exp(nodes), w, V, W0) if sums is None else sums.moments(w)
    return V * (W0 + m1), V * V * np.maximum(m2 - m1 * m1, 0.0)


def _block_moments(A: np.ndarray, w: np.ndarray, V: np.ndarray, W0: np.ndarray):
    """E[W - W0] and E[(W - W0)^2] under the node weights w, with
    W = 1/(V + A) formed a block of about BLOCK_ELEMENTS at a time."""
    m1 = np.zeros(V.size)
    m2 = np.zeros(V.size)
    step = max(1, BLOCK_ELEMENTS // V.size)
    for start in range(0, A.size, step):
        dW = np.add.outer(A[start : start + step], V)
        np.divide(1.0, dW, out=dW)
        dW -= W0
        wc = w[start : start + step]
        m1 += np.einsum("n,nk->k", wc, dW)
        m2 += np.einsum("n,nk,nk->k", wc, dW, dW)
    return m1, m2


@functools.lru_cache(maxsize=64)
def _tail_rule(a: float) -> tuple[np.ndarray, np.ndarray]:
    """The _TAIL_NODES-node Gauss-Jacobi rule for the integral of
    t^(a-1) f(t) over 0 < t < 1 (a > 0): log t at its nodes, and its
    weights.  Golub-Welsch on the recurrence of the Jacobi polynomials
    P^(0, a-1)(2t - 1), whose normalizer 1/a, unlike scipy's roots_jacobi,
    does not overflow at large a.  The arrays are shared: read-only."""
    b = a - 1.0
    n = np.arange(1.0, _TAIL_NODES)
    s = 2.0 * n + b
    diag = np.concatenate([[a / (a + 1.0)], 0.5 + 0.5 * b * b / (s * (s + 2.0))])
    off = n * (n + b) / (s * np.sqrt(s * s - 1.0))
    t, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    rule = np.log(t), vectors[0] ** 2 / a
    for x in rule:
        x.flags.writeable = False
    return rule


def _panels(ell: AdjustedLogDensity, center: float, inv_info: float):
    """quadrature_moments' kept panels (a, b), l at the mode, and its tail
    panels, a list of (start, outward, exponent) with outward -1 for the
    A -> 0 tail and +1 for the A -> infinity one.

    The panels (_GL_NODES nodes each) start at the posterior sd either side
    of the mode and double outward, capped at width _MAX_WIDTH: the B_i
    sigmoids need that, and a peak much narrower than the range is still
    sampled (~0.01 wide at k = 1e5).  They stop at the first edge past the
    middle range, where l is close to its asymptotes: with n = 2 (a_left +
    a_right) = k - s r, the range runs from the mode - max(0,
    log((A_hat/V_min)(1 + A_hat/V_min))) - log n to the mode + log(1 +
    V_max/A_hat) + log n.
    Past each end l(alpha) - a alpha is analytic in A (in u = 1/A on the
    right), and over the tail S, Q and log|X'D^-1 X| move by about 1 or
    less (after their linear parts in alpha on the right) for residuals of
    the size of V + A_hat, while the singularities at A = -V_i (u = -1/V_i)
    lie far from it; so one Gauss-Jacobi panel of weight t^(a-1), t the
    fraction of the end's A (or u), integrates the tail.  A panel is skipped
    when l at both its edges lies more than _SKIP_DROP below the mode, which
    within the middle range assumes no second mode hides inside it.

    The edges are evaluated nearest-first from the mode, a block of
    BLOCK_ELEMENTS // k at a time (all of them at once for k below about
    1300), and a side stops, with no tail panel, at the first edge
    alpha_j past which both l and the mass of exp(l) are proven to stay
    more than _SKIP_DROP below the mode (in log).  With l = c alpha
    - [S + s log|X'D^-1 X| + Q]/2 (S rising, the rest falling in A), the
    bounds for alpha beyond alpha_j are
        left:  l <= L_j + c (alpha - alpha_j), L_j = l(alpha_j)
               + [S(A_j) - sum log V_i]/2, so the mass is at most e^L_j / c;
        right: l <= R_j - lam_j (alpha - alpha_j), R_j = l(alpha_j) + Q(A_j)/2
               and lam_j = (k/2) A_j/(V_max + A_j) - c - s r/2, so for
               lam_j > 0 the mass is at most e^R_j / lam_j,
    so every edge left out is low and the same panels are kept.  A side
    that reaches its last edge keeps its tail panel unless the bound there
    shows the tail is negligible.  On the benchmark's r = 2 data the walk
    stops within a few units of the mode at k >= 1e4 (about 17 edges at
    k = 1e5), far inside the middle range, so no tail panel is formed
    there.  The edges always go through on_nodes, even where
    quadrature_moments then evaluates the kept nodes by power sums.
    """
    tails, V = ell.tail_exponents, ell.data.V
    if not min(tails) > 0.0:
        raise NonintegrablePosterior(
            f"posterior of alpha is improper: tail exponents {tuple(tails)}")
    h = 1.0 / math.sqrt(inv_info) if 0.0 < inv_info < math.inf else _MAX_WIDTH
    pad = math.log(2.0 * sum(tails))
    x_min = math.log(float(V.min())) - center
    x_max = math.log(float(V.max())) - center
    reach = (max(0.0, float(np.logaddexp(0.0, -x_min)) - x_min) + pad,
             float(np.logaddexp(0.0, x_max)) + pad)
    offsets = [0.0]
    while offsets[-1] < max(reach):
        h = min(h, _MAX_WIDTH)
        offsets.append(offsets[-1] + h)
        h *= 2.0
    offsets = np.array(offsets)
    m, last = np.searchsorted(offsets, reach)  # the mode is edge m
    edges = np.concatenate([center - offsets[m:0:-1], center + offsets[: last + 1]])
    ends = [(float(edges[0]), -1.0, tails[0]), (float(edges[-1]), 1.0, tails[1])]
    step = max(1, BLOCK_ELEMENTS // V.size)
    at_edges = np.full(edges.size, -math.inf)
    c, k = ell.prior.c, ell.data.k
    S0, log_vmax = float(np.log(V).sum()), math.log(float(V.max()))
    slope = c + 0.5 * ell.data.r * ell.restricted
    pending = np.argsort(abs(np.arange(edges.size) - m + 0.25))  # m, m - 1, m + 1, ...
    while pending.size:
        idx, pending = np.sort(pending[:step]), pending[step:]
        alphas = edges[idx]
        values, S, Q = ell.on_nodes(alphas, parts=True)
        at_edges[idx] = values
        floor = at_edges[m] - _SKIP_DROP
        # the larger of the bound on l and on its mass, on each side
        left = values + 0.5 * (S - S0) - min(0.0, math.log(c))
        lam = 0.5 * k * np.exp(-np.logaddexp(0.0, log_vmax - alphas)) - slope
        with np.errstate(divide="ignore"):
            right = values + 0.5 * Q - np.log(np.clip(lam, 0.0, 1.0))
        if ((idx < m) & (left < floor)).any():
            pending = pending[pending > m]
            ends = [end for end in ends if end[1] > 0.0]
        if ((idx > m) & (right < floor)).any():
            pending = pending[pending < m]
            ends = [end for end in ends if end[1] < 0.0]
    shift = float(at_edges[m])
    low = at_edges < shift - _SKIP_DROP
    keep = ~(low[:-1] & low[1:])
    return edges[:-1][keep], edges[1:][keep], shift, ends


def _fit_exact(data: TwoLevelData, prior: PriorSpec):
    """Exact posterior mean and variance of each B_i by quadrature of the
    posterior of alpha = log A (which, including the Jacobian, is the
    adjusted density): the mode is found by Newton on the closed-form
    derivatives (_newton_alpha), whose last call also gives the curvature
    there, then quadrature_moments integrates over all of A: Gauss-Legendre
    panels around the mode and a Gauss-Jacobi panel for each tail that
    matters, out to A = 0 and A = infinity.  It walks the panel edges
    outward with the block evaluation AdjustedLogDensity.on_nodes, and
    evaluates the kept nodes by AdjustedLogDensity.power_sums where its rho
    guard allows, by on_nodes blocks otherwise.  Returns (A_hat, B_hat, v,
    inv_info): A_hat is the mode and inv_info the curvature there.
    """
    ell = AdjustedLogDensity(data, prior)
    (alpha0, lo, hi), = _search_range(data.V, [ell.residual_ss()], data.k - data.r)
    alpha_hat, _, d2 = _newton_alpha(ell.derivatives, alpha0, lo, hi)
    return math.exp(alpha_hat), *quadrature_moments(ell, alpha_hat, -d2), -d2


def fit(data: TwoLevelData, prior: PriorSpec, method: FitMethod) -> ShrinkagePosterior:
    """Fit the Level-2 variance and the shrinkage factors by `method`.

    validate runs once: for ADM and exact Bayes it raises NonpositiveC
    unless c > 0 and TooFewUnits when k - r <= 2c (at any V); MLE and REML
    ignore the prior and raise TooFewUnits when k <= r.  Equal variances
    take the closed forms of ADM and exact Bayes (equal_variance_moments,
    at any c); otherwise ADM finds its mode by Newton and exact Bayes
    integrates over A by quadrature.

    MLE maximizes the likelihood of the known-means model when r = 0 and the
    profile likelihood (beta maximized out) when r >= 1; REML the marginal
    density of A after integrating beta against a flat prior, which is the
    same objective at r = 0.  Their boundary estimate A_hat = 0 is reported
    exactly, with B_hat = 1 and the plug-in convention v = 0.

    The fitters return (A_hat, B_hat, v, inv_info); what each method reports
    is set here alone: inv_info and the Beta parameters a1 = inv_info/(1 - B),
    a0 = inv_info/B for ADM only, and the boundary flag for MLE and REML.
    """
    plugin = method is FitMethod.MLE or method is FitMethod.REML
    adm = method is FitMethod.ADM
    validate(data, PriorSpec() if plugin else prior, method)
    if plugin:
        A_hat, B, v, inv_info = _fit_plugin(data, method)
    elif data.equal_variances:
        V, k = float(data.V[0]), data.k
        T = residual_ss(data) / (2.0 * V)
        moments = equal_variance_moments(method, [T], 0.5 * (k - data.r - 2.0), prior.c)
        B, v, inv_info = (None if x is None else float(x[0]) for x in moments)
        A_hat, B, v = V * (1.0 - B) / B, np.full(k, B), np.full(k, v)
    else:
        A_hat, B, v, inv_info = (_fit_adm if adm else _fit_exact)(data, prior)
    return ShrinkagePosterior(
        A_hat=A_hat,
        B_hat=B,
        v=v,
        inv_info=inv_info if adm else None,
        a1=inv_info / (1.0 - B) if adm else None,
        a0=inv_info / B if adm else None,
        boundary=plugin and A_hat == 0.0,
        method=method,
    )
