"""The four estimation methods for the Level-2 variance and the shrinkage
factors: ADM (adjusted density maximization), MLE, REML, and exact Bayes.

All fitters are pure functions of (data, prior) and return a
ShrinkagePosterior; they can run concurrently on different datasets.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize

from . import specfun
from .density import BLOCK_ELEMENTS, AdjustedLogDensity, NonconcaveAtMax, residual_ss
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
    "fit_adm_equal",
    "fit_adm_general",
    "fit_mle",
    "fit_reml",
    "fit_exact_equal",
    "fit_exact_quadrature",
    "adm_beta_moments",
    "adm_moments_equal",
    "exact_moments_equal",
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
_T_LIMIT = 1e-8  # below this, use the T -> 0 limits of the exact moments

# The fixed quadrature rule of quadrature_moments
_GL_NODES = 12  # Gauss-Legendre nodes per panel
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_GL_NODES)
_HALF_RANGE = 40.0  # the rule covers the mode +- this, in alpha
_MAX_WIDTH = 1.0  # widest panel, in alpha
_SKIP_DROP = 50.0  # skip panels whose edges both lie this far below the mode


class OptimizerNoBracket(ShrinkfitError):
    """No finite interior maximizer was bracketed; for the adjusted density
    this signals c too large relative to k - r."""


class NonintegrablePosterior(ShrinkfitError):
    """The posterior of A is improper (k - r <= 2c), so its moments diverge."""


# ---------------------------------------------------------------------------
# 1-D maximization in alpha = log A


def _walk_bracket(f, x0: float, lo: float, hi: float, step: float = 1.0):
    """Expand from x0 until a triple a < b < c brackets a maximum of f.

    Returns the triple, or None when f keeps rising toward `lo` (the caller
    treats that as an A = 0 boundary).  Raises OptimizerNoBracket when f is
    still rising at `hi`.
    """
    x0 = min(max(x0, lo + step), hi - step)
    f0 = f(x0)
    fp = f(x0 + step)
    fm = f(x0 - step)
    if f0 >= fp and f0 >= fm:
        return (x0 - step, x0, x0 + step)
    if fp > f0:
        b, fb, d = x0 + step, fp, step
    else:
        b, fb, d = x0 - step, fm, -step
    a, fa = x0, f0
    while True:
        d *= _GROW
        c = min(max(b + d, lo), hi)
        fc = f(c)
        if fc <= fb:
            return (a, b, c) if a < c else (c, b, a)
        if c == lo:
            return None
        if c == hi:
            raise OptimizerNoBracket(
                "objective is still increasing at the top of the search range"
            )
        a, b, fa, fb = b, c, fb, fc


def _newton_polish(f, x: float, lo: float, hi: float, iters: int = 6) -> float:
    """Sharpen a Brent maximizer with Newton steps on the central-difference
    gradient: derivative-free bracketing locates an argmax only to
    ~sqrt(eps); a few Newton steps recover ~1e-10 accuracy in alpha.
    """
    for _ in range(iters):
        h = 1e-5 * max(1.0, abs(x))
        fp, fm, f0 = f(x + h), f(x - h), f(x)
        g = (fp - fm) / (2.0 * h)
        curv = (fp - 2.0 * f0 + fm) / (h * h)
        if not (curv < 0.0) or not math.isfinite(g):
            break
        step = max(-0.5, min(0.5, -g / curv))
        xn = min(max(x + step, lo), hi)
        if abs(xn - x) <= 1e-14 * max(1.0, abs(x)):
            return xn
        x = xn
    return x


def _maximize_alpha(f, x0: float, lo: float, hi: float):
    """Bracket from x0, refine by Brent (parabolic/golden), then polish.
    Serves MLE and REML at r = 0 only (see _fit_plugin).

    Returns the maximizer, or None when the maximum sits at/below `lo`.
    """
    bracket = _walk_bracket(f, x0, lo, hi)
    if bracket is None:
        return None
    try:
        res = optimize.minimize_scalar(
            lambda a: -f(a),
            bracket=bracket,
            method="brent",
            options={"xtol": _BRENT_XTOL},
        )
        x = float(res.x)
    except ValueError:
        x = bracket[1]  # degenerate (flat) bracket; Newton below still applies
    x = min(max(x, lo), hi)
    return _newton_polish(f, x, lo, hi)


def _newton_alpha(derivatives, alpha0: float, lo: float, hi: float):
    """Root of the score l'(alpha) in [lo, hi] by safeguarded Newton from
    alpha0, where derivatives(alpha) = (l', l'') is called once per step.

    Each evaluation narrows a bracket [a, b], l' > 0 at a and l' < 0 at b,
    which starts as the whole range (its ends count as bracketing until they
    are evaluated).  A step is -l'/l'' where l'' < 0 and _MAX_STEP uphill
    otherwise, clipped to +-_MAX_STEP and to [lo, hi]; a step that leaves
    the bracket is replaced by bisection.  Stops when the step or the bracket
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
    for _ in range(_NEWTON_ITERS):
        d1, d2 = derivatives(x)
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
        x = x_new if a <= x_new <= b else 0.5 * (a + b)
    raise OptimizerNoBracket(f"Newton did not converge in {_NEWTON_ITERS} steps")


def _search_range(ell: AdjustedLogDensity) -> tuple[float, float, float]:
    """Starting point and search bounds for alpha on ell's data: start at
    log(max(A_unb, Vbar/10)) with A_unb the moment estimate of A, and floor
    the search at min(V) * 1e-12, so that the floor stays below the mode
    however widely V is spread."""
    data = ell.data
    v_bar = float(data.V.mean())
    a_unb = ell.residual_ss() / (data.k - data.r) - v_bar
    a0 = max(a_unb, v_bar / 10.0)
    alpha0 = math.log(a0)
    lo = math.log(float(data.V.min()) * _FLOOR_REL)
    hi = math.log(max(a0, v_bar)) + 45.0
    return alpha0, lo, hi


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


def exact_moments_equal(T: float, m: float) -> tuple[float, float]:
    """Exact posterior mean and variance of B for equal variances under the
    flat prior on A (c = 1).

    B_hat is the James-Stein factor m/T times a ratio of chi-square CDFs,
    evaluated in log space so small T never underflows; v comes from the
    James-Stein identity with the T -> 0 limit m/((m+1)^2 (m+2)) spliced in
    below T = 1e-8.
    """
    if T < _T_LIMIT:
        return m / (m + 1.0), m / ((m + 1.0) ** 2 * (m + 2.0))
    log_ratio = specfun.log_lower_regularized_gamma(
        m + 1.0, T
    ) - specfun.log_lower_regularized_gamma(m, T)
    B = (m / T) * math.exp(log_ratio)
    b_js = m / T
    v = B * B / m - (b_js - B) * (1.0 - (m + 1.0) / m * B)
    return B, v


def mle_shrinkage_equal(T: float, k: int) -> float:
    """Equal-variance MLE shrinkage min(1, k/2T), for any r: the profile
    likelihood, unlike REML's (k - r)/2T, does not count the r fitted means."""
    if T <= 0.0:
        return 1.0
    return min(1.0, k / (2.0 * T))


# ---------------------------------------------------------------------------
# Fitters


def _require_equal_variances(data: TwoLevelData) -> float:
    if not data.equal_variances:
        raise ValueError("this fitter requires all V_i equal")
    return float(data.V[0])


def _equal_var_stats(data: TwoLevelData) -> tuple[float, float, float]:
    V = _require_equal_variances(data)
    ss = residual_ss(data)
    T = ss / (2.0 * V)
    m = 0.5 * (data.k - data.r - 2.0)
    return V, T, m


def fit_adm_equal(data: TwoLevelData, prior: PriorSpec) -> ShrinkagePosterior:
    """Equal-variance ADM fit by the closed-form quadratic root."""
    validate(data, prior, FitMethod.ADM)
    V, T, m = _equal_var_stats(data)
    B, v, inv_info = adm_moments_equal(T, m, prior.c)
    A_hat = V * (1.0 - B) / B
    k = data.k
    return ShrinkagePosterior(
        A_hat=A_hat,
        B_hat=np.full(k, B),
        v=np.full(k, v),
        inv_info=inv_info,
        a1=np.full(k, inv_info / (1.0 - B)),
        a0=np.full(k, inv_info / B),
        boundary=False,
        method=FitMethod.ADM,
    )


def fit_adm_general(data: TwoLevelData, prior: PriorSpec) -> ShrinkagePosterior:
    """ADM fit by numerical maximization of the adjusted log-density over
    alpha = log A; handles any r >= 0 and unequal variances."""
    validate(data, prior, FitMethod.ADM)
    ell = AdjustedLogDensity(data, prior)
    alpha0, lo, hi = _search_range(ell)
    B, v, alpha_hat, inv_info = adm_beta_moments(ell.derivatives, alpha0, V=data.V, lo=lo, hi=hi)
    return ShrinkagePosterior(
        A_hat=math.exp(alpha_hat),
        B_hat=B,
        v=v,
        inv_info=inv_info,
        a1=inv_info / (1.0 - B),
        a0=inv_info / B,
        boundary=False,
        method=FitMethod.ADM,
    )


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


def _fit_plugin(data: TwoLevelData, method: FitMethod) -> ShrinkagePosterior:
    """Shared MLE/REML driver: maximize the c = 0 member of the log-density
    family over alpha, with beta maximized out (MLE) or integrated out
    (REML), detect the A = 0 boundary (A below min(V) * 1e-10), then plug in
    (v = 0 convention).  At r >= 1 both find alpha by Newton on the A-score
    (_plugin_alpha); at r = 0, where they are one objective, by bracket,
    Brent and polish (_maximize_alpha)."""
    validate(data, PriorSpec(), method)  # c only matters to ADM/exact
    ell = AdjustedLogDensity(data, PriorSpec(0.0), restricted=method is FitMethod.REML)
    alpha0, lo, hi = _search_range(ell)
    if data.r >= 1:
        alpha_hat = _plugin_alpha(ell, alpha0, lo, hi)
    else:
        alpha_hat = _maximize_alpha(ell, alpha0, lo, hi)
    boundary = alpha_hat is None or math.exp(alpha_hat) < float(data.V.min()) * _BOUNDARY_REL
    A_hat = 0.0 if boundary else math.exp(alpha_hat)
    B = data.V / (data.V + A_hat) if A_hat > 0.0 else np.ones(data.k)
    return ShrinkagePosterior(
        A_hat=A_hat,
        B_hat=B,
        v=np.zeros(data.k),
        inv_info=None,
        boundary=boundary,
        method=method,
    )


def fit_mle(data: TwoLevelData) -> ShrinkagePosterior:
    """Maximum likelihood for A: the likelihood of the known-means model when
    r = 0, the profile likelihood (beta maximized out) when r >= 1.

    The boundary estimate A_hat = 0 is reported exactly, with B_hat = 1 and
    the plug-in convention v = 0.
    """
    return _fit_plugin(data, FitMethod.MLE)


def fit_reml(data: TwoLevelData) -> ShrinkagePosterior:
    """REML: maximize the marginal density of A after integrating beta
    against a flat prior (no A-adjustment).  Coincides with fit_mle when
    r = 0."""
    return _fit_plugin(data, FitMethod.REML)


def fit_exact_equal(data: TwoLevelData, prior: PriorSpec) -> ShrinkagePosterior:
    """Exact posterior moments of B for equal variances under the flat prior
    (c = 1), via the chi-square CDF ratio."""
    validate(data, prior, FitMethod.EXACT)
    if prior.c != 1.0:
        raise ValueError("closed-form exact moments exist only for c = 1")
    V, T, m = _equal_var_stats(data)
    B, v = exact_moments_equal(T, m)
    k = data.k
    return ShrinkagePosterior(
        A_hat=V * (1.0 - B) / B,
        B_hat=np.full(k, B),
        v=np.full(k, v),
        inv_info=None,
        boundary=False,
        method=FitMethod.EXACT,
    )


def quadrature_moments(
    logpost, center: float, V: np.ndarray, inv_info: float
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of each B_i = V_i / (V_i + exp(alpha))
    under the unnormalized log-posterior `logpost` of alpha, by one fixed
    composite Gauss-Legendre rule over center +- 40.

    `logpost` maps a 1-d array of alphas to their log-densities.  `center`
    is the mode, where the curvature of `logpost` is -inv_info.  The panels
    (_GL_NODES nodes each) start at the posterior sd either side of the mode
    and double outward, capped at width _MAX_WIDTH: the B_i sigmoids and the
    slowly decaying A -> 0 tail need panels no wider than that, and a peak
    much narrower than the interval is still sampled (at k = 1e5 it is ~0.01
    wide).  A panel whose two edges both lie more than _SKIP_DROP below the
    mode is skipped; this assumes no second mode hides inside a skipped
    panel.  The exponent is shifted by its value at the mode before
    exponentiating.  With W = 1/(V + exp(alpha)) and W0 its value at the
    mode, the moments are taken in centred form, E[B_i] = V_i (W0_i +
    E[W_i - W0_i]) and Var(B_i) = V_i^2 Var(W_i - W0_i), not as E[B^2] -
    E[B]^2, which cancels when the posterior is narrow.  Every block pass
    holds about BLOCK_ELEMENTS elements.  Raises NonintegrablePosterior when
    the normalizer is not finite and positive.
    """
    h = 1.0 / math.sqrt(inv_info) if 0.0 < inv_info < math.inf else _MAX_WIDTH
    offsets = [0.0]
    while offsets[-1] < _HALF_RANGE:
        h = min(h, _MAX_WIDTH)
        offsets.append(min(offsets[-1] + h, _HALF_RANGE))
        h *= 2.0
    edges = center + np.concatenate([-np.array(offsets[:0:-1]), offsets])
    at_edges = logpost(edges)
    shift = float(at_edges[edges.size // 2])  # the mode is the middle edge
    low = at_edges < shift - _SKIP_DROP
    keep = ~(low[:-1] & low[1:])
    a, b = edges[:-1][keep], edges[1:][keep]
    half = 0.5 * (b - a)
    nodes = (0.5 * (a + b))[:, None] + half[:, None] * _GL_X
    w = (half[:, None] * _GL_W).ravel() * np.exp(logpost(nodes.ravel()) - shift)
    Z = float(w.sum())
    if not (math.isfinite(Z) and Z > 0.0):
        raise NonintegrablePosterior(f"posterior normalizer is {Z} around alpha={center}")
    A, w = np.exp(nodes.ravel()), w / Z
    W0 = 1.0 / (V + math.exp(center))
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
    return V * (W0 + m1), V * V * np.maximum(m2 - m1 * m1, 0.0)


def fit_exact_quadrature(data: TwoLevelData, prior: PriorSpec) -> ShrinkagePosterior:
    """Exact posterior mean and variance of each B_i by quadrature of the
    posterior of alpha = log A (which, including the Jacobian, is the
    adjusted density): the mode is found by Newton on the closed-form
    derivatives (_newton_alpha), whose last call also gives the curvature
    there, then quadrature_moments integrates around the mode with the block
    evaluation AdjustedLogDensity.on_nodes.
    """
    try:
        validate(data, prior, FitMethod.EXACT)
    except TooFewUnits as err:
        raise NonintegrablePosterior(
            f"posterior of A is improper: k - r <= 2c (k={data.k}, r={data.r}, c={prior.c})"
        ) from err
    ell = AdjustedLogDensity(data, prior)
    alpha0, lo, hi = _search_range(ell)
    alpha_hat, _, d2 = _newton_alpha(ell.derivatives, alpha0, lo, hi)
    EB, v = quadrature_moments(ell.on_nodes, alpha_hat, data.V, -d2)
    if data.equal_variances:
        # single shrinkage factor: report the A consistent with it
        A_hat = float(data.V[0]) * (1.0 - EB[0]) / EB[0]
    else:
        A_hat = math.exp(alpha_hat)
    return ShrinkagePosterior(
        A_hat=A_hat,
        B_hat=EB,
        v=v,
        inv_info=None,
        boundary=False,
        method=FitMethod.EXACT,
    )


def fit(data: TwoLevelData, prior: PriorSpec, method: FitMethod) -> ShrinkagePosterior:
    """Dispatch to the appropriate fitter, preferring closed forms where they
    exist (equal variances; c = 1 for the exact method)."""
    if method is FitMethod.ADM:
        if data.equal_variances:
            return fit_adm_equal(data, prior)
        return fit_adm_general(data, prior)
    if method is FitMethod.MLE:
        return fit_mle(data)
    if method is FitMethod.REML:
        return fit_reml(data)
    if method is FitMethod.EXACT:
        if data.equal_variances and prior.c == 1.0:
            return fit_exact_equal(data, prior)
        return fit_exact_quadrature(data, prior)
    raise TypeError(f"unknown method {method!r}")
