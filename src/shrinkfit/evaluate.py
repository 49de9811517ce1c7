"""Seeded Monte-Carlo harness for interval coverage, calibrated risk, and
ADM-vs-exact approximation accuracy, plus the deterministic shrinkage and
variance curve tables.

Reproducibility contract: each (gridpoint, replication) pair gets its own
counter-based Philox stream keyed by (seed, gridpoint, rep), and all
reductions run in a fixed order, so identical configurations produce
bit-identical results for any number of worker processes.  The scoring's
Normal CDF is specfun.ndtr, so a simulation loads no SciPy module.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial
from itertools import chain

import numpy as np

from .fitters import (
    FitMethod,
    _newton_alpha,
    adm_moments_equal,
    equal_variance_moments,
    exact_moments_equal,
    fit,
    mle_known_means,
    mle_shrinkage_equal,
)
from .density import beta_and_projection_diag
from .inference import shrunken_moments
from .model import PriorSpec, TwoLevelData, check_c, validate
from .specfun import ndtr

TWO_GROUP_V = (0.55,) * 5 + (5.5,) * 5  # harmonic mean 1.0, 10x spread
EQUAL_VARIANCE_KS = (4, 10, 20)  # the unit counts of the equal-variance sweep


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class SimConfig:
    """One coverage experiment: a grid of true shrinkage levels B0 (relative
    to the reference variance V0, so A = V0 (1 - B0)/B0), `reps` replications
    per gridpoint, and the methods to score.  The unit count k and the
    covariate count r are read off V and X."""

    V: tuple[float, ...]
    X: object  # "none", "intercept", or a k-by-r nested tuple
    beta_true: tuple[float, ...]
    grid: tuple[float, ...]
    V0: float
    reps: int
    seed: int
    methods: tuple[FitMethod, ...]
    z_star: float = 1.96
    c: float = 1.0

    @property
    def k(self) -> int:
        return len(self.V)

    @property
    def r(self) -> int:
        X = _design_matrix(self)
        return 0 if X is None else X.shape[1]


def equal_variance_grid(n: int = 100) -> tuple[float, ...]:
    """True-shrinkage grid 0.005 ... 0.995 (the full 100-point version steps
    by 0.01); smaller n keeps the endpoints."""
    return tuple(float(b) for b in np.linspace(0.005, 0.995, n))


def two_group_grid(n: int = 50) -> tuple[float, ...]:
    """True-shrinkage grid 0.01, 0.03, ..., 0.99 at n = 50."""
    return tuple(float(b) for b in np.linspace(0.01, 0.99, n))


def equal_variance_config(
    k: int,
    *,
    seed: int,
    reps: int = 1000,
    grid: tuple[float, ...] | None = None,
    methods: tuple[FitMethod, ...] = (FitMethod.EXACT, FitMethod.ADM, FitMethod.MLE),
    V: float = 1.0,
    z_star: float = 1.96,
    c: float = 1.0,
) -> SimConfig:
    """Equal variances, known means (r = 0), shrinking toward zero."""
    return SimConfig(
        V=(float(V),) * k,
        X="none",
        beta_true=(),
        grid=equal_variance_grid() if grid is None else tuple(grid),
        V0=float(V),
        reps=reps,
        seed=seed,
        methods=tuple(methods),
        z_star=z_star,
        c=c,
    )


def two_group_config(
    *,
    seed: int,
    reps: int = 100,
    grid: tuple[float, ...] | None = None,
    methods: tuple[FitMethod, ...] = (FitMethod.ADM,),
    beta_true: tuple[float, ...] = (0.0,),
    z_star: float = 1.96,
    c: float = 1.0,
) -> SimConfig:
    """The two-group design: k = 10, five variances at 0.55 and five at 5.5,
    shrinking toward an estimated common mean (intercept-only regression)."""
    return SimConfig(
        V=TWO_GROUP_V,
        X="intercept",
        beta_true=tuple(beta_true),
        grid=two_group_grid() if grid is None else tuple(grid),
        V0=1.0,
        reps=reps,
        seed=seed,
        methods=tuple(methods),
        z_star=z_star,
        c=c,
    )


def _design_matrix(cfg: SimConfig) -> np.ndarray | None:
    if isinstance(cfg.X, str):
        if cfg.X == "none":
            return None
        if cfg.X == "intercept":
            return np.ones((cfg.k, 1))
        raise ValueError(f"unknown design {cfg.X!r}")
    X = np.asarray(cfg.X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return X


def _check_config(cfg: SimConfig) -> None:
    """Raise on a config that cannot run; the design is checked, before any
    draw, as the data of a TwoLevelData with V and X, and with the prior
    A^(c-1) for each method (validate: c > 0 and the k - r rules)."""
    if not all(0.0 < v < math.inf for v in cfg.V):
        raise ValueError("all variances must be finite and positive")
    if not 0.0 < cfg.V0 < math.inf:
        raise ValueError("V0 must be finite and positive")
    if cfg.reps < 1:
        raise ValueError("reps must be at least 1")
    if not cfg.grid or any(not (0.0 < b < 1.0) for b in cfg.grid):
        raise ValueError("grid values must lie strictly inside (0, 1)")
    if not cfg.methods:
        raise ValueError("at least one method is required")
    if not 0.0 < cfg.z_star < math.inf:
        raise ValueError("z_star must be finite and positive")
    design = TwoLevelData(np.zeros(cfg.k), cfg.V, _design_matrix(cfg))
    if len(cfg.beta_true) != design.r:
        raise ValueError("beta_true must have one entry per covariate")
    for method in cfg.methods:
        validate(design, PriorSpec(cfg.c), method)


# ---------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class SimRow:
    """Aggregates for one (gridpoint, method, unit-group) cell."""

    k: int
    r: int
    b0: float
    A: float
    method: str
    group: str
    n_units: int
    reps: int
    coverage: float
    coverage_se: float
    coverage_raw: float
    coverage_raw_se: float
    risk: float
    risk_se: float
    boundary_rate: float
    mean_B_hat: float
    mean_v: float
    rmse: float
    mean_halfwidth: float


_CSV_COLUMNS = [f.name for f in fields(SimRow)]


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    rows: tuple[SimRow, ...]

    def to_csv_bytes(self) -> bytes:
        return csv_text(_CSV_COLUMNS, map(astuple, self.rows)).encode()

    def to_csv(self, path) -> None:
        write_csv(path, _CSV_COLUMNS, map(astuple, self.rows))

    def json_payload(self) -> dict:
        cfg = asdict(self.config)
        methods = [m.value for m in self.config.methods]
        cfg.update(k=self.config.k, r=self.config.r, methods=methods)
        return {"schema": 1, "config": cfg, "rows": [asdict(row) for row in self.rows]}

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.json_payload(), indent=1, sort_keys=True) + "\n").encode()


def csv_text(header, rows) -> str:
    """A header line and one line per row; floats are written with repr, so
    they read back bit for bit."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(x) if isinstance(x, float) else str(x) for x in row] for row in rows)
    return buf.getvalue()


def write_csv(path, header, rows) -> None:
    """Write csv_text(header, rows) to `path`, or to stdout when it is None."""
    text = csv_text(header, rows)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Coverage simulation


def _rep_rng(seed: int, gridpoint: int, rep: int) -> np.random.Generator:
    """Counter-based stream for one replication: the key carries the user
    seed, the high counter words carry (gridpoint, rep), so the stream is
    independent of any execution schedule."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0x9E3779B97F4A7C15], dtype=np.uint64)
    counter = np.array([0, 0, gridpoint, rep], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def _rep_rngs(seed: int, gridpoint: int, reps: int):
    """The streams _rep_rng(seed, gridpoint, rep) for rep = 0 .. reps - 1,
    yielded in turn as one Generator: before each yield its Philox is given
    the counter of the next replication and an empty buffer (buffer_pos 4,
    no cached 32-bit half), which is cheaper than a new Philox each time."""
    rng = _rep_rng(seed, gridpoint, 0)
    state = rng.bit_generator.state  # a copy, taken while the buffer is empty
    for rep in range(reps):
        state["state"]["counter"][3] = rep
        rng.bit_generator.state = state
        yield rng


def _group_label(v: float) -> str:
    """'V=' and v's %g form, or its repr when %g does not read back as v."""
    short = f"{v:g}"
    return f"V={short if float(short) == v else repr(v)}"


def _group_slices(V: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """Units grouped by distinct variance, in order of first appearance."""
    seen: dict[float, None] = {}
    for v in V:
        seen.setdefault(float(v), None)
    values = list(seen)
    if len(values) == 1:
        return [("all", np.arange(V.size))]
    return [(_group_label(v), np.flatnonzero(V == v)) for v in values]


def _fit_replications(cfg: SimConfig, method: FitMethod, y: np.ndarray, ss: list | None):
    """B, v, fitted Level-2 means and projection diagonals p_ii of every
    replication (row of y), each broadcasting to y's shape; when r = 0 the
    means are the known zeros and p_ii = 0.

    At r = 0 no per-replication dataset or posterior is built (run_coverage
    validated the design and prior before any draw): with equal variances
    ADM and exact Bayes are closed forms in each replication's T = S/2V
    (equal_variance_moments over the replications' T), and MLE and REML run
    on all replications at once (mle_known_means).  Both take S from ss,
    each replication's float(y @ y), which the gridpoint forms once for all
    its methods (None when r >= 1).  Any other pair runs the scalar `fit` on
    each replication, with beta_hat and p_ii at A_hat from
    beta_and_projection_diag when r >= 1.
    """
    prior = PriorSpec(c=cfg.c)
    V = np.asarray(cfg.V, dtype=float)
    X = _design_matrix(cfg)
    reps, k = y.shape
    if method in (FitMethod.ADM, FitMethod.EXACT) and X is None and V.max() == V.min():
        two_v = 2.0 * float(V[0])
        B, v, _ = equal_variance_moments(method, [s / two_v for s in ss], 0.5 * (k - 2.0), prior.c)
        return B[:, None], v[:, None], 0.0, 0.0
    if X is None and method in (FitMethod.MLE, FitMethod.REML):
        A_hat = mle_known_means(y, V, ss)[:, None]
        return V / (V + A_hat), 0.0, 0.0, 0.0
    B, v = np.empty((reps, k)), np.empty((reps, k))
    mean, p_diag = (0.0, 0.0) if X is None else (np.empty((reps, k)), np.empty((reps, k)))
    for i in range(reps):
        data = TwoLevelData(y[i], V, X)
        shr = fit(data, prior, method)
        B[i], v[i] = shr.B_hat, shr.v
        if X is not None:
            beta, p_diag[i] = beta_and_projection_diag(shr.A_hat, data)
            mean[i] = data.X @ beta
    return B, v, mean, p_diag


def _simulate_gridpoint(cfg: SimConfig, g: int) -> list[SimRow]:
    """Rows of gridpoint g: every replication fills its (2, k) normals from
    its own stream, theta and y follow for all replications at once, each
    method is fitted to all of them by _fit_replications, and the intervals
    of all methods are scored in one pass over (methods, reps, k) arrays
    (two Normal CDFs in one specfun.ndtr call).  Each (method, group) row
    reduces the same elements in the same order as a pass per method would,
    so the rows keep their bits.  The reductions are the ufunc calls of
    numpy's mean, std(ddof=1) and nanmean (_mean, _mean_rows, _sd,
    _nanmean_rows) without their Python wrappers, each on the array
    a[j][:, idx] those were given.  That fancy-indexed copy stays even for
    the one group of all units: it is Fortran-ordered, so its axis-1 sums
    run sequentially along each row, where a C-ordered view, or the whole
    (methods, reps, k) array at once, would sum in another order and move
    the figures' last bits."""
    b0 = cfg.grid[g]
    A = cfg.V0 * (1.0 - b0) / b0
    V = np.asarray(cfg.V, dtype=float)
    X = _design_matrix(cfg)
    beta_true = np.asarray(cfg.beta_true, dtype=float)
    mu_true = X @ beta_true if X is not None else np.zeros(cfg.k)
    B_true = V / (V + A)
    sigma_cond = np.sqrt(V * (1.0 - B_true))
    z = cfg.z_star
    k, r, reps = cfg.k, cfg.r, cfg.reps

    normals = np.empty((reps, 2, k))
    for rep, rng in enumerate(_rep_rngs(cfg.seed, g, reps)):
        rng.standard_normal(out=normals[rep])
    theta = mu_true + math.sqrt(A) * normals[:, 0]
    y = theta + np.sqrt(V) * normals[:, 1]
    cond_mean = (1.0 - B_true) * y + B_true * mu_true

    ss = [float(s) for s in map(np.dot, y, y)] if X is None else None
    B, v, mean, p_diag = np.empty((4, len(cfg.methods), reps, k))  # each (methods, reps, k)
    for j, method in enumerate(cfg.methods):
        B[j], v[j], mean[j], p_diag[j] = _fit_replications(cfg, method, y, ss)
    th, s2 = shrunken_moments(y, V, B, v, mean, p_diag)
    half = z * np.sqrt(s2)
    centered = th - cond_mean
    cdf = ndtr(np.stack([centered + half, centered - half]) / sigma_cond)
    cov_rb = cdf[0] - cdf[1]
    ok = s2 > 0.0
    risk = np.where(
        ok, (V * (1.0 - B_true) + centered * centered) / np.where(ok, s2, 1.0), np.nan
    )
    raw = np.abs(theta - th) <= half
    sqerr = (th - theta) ** 2
    rows: list[SimRow] = []
    groups = _group_slices(V)
    for j, method in enumerate(cfg.methods):
        for label, idx in groups:
            per_rep_cov = _mean_rows(cov_rb[j][:, idx])
            per_rep_raw = _mean_rows(raw[j][:, idx])
            ok_g = ok[j][:, idx]
            risk_vals = risk[j][:, idx][ok_g]
            # replications where every unit of the group sits on the s2 = 0
            # boundary contribute no risk and are left out of its standard error
            has_risk = np.logical_or.reduce(ok_g, axis=1)
            per_rep_risk = _nanmean_rows(risk[j][has_risk][:, idx])
            n_risk = per_rep_risk.size
            rows.append(
                SimRow(
                    k=k,
                    r=r,
                    b0=float(b0),
                    A=float(A),
                    method=method.value,
                    group=label,
                    n_units=int(idx.size),
                    reps=reps,
                    coverage=_mean(per_rep_cov),
                    coverage_se=_sd(per_rep_cov) / math.sqrt(reps) if reps > 1 else 0.0,
                    coverage_raw=_mean(per_rep_raw),
                    coverage_raw_se=_sd(per_rep_raw) / math.sqrt(reps) if reps > 1 else 0.0,
                    risk=_mean(risk_vals) if risk_vals.size else float("nan"),
                    risk_se=_sd(per_rep_risk) / math.sqrt(n_risk) if n_risk > 1 else 0.0,
                    boundary_rate=1.0 - _mean(ok_g),
                    mean_B_hat=_mean(B[j][:, idx]),
                    mean_v=_mean(v[j][:, idx]),
                    rmse=math.sqrt(_mean(sqerr[j][:, idx])),
                    mean_halfwidth=_mean(half[j][:, idx]),
                )
            )
    return rows


# The row reductions of _simulate_gridpoint: ndarray.mean, .std(ddof=1) and
# np.nanmean step for step (numpy's _methods._mean and _var), by the ufuncs
# those call, so every figure keeps its bits without their Python wrappers.


def _mean(a: np.ndarray) -> float:
    """a.mean() of a float or bool array: its np.add.reduce in float64,
    divided by the count."""
    return float(np.add.reduce(a, None, float)) / a.size


def _mean_rows(a: np.ndarray) -> np.ndarray:
    """a.mean(axis=1) of a 2-d float or bool array."""
    total = np.add.reduce(a, 1, float)
    total /= a.shape[1]
    return total


def _sd(x: np.ndarray) -> float:
    """x.std(ddof=1) of a 1-d float array of two or more elements."""
    dev = x - float(np.add.reduce(x)) / x.size
    dev *= dev
    return math.sqrt(float(np.add.reduce(dev)) / (x.size - 1))


def _nanmean_rows(a: np.ndarray) -> np.ndarray:
    """np.nanmean(a, axis=1) of a 2-d float array the caller owns (its NaNs
    are overwritten by 0) with a number in every row."""
    nan = np.isnan(a)
    np.copyto(a, 0.0, where=nan)
    total = np.add.reduce(a, 1)
    total /= np.add.reduce(~nan, 1, np.intp)
    return total


def run_coverage(cfg: SimConfig, threads: int | None = None) -> SimResult:
    """Run the coverage/risk experiment over the whole grid.

    Gridpoints are independent and may run in worker processes (`threads`);
    results are assembled in grid order, so the output is identical for any
    thread count.
    """
    _check_config(cfg)
    indices = range(len(cfg.grid))
    workers = 1 if threads is None else max(1, min(int(threads), len(cfg.grid)))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(partial(_simulate_gridpoint, cfg), indices))
    else:
        parts = [_simulate_gridpoint(cfg, g) for g in indices]
    return SimResult(config=cfg, rows=tuple(chain.from_iterable(parts)))


# ---------------------------------------------------------------------------
# Approximation accuracy (ADM vs exact random-effect estimates)


@dataclass(frozen=True)
class AccuracyRow:
    k: int
    exact_shrinkage: float
    T: float
    ratio: float


@dataclass(frozen=True)
class AccuracyResult:
    max_ratio: float
    k_at_max: int
    shrinkage_at_max: float
    rows: tuple[AccuracyRow, ...]


def run_accuracy(
    k_values=range(3, 61),
    shrinkage_grid=None,
) -> AccuracyResult:
    """Worst-case relative loss of the ADM random-effect estimates against
    the exact ones (equal variances, r = 0, c = 1):

        sum_i (theta_adm_i - theta_exact_i)^2 / sum_i s_exact_i^2
        = (B_adm - B_exact)^2 S+ / (k V (1 - B_exact) + v_exact S+),

    swept over k and a grid of exact-shrinkage levels (each level is realized
    by solving for the S+ = 2 T V that produces it); V cancels, so V = 1."""

    def solve_T(b: float, m: float) -> float:
        """Invert the decreasing exact shrinkage curve B(T) = b by Newton in
        x = log T from T = m/b, on the score B(e^x) - b of slope -v e^x."""

        def score(x: float) -> tuple[float, float]:
            B, v = exact_moments_equal(math.exp(x), m)
            return float(B) - b, -float(v) * math.exp(x)

        return math.exp(_newton_alpha(score, math.log(m / b), -25.0, 25.0)[0])

    if shrinkage_grid is None:
        shrinkage_grid = [round(0.05 + 0.01 * j, 10) for j in range(91)]
    rows = []
    best = None
    for k in k_values:
        m = 0.5 * (k - 2.0)
        b_max = m / (m + 1.0)
        for b in shrinkage_grid:
            if b >= b_max - 1e-9:
                continue
            T = solve_T(float(b), m)
            s_plus = 2.0 * T  # at V = 1
            B_e, v_e = (float(x) for x in exact_moments_equal(T, m))
            B_a, _, _ = adm_moments_equal(T, m, 1.0)
            ratio = (B_a - B_e) ** 2 * s_plus / (k * (1.0 - B_e) + v_e * s_plus)
            row = AccuracyRow(k=int(k), exact_shrinkage=float(b), T=T, ratio=ratio)
            rows.append(row)
            if best is None or ratio > best.ratio:
                best = row
    return AccuracyResult(
        max_ratio=best.ratio,
        k_at_max=best.k,
        shrinkage_at_max=best.exact_shrinkage,
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# Deterministic shrinkage/variance curves (no simulation)


@dataclass(frozen=True)
class CurveRow:
    k: int
    r: int
    c: float
    m: float
    T: float
    method: str
    B_hat: float
    v: float


def curve_rows(k_values, t_grid, r: int = 0, c: float = 1.0) -> tuple[CurveRow, ...]:
    """Shrinkage B(T) and variance v tables for the exact, ADM, and MLE rules
    (equal variances, T the residual sum of squares over 2V); these
    reproduce the deterministic comparison figures.  c must be finite and
    positive (NonpositiveC), as for a fit."""
    check_c(c)
    rows = []
    t_grid = [float(T) for T in t_grid]
    if not all(0.0 <= T < math.inf for T in t_grid):
        raise ValueError("T must be finite and nonnegative")
    for k in k_values:
        m = 0.5 * (k - r - 2.0)
        if m + 1.0 <= c:
            raise ValueError(f"k={k}, r={r} too small for c={c}")
        exact, adm = ([x.tolist() for x in equal_variance_moments(method, t_grid, m, c)[:2]]
                      for method in (FitMethod.EXACT, FitMethod.ADM))
        for T, B_e, v_e, B_a, v_a in zip(t_grid, *exact, *adm):
            B_m = mle_shrinkage_equal(T, k)
            rows.append(CurveRow(k, r, c, m, T, "exact", B_e, v_e))
            rows.append(CurveRow(k, r, c, m, T, "adm", B_a, v_a))
            rows.append(CurveRow(k, r, c, m, T, "mle", B_m, 0.0))
    return tuple(rows)
