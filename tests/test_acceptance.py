"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s -v` to see every line.  The
Monte-Carlo criteria fix SEED below; bit-reproducibility across thread
counts is itself one of the criteria.
"""

import math
import time

import numpy as np
import pytest

from shrinkfit import FitMethod, PriorSpec, TwoLevelData, fit
from shrinkfit.density import AdjustedLogDensity, residual_ss
from shrinkfit.evaluate import (
    equal_variance_config,
    equal_variance_grid,
    run_accuracy,
    run_coverage,
    two_group_config,
    two_group_grid,
)
from shrinkfit.fitters import _fit_adm, _fit_exact, adm_beta_moments

SEED = 20110607
EQUAL_KS = (4, 10, 20)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_equal_dataset(rng, c_choices=(0.5, 1.0)):
    k = int(rng.integers(4, 51))
    r = int(rng.integers(0, 2))
    V = float(rng.uniform(0.2, 5.0))
    A = float(rng.uniform(0.0, 8.0)) * V
    X = np.ones((k, 1)) if r else None
    mean = np.full(k, float(rng.normal(0.0, 2.0))) if r else np.zeros(k)
    y = mean + rng.normal(0.0, math.sqrt(V + A), k)
    c = float(rng.choice(c_choices))
    return TwoLevelData(y, np.full(k, V), X), PriorSpec(c=c)


@pytest.fixture(scope="module")
def equal_sweep():
    grid = equal_variance_grid(25)
    t0 = time.monotonic()
    results = {
        k: run_coverage(
            equal_variance_config(k, seed=SEED, reps=1000, grid=grid), threads=2
        )
        for k in EQUAL_KS
    }
    return results, time.monotonic() - t0


@pytest.fixture(scope="module")
def two_group_result():
    t0 = time.monotonic()
    res = run_coverage(two_group_config(seed=SEED, reps=100), threads=2)
    return res, time.monotonic() - t0


def test_criterion_1_closed_form_vs_general_optimizer():
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    worst_b = worst_v = 0.0
    for _ in range(1000):
        data, prior = _random_equal_dataset(rng)
        closed = fit(data, prior, FitMethod.ADM)
        _, B, v, _ = _fit_adm(data, prior)
        worst_b = max(worst_b, float(np.max(np.abs(closed.B_hat - B))))
        worst_v = max(worst_v, float(np.max(np.abs(closed.v - v))))
    elapsed = time.monotonic() - t0
    ok = worst_b <= 1e-8 and worst_v <= 1e-6 and elapsed < 10.0
    report(
        1,
        ok,
        f"1000 equal-variance datasets: max|dB|={worst_b:.2e} (<=1e-8), "
        f"max|dv|={worst_v:.2e} (<=1e-6), {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_exact_formula_vs_quadrature():
    rng = np.random.default_rng(202)
    t0 = time.monotonic()
    worst_b = worst_v = 0.0
    for _ in range(200):
        data, _ = _random_equal_dataset(rng, c_choices=(1.0,))
        prior = PriorSpec(c=1.0)
        closed = fit(data, prior, FitMethod.EXACT)
        _, B, v, _ = _fit_exact(data, prior)
        worst_b = max(worst_b, float(np.max(np.abs(closed.B_hat - B))))
        worst_v = max(worst_v, float(np.max(np.abs(closed.v - v))))
    elapsed = time.monotonic() - t0
    ok = worst_b <= 1e-7 and worst_v <= 1e-7 and elapsed < 30.0
    report(
        2,
        ok,
        f"200 equal-variance datasets: max|dB|={worst_b:.2e}, max|dv|={worst_v:.2e} "
        f"(both <=1e-7), {elapsed:.1f}s (<30s)",
    )


def test_criterion_3_beta_recovery_exactness():
    worst_mean = worst_var = 0.0
    for a1, a0 in ((2.0, 3.0), (5.0, 1.0), (0.5, 0.5)):

        # the Beta(a1, a0) log-density a1 log B + a0 log(1 - B) in alpha,
        # B = 1/(1 + exp(alpha)): its first two derivatives
        def derivatives(alpha, a1=a1, a0=a0):
            B = 1.0 / (1.0 + math.exp(alpha))
            return -a1 * (1.0 - B) + a0 * B, -(a1 + a0) * B * (1.0 - B)

        B, v, _, _ = adm_beta_moments(derivatives, 0.0)
        mean_true = a1 / (a1 + a0)
        var_true = mean_true * (1.0 - mean_true) / (a1 + a0 + 1.0)
        worst_mean = max(worst_mean, abs(B - mean_true) / mean_true)
        worst_var = max(worst_var, abs(v - var_true) / var_true)
    ok = worst_mean <= 1e-13 and worst_var <= 1e-13
    report(
        3,
        ok,
        f"Beta(a1,a0) recovery: rel err mean={worst_mean:.2e}, var={worst_var:.2e} "
        "(machine precision, <=1e-13)",
    )


def test_criterion_4_accuracy_ratio_surface():
    t0 = time.monotonic()
    res = run_accuracy(k_values=range(3, 61))
    elapsed = time.monotonic() - t0
    k4_max = max(r.ratio for r in res.rows if r.k == 4)
    ok = (
        0.009 <= res.max_ratio <= 0.013
        and 14 <= res.k_at_max <= 26
        and 0.50 <= res.shrinkage_at_max <= 0.70
        and k4_max < res.max_ratio
        and elapsed < 60.0
    )
    report(
        4,
        ok,
        f"max ratio {res.max_ratio:.4f} in [0.009, 0.013] at k={res.k_at_max} "
        f"(near 20), shrinkage {res.shrinkage_at_max:.2f} (near 0.6); k=4 max "
        f"{k4_max:.4f} below it; {elapsed:.1f}s (<60s)",
    )


def test_criterion_5_equal_variance_coverage(equal_sweep):
    results, elapsed = equal_sweep
    adm_margin = math.inf
    exact_min = math.inf
    for k, res in results.items():
        for row in res.rows:
            if row.method == "adm":
                adm_margin = min(
                    adm_margin, row.coverage - (0.945 - 3.0 * row.coverage_se)
                )
            elif row.method == "exact":
                exact_min = min(exact_min, row.coverage)
    exact_k20 = [r for r in results[20].rows if r.method == "exact"]
    argmin_b = min(exact_k20, key=lambda r: r.coverage).b0
    ok = (
        adm_margin >= 0.0
        and exact_min >= 0.940
        and 0.1 <= argmin_b <= 0.65
        and elapsed < 300.0
    )
    report(
        5,
        ok,
        f"ADM margin over (0.945-3se): {adm_margin:+.4f}; exact min "
        f"{exact_min:.4f} (>=0.940) with k=20 argmin at B={argmin_b:.3f} "
        f"(near 0.4); sweep {elapsed:.0f}s (<300s)",
    )


def test_criterion_6_mle_failure_mode(equal_sweep):
    results, _ = equal_sweep
    reps = 1000
    tol = 3.0 * math.sqrt(0.25 / reps)
    worst_cov = -math.inf
    worst_boundary_margin = math.inf
    for k, res in results.items():
        mle = [r for r in res.rows if r.method == "mle"]
        at_995 = [r for r in mle if abs(r.b0 - 0.995) < 1e-9]
        worst_cov = max(worst_cov, max(r.coverage for r in at_995))
        thresh_A = 2.0 / (3.0 * k)  # V = 1
        for row in mle:
            if row.A <= thresh_A:
                worst_boundary_margin = min(
                    worst_boundary_margin, row.boundary_rate - (0.5 - tol)
                )
    ok = worst_cov < 0.55 and worst_boundary_margin >= 0.0
    report(
        6,
        ok,
        f"MLE coverage at B=0.995: worst {worst_cov:.3f} (<0.55); boundary-rate "
        f"margin over (0.5-3se) where A<=2V/3k: {worst_boundary_margin:+.4f}",
    )


def _risk_clause(rows):
    """Criterion 7's risk clause: no cell's calibrated risk lies more than
    3 Monte-Carlo standard errors above 1.  The true risk sits within a few
    thousandths of 1 at the left edge of the grid, for ADM and the exact Bayes
    rule alike, so a strict `risk < 1.0` would test 100-rep noise.  Returns
    (flagged cells, worst (risk - 1)/risk_se)."""
    flagged = [r for r in rows if not r.risk <= 1.0 + 3.0 * r.risk_se]
    worst_z = max((r.risk - 1.0) / r.risk_se for r in rows)
    return flagged, worst_z


def test_criterion_7_two_group(two_group_result):
    res, elapsed = two_group_result
    cov_margin = min(r.coverage - (0.95 - 3.0 * r.coverage_se) for r in res.rows)
    risks = [r.risk for r in res.rows]
    n_over = sum(1 for x in risks if x >= 1.0)
    flagged, worst_z = _risk_clause(res.rows)
    cov_ok = cov_margin >= 0.0
    risk_ok = not flagged
    ok = cov_ok and risk_ok and elapsed < 300.0
    report(
        7,
        ok,
        f"coverage clause {'PASS' if cov_ok else 'FAIL'} (margin {cov_margin:+.4f}); "
        f"risk<=1+3se clause {'PASS' if risk_ok else 'FAIL'} "
        f"({len(flagged)}/{len(risks)} cells flagged, worst {worst_z:+.2f} se; "
        f"{n_over} cells >= 1.0, max {max(risks):.3f}); "
        f"{elapsed:.0f}s (<300s)",
    )


def test_criterion_7_risk_clause_rejects_reml():
    # REML plugs in v = 0, so its intervals are too short: the same clause
    # must flag it on mid-grid cells at the same replication count
    grid = two_group_grid()[20:24]
    res = run_coverage(
        two_group_config(seed=SEED, reps=100, grid=grid, methods=(FitMethod.REML,)),
        threads=2,
    )
    flagged, worst_z = _risk_clause(res.rows)
    assert flagged, f"REML passed the risk clause (worst {worst_z:+.2f} se)"


def test_criterion_8_thread_count_determinism(equal_sweep, two_group_result, tmp_path):
    results, _ = equal_sweep
    tg, _ = two_group_result
    identical = True
    for k, res in results.items():
        redo = run_coverage(res.config, threads=1)
        a, b = tmp_path / f"eq{k}_a.csv", tmp_path / f"eq{k}_b.csv"
        res.to_csv(a)
        redo.to_csv(b)
        identical &= a.read_bytes() == b.read_bytes()
        identical &= res.to_json_bytes() == redo.to_json_bytes()
    redo_tg = run_coverage(tg.config, threads=1)
    a, b = tmp_path / "tg_a.csv", tmp_path / "tg_b.csv"
    tg.to_csv(a)
    redo_tg.to_csv(b)
    identical &= a.read_bytes() == b.read_bytes()
    identical &= tg.to_json_bytes() == redo_tg.to_json_bytes()
    report(
        8,
        identical,
        "criteria 5-7 outputs byte-identical when rerun with a different "
        "thread count (2 vs 1)",
    )


def test_criterion_9_identity_checks():
    rng = np.random.default_rng(909)
    h = 1e-3

    def fd5(f, x):
        return (
            -f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)
        ) / (12 * h * h)

    worst_identity = 0.0
    for _ in range(100):
        k = int(rng.integers(5, 25))
        r = int(rng.integers(0, 3))
        V = rng.uniform(0.2, 5.0, k)
        X = None
        mean = np.zeros(k)
        if r:
            X = np.column_stack(
                [np.ones(k)] + [rng.normal(size=k) for _ in range(r - 1)]
            )
            mean = X @ rng.normal(0.0, 2.0, r)
        y = mean + rng.normal(0.0, np.sqrt(V + rng.uniform(0.0, 5.0)))
        data = TwoLevelData(y, V, X)
        prior = PriorSpec(c=1.0)
        ell = AdjustedLogDensity(data, prior)
        a_hat = math.log(_fit_adm(data, prior)[0])
        i = int(rng.integers(0, k))
        V_i = float(V[i])

        def ell_logit(t):
            B = 1.0 / (1.0 + math.exp(-t))
            A = V_i * (1.0 - B) / B
            log_f = (
                AdjustedLogDensity(data, PriorSpec(c=0.0))(math.log(A))
                + (prior.c - 1.0) * math.log(A)
                + math.log(V_i)
                - 2.0 * math.log(B)
            )
            return math.log(B * (1.0 - B)) + log_f

        d2_alpha = fd5(ell, a_hat)
        d2_logit = fd5(ell_logit, math.log(V_i) - a_hat)
        worst_identity = max(worst_identity, abs(d2_alpha - d2_logit))

    worst_resid = 0.0
    rng2 = np.random.default_rng(910)
    for _ in range(500):
        data, prior = _random_equal_dataset(rng2)
        V = float(data.V[0])
        shr = fit(data, prior, FitMethod.ADM)
        T = residual_ss(data) / (2.0 * V)
        m = 0.5 * (data.k - data.r - 2.0)
        c = prior.c
        A = shr.A_hat
        resid = (m + 1 - c) * A * A - (2 * c + T - m - 1) * V * A - c * V * V
        worst_resid = max(worst_resid, abs(resid) / (V * V))
    ok = worst_identity <= 1e-6 and worst_resid <= 1e-9
    report(
        9,
        ok,
        f"logit/log-A curvature identity: max |diff|={worst_identity:.2e} (<=1e-6) "
        f"on 100 datasets; stationarity-quadratic residual max "
        f"{worst_resid:.2e}*V^2 (<=1e-9*V^2) on 500 fits",
    )
