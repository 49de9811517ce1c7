import concurrent.futures
import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkfit import (
    FitMethod, NonpositiveC, PriorSpec, RankDeficientX, TooFewUnits, TwoLevelData, evaluate,
    fit, random_effects,
)
from shrinkfit.evaluate import (
    _BLOCK,
    AccuracyResult,
    SimConfig,
    SimResult,
    SimRow,
    _design_matrix,
    _group_slices,
    _rep_rng,
    _rep_rngs,
    _simulate_gridpoint,
    adm_moments_equal,
    curve_rows,
    equal_variance_config,
    equal_variance_grid,
    exact_moments_equal,
    json_chunks,
    run_accuracy,
    run_coverage,
    two_group_config,
    two_group_grid,
)
from shrinkfit.specfun import ndtr
from test_cli import _as_lists


def tiny_equal_cfg(**overrides):
    base = dict(k=6, seed=99, reps=40, grid=(0.2, 0.6, 0.95))
    base.update(overrides)
    return equal_variance_config(**base)


class TestRng:
    def test_streams_are_deterministic_and_distinct(self):
        a = _rep_rng(7, 3, 11).standard_normal(4)
        b = _rep_rng(7, 3, 11).standard_normal(4)
        c = _rep_rng(7, 3, 12).standard_normal(4)
        d = _rep_rng(7, 4, 11).standard_normal(4)
        e = _rep_rng(8, 3, 11).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)
        assert not np.array_equal(a, e)

    def test_reseated_streams_match_fresh_ones(self):
        # each replication's draws are those of its own fresh Philox, even
        # when the one before left a part-used buffer or a cached 32-bit half
        def draws(rng, rep):
            return np.concatenate([rng.standard_normal(rep % 5 + 1),
                                   rng.integers(0, 2**32, rep % 3, dtype=np.uint32),
                                   rng.random(rep % 4)])

        for seed, g in [(7, 3), (2**64 - 1, 0)]:
            reseated = [draws(rng, rep) for rep, rng in enumerate(_rep_rngs(seed, g, 12))]
            fresh = [draws(_rep_rng(seed, g, rep), rep) for rep in range(12)]
            for a, b in zip(reseated, fresh):
                assert a.tobytes() == b.tobytes()


class TestRunCoverage:
    def test_bit_reproducible_across_runs_and_threads(self):
        cfg = tiny_equal_cfg()
        r1 = run_coverage(cfg)
        r2 = run_coverage(cfg)
        assert r1 == r2
        r3 = run_coverage(cfg, threads=3)
        assert r1.to_csv_bytes() == r3.to_csv_bytes()
        assert r1.to_json_bytes() == r3.to_json_bytes()

    def test_row_layout(self):
        cfg = tiny_equal_cfg()
        res = run_coverage(cfg)
        assert len(res.rows) == 3 * 3  # gridpoints x methods, one group
        assert {row.method for row in res.rows} == {"exact", "adm", "mle"}
        assert all(row.group == "all" for row in res.rows)
        for row in res.rows:
            assert 0.0 <= row.coverage <= 1.0
            assert row.A == pytest.approx(cfg.V0 * (1 - row.b0) / row.b0)

    def test_rb_agrees_with_raw_indicators(self):
        # small configuration, many reps: the Rao-Blackwellized estimate and
        # the raw indicator estimate must agree within combined MC error
        cfg = equal_variance_config(
            4, seed=1234, reps=5000, grid=(0.5,), methods=(FitMethod.ADM,)
        )
        row = run_coverage(cfg, threads=2).rows[0]
        combined = math.hypot(row.coverage_se, row.coverage_raw_se)
        assert abs(row.coverage - row.coverage_raw) <= 3.0 * combined

    def test_risk_se_covers_seed_to_seed_spread(self):
        # the same two-group cell under two seeds: the risks must agree within
        # their combined Monte-Carlo error, per variance group
        a = run_coverage(two_group_config(seed=21, reps=400, grid=(0.3,))).rows
        b = run_coverage(two_group_config(seed=22, reps=400, grid=(0.3,))).rows
        for row_a, row_b in zip(a, b):
            assert row_a.risk_se > 0.0 and row_b.risk_se > 0.0
            combined = math.hypot(row_a.risk_se, row_b.risk_se)
            assert abs(row_a.risk - row_b.risk) <= 3.0 * combined

    def test_risk_below_one_implies_halfwidth_exceeds_rmse(self):
        cfg = equal_variance_config(
            10,
            seed=5,
            reps=400,
            grid=(0.1, 0.35, 0.6, 0.85),
            methods=(FitMethod.EXACT, FitMethod.ADM),
        )
        rows = run_coverage(cfg, threads=2).rows
        assert rows, "no rows"
        for row in rows:
            if row.risk <= 1.0:
                assert row.mean_halfwidth >= row.rmse

    def test_mle_boundary_statistics(self):
        # at B0 = 0.95, A is tiny and the MLE lands on the boundary often
        cfg = equal_variance_config(
            10, seed=11, reps=300, grid=(0.95,), methods=(FitMethod.MLE,)
        )
        row = run_coverage(cfg).rows[0]
        assert row.boundary_rate > 0.3
        assert math.isfinite(row.risk)  # boundary reps are excluded, not infinite

    def test_location_invariance_spot_check(self):
        shifted = run_coverage(
            two_group_config(seed=77, reps=60, grid=(0.3, 0.7), beta_true=(7.0,)),
            threads=1,
        )
        centered = run_coverage(
            two_group_config(seed=77, reps=60, grid=(0.3, 0.7), beta_true=(0.0,)),
            threads=1,
        )
        for a, b in zip(shifted.rows, centered.rows):
            assert a.coverage == pytest.approx(b.coverage, abs=1e-6)
            assert a.risk == pytest.approx(b.risk, abs=1e-6)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run_coverage(tiny_equal_cfg(grid=(0.0, 0.5)))
        with pytest.raises(ValueError):
            run_coverage(tiny_equal_cfg(reps=0))
        bad = SimConfig(
            V=(1.0,) * 4, X="none", beta_true=(0.0,),
            grid=(0.5,), V0=1.0, reps=4, seed=0, methods=(FitMethod.ADM,),
        )
        with pytest.raises(ValueError, match="beta_true must have one entry per covariate"):
            run_coverage(bad)

    def test_design_rows_must_match_units(self):
        X = tuple((1.0, float(i)) for i in range(5))
        cfg = SimConfig(
            V=(1.0,) * 6, X=X, beta_true=(0.0, 0.0), grid=(0.5,), V0=1.0, reps=4,
            seed=0, methods=(FitMethod.ADM,),
        )
        with pytest.raises(ValueError, match="X has 5 rows for 6 units"):
            run_coverage(cfg)

    def test_rank_deficient_design_raises_before_any_draw(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a replication was drawn")

        monkeypatch.setattr(evaluate, "_rep_rng", no_draws)
        X = tuple((1.0, float(i), 2.0 * i) for i in range(8))
        cfg = SimConfig(
            V=(1.0,) * 8, X=X, beta_true=(0.0,) * 3, grid=(0.5,), V0=1.0, reps=4,
            seed=0, methods=(FitMethod.ADM,),
        )
        with pytest.raises(RankDeficientX):
            run_coverage(cfg)

    def test_improper_prior_raises_before_any_draw_or_pool(self, monkeypatch):
        # k = 2, r = 0: k - r <= 2c for ADM and exact at c = 1
        draws = []
        monkeypatch.setattr(evaluate, "_rep_rng", lambda *args: draws.append(args))

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        # run_coverage imports the pool class from here when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = equal_variance_config(2, seed=1, reps=50, grid=(0.5, 0.6))
        with pytest.raises(TooFewUnits):
            run_coverage(cfg, threads=2)
        with pytest.raises(NonpositiveC):
            run_coverage(dataclasses.replace(tiny_equal_cfg(), c=0.0))
        assert draws == []

    @pytest.mark.parametrize("field, value, message", [
        ("V", (math.nan,) * 6, "all variances must be finite and positive"),
        ("V", (1.0,) * 5 + (math.inf,), "all variances must be finite and positive"),
        ("V0", math.nan, "V0 must be finite and positive"),
        ("V0", math.inf, "V0 must be finite and positive"),
        ("z_star", math.nan, "z_star must be finite and positive"),
        ("z_star", math.inf, "z_star must be finite and positive"),
    ])
    def test_nonfinite_config_rejected(self, field, value, message):
        cfg = dataclasses.replace(tiny_equal_cfg(), **{field: value})
        with pytest.raises(ValueError, match=message):
            run_coverage(cfg)


def per_replication_gridpoint(cfg: SimConfig, g: int) -> list[SimRow]:
    """Oracle for _simulate_gridpoint: one scalar fit and random_effects
    call per (replication, method), scored one replication at a time."""
    b0 = cfg.grid[g]
    A = cfg.V0 * (1.0 - b0) / b0
    V = np.asarray(cfg.V, dtype=float)
    X = _design_matrix(cfg)
    mu_true = X @ np.asarray(cfg.beta_true, dtype=float) if X is not None else np.zeros(cfg.k)
    B_true = V / (V + A)
    sigma_cond = np.sqrt(V * (1.0 - B_true))
    prior = PriorSpec(c=cfg.c)
    z, k, reps = cfg.z_star, cfg.k, cfg.reps
    names = ("cov_rb", "risk", "ok", "raw", "sqerr", "half", "B", "v")
    stats = {m: {name: np.empty((reps, k)) for name in names} for m in cfg.methods}
    for rep in range(reps):
        rng = _rep_rng(cfg.seed, g, rep)
        theta = mu_true + math.sqrt(A) * rng.standard_normal(k)
        y = theta + np.sqrt(V) * rng.standard_normal(k)
        data = TwoLevelData(y, V, X)
        cond_mean = (1.0 - B_true) * y + B_true * mu_true
        for method in cfg.methods:
            shr = fit(data, prior, method)
            post = random_effects(data, shr, z_star=z)
            th, s2 = post.theta_hat, post.s2
            s = np.sqrt(s2)
            centered = th - cond_mean
            ok = s2 > 0.0
            rec = stats[method]
            rec["cov_rb"][rep] = ndtr((centered + z * s) / sigma_cond) - ndtr(
                (centered - z * s) / sigma_cond
            )
            rec["risk"][rep] = np.where(
                ok,
                (V * (1.0 - B_true) + centered * centered) / np.where(ok, s2, 1.0),
                np.nan,
            )
            rec["ok"][rep] = ok
            rec["raw"][rep] = np.abs(theta - th) <= z * s
            rec["sqerr"][rep] = (th - theta) ** 2
            rec["half"][rep] = z * s
            rec["B"][rep] = shr.B_hat
            rec["v"][rep] = shr.v
    rows = []
    se = lambda x, n: float(x.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0)
    for method in cfg.methods:
        rec = stats[method]
        for label, idx in _group_slices(V):
            per_rep_cov = rec["cov_rb"][:, idx].mean(axis=1)
            per_rep_raw = rec["raw"][:, idx].mean(axis=1)
            ok = rec["ok"][:, idx].astype(bool)
            risk_vals = rec["risk"][:, idx][ok]
            per_rep_risk = np.nanmean(rec["risk"][ok.any(axis=1)][:, idx], axis=1)
            rows.append(SimRow(
                k=cfg.k, r=cfg.r, b0=float(b0), A=float(A), method=method.value,
                group=label, n_units=int(idx.size), reps=reps,
                coverage=float(per_rep_cov.mean()), coverage_se=se(per_rep_cov, reps),
                coverage_raw=float(per_rep_raw.mean()), coverage_raw_se=se(per_rep_raw, reps),
                risk=float(risk_vals.mean()) if risk_vals.size else float("nan"),
                risk_se=se(per_rep_risk, per_rep_risk.size),
                boundary_rate=float(1.0 - ok.mean()),
                mean_B_hat=float(rec["B"][:, idx].mean()),
                mean_v=float(rec["v"][:, idx].mean()),
                rmse=float(math.sqrt(rec["sqerr"][:, idx].mean())),
                mean_halfwidth=float(rec["half"][:, idx].mean()),
            ))
    return rows


ALL_METHODS = tuple(FitMethod)


class TestGridpointMatchesPerReplicationOracle:
    """The batched gridpoint reproduces the per-replication loop bit for bit
    (compared through repr, so NaN risks compare equal)."""

    @staticmethod
    def assert_bitwise(cfg):
        for g in range(len(cfg.grid)):
            assert repr(_simulate_gridpoint(cfg, g)) == repr(per_replication_gridpoint(cfg, g))

    @pytest.mark.parametrize("seed", [1, 203, 4077])
    def test_sim_equal_k10(self, seed):
        grid = equal_variance_grid(100)[::11]
        self.assert_bitwise(equal_variance_config(10, seed=seed, reps=20, grid=grid))

    def test_two_group_all_methods(self):
        self.assert_bitwise(
            two_group_config(seed=9, reps=8, grid=(0.05, 0.4, 0.9), methods=ALL_METHODS,
                             beta_true=(3.0,))
        )

    def test_equal_k4_c_half_all_methods(self):
        self.assert_bitwise(
            equal_variance_config(4, seed=31, reps=10, grid=(0.1, 0.5, 0.9),
                                  methods=ALL_METHODS, c=0.5)
        )

    def test_single_replication(self):
        self.assert_bitwise(equal_variance_config(10, seed=5, reps=1, grid=(0.3, 0.8)))
        self.assert_bitwise(two_group_config(seed=5, reps=1, grid=(0.3,), methods=ALL_METHODS))

    def test_mle_on_the_boundary(self):
        cfg = equal_variance_config(10, seed=12, reps=30, grid=(0.995,), methods=ALL_METHODS)
        rows = _simulate_gridpoint(cfg, 0)
        assert [r.boundary_rate > 0.0 for r in rows] == [False, True, True, False]
        self.assert_bitwise(cfg)

    @pytest.mark.parametrize("b0, least, most", [(0.5, 0.0, 0.2), (0.995, 0.5, 1.0)])
    def test_unequal_variances_r0_all_methods(self, b0, least, most):
        cfg = SimConfig(
            V=(0.3, 0.6, 1.0, 1.5, 2.5, 4.0) * 2, X="none", beta_true=(), grid=(b0,), V0=1.0,
            reps=25, seed=17, methods=ALL_METHODS,
        )
        rows = _simulate_gridpoint(cfg, 0)
        # near b0 = 1 MLE and REML sit on the A = 0 boundary in most replications
        for row in rows:
            if row.method in ("mle", "reml"):
                assert least < row.boundary_rate <= most
            else:
                assert row.boundary_rate == 0.0
        self.assert_bitwise(cfg)

    def test_distinct_variances_get_distinct_labels(self):
        V = (1.0000001,) * 3 + (1.0000002,) * 3
        cfg = SimConfig(
            V=V, X="none", beta_true=(), grid=(0.5,), V0=1.0, reps=4, seed=0,
            methods=(FitMethod.ADM,),
        )
        rows = run_coverage(cfg).rows
        assert [r.group for r in rows] == ["V=1.0000001", "V=1.0000002"]
        assert [label for label, _ in _group_slices(np.array([0.55, 5.5, 1.0, 1e-7]))] == [
            "V=0.55", "V=5.5", "V=1", "V=1e-07",
        ]
        self.assert_bitwise(cfg)


class TestTwoGroup:
    def test_rows_per_group(self):
        res = run_coverage(two_group_config(seed=3, reps=10, grid=(0.25, 0.75)))
        assert len(res.rows) == 2 * 2  # gridpoints x groups (one method)
        assert {row.group for row in res.rows} == {"V=0.55", "V=5.5"}
        small = [r for r in res.rows if r.group == "V=0.55"]
        assert all(r.n_units == 5 for r in small)

    def test_grid_default_matches_design(self):
        assert len(two_group_grid()) == 50
        assert two_group_grid()[0] == pytest.approx(0.01)
        assert two_group_grid()[-1] == pytest.approx(0.99)
        grid = equal_variance_grid()
        assert len(grid) == 100
        assert grid[0] == pytest.approx(0.005) and grid[-1] == pytest.approx(0.995)


class TestSerialization:
    def test_csv_round_trip(self):
        res = run_coverage(tiny_equal_cfg())
        text = res.to_csv_bytes().decode()
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(res.rows)
        first = res.rows[0]
        assert float(rows[0]["coverage"]) == first.coverage
        assert rows[0]["method"] == first.method

    def test_json_payload(self):
        res = run_coverage(tiny_equal_cfg())
        payload = json.loads(res.to_json_bytes())
        assert payload["schema"] == 1
        assert payload["config"]["seed"] == 99
        assert payload["config"]["methods"] == ["exact", "adm", "mle"]
        assert len(payload["rows"]) == len(res.rows)

    def test_config_block_keeps_k_and_r(self):
        nested = SimConfig(
            V=(1.0, 2.0, 3.0, 4.0, 5.0), X=tuple((1.0, float(i)) for i in range(5)),
            beta_true=(0.0, 0.0), grid=(0.5,), V0=1.0, reps=2, seed=0,
            methods=(FitMethod.ADM,),
        )
        for cfg, k, r in [(tiny_equal_cfg(), 6, 0), (two_group_config(seed=1), 10, 1),
                          (nested, 5, 2)]:
            config = SimResult(cfg, ()).json_payload()["config"]
            assert (config["k"], config["r"]) == (k, r)
            assert (cfg.k, cfg.r) == (k, r)


_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5,
                                   2.5e-6, 1e-9, 1e-10])
_FLOATS = st.floats() | _SPECIAL_FLOATS
_FLOAT_ARRAYS = st.lists(_FLOATS, max_size=6).map(lambda x: np.array(x, dtype=float))
_JSON_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | st.text(max_size=8)
# fit documents: dicts of scalars, None and 1-d float64 arrays
_FIT_DOCUMENTS = st.recursive(
    _JSON_SCALARS | _FLOAT_ARRAYS,
    lambda inner: st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)

_ANY_BITS = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
_ORJSON_FLOATS = st.floats(allow_nan=False, allow_infinity=False).filter(
    lambda x: not 1e-5 <= abs(x) < 1e-4)


@st.composite
def _float_arrays(draw):
    """One background value with a few elements of any kind scattered over
    it, so that blocks of either encoder sit side by side."""
    n = draw(st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1]))
    a = np.full(n, draw(_ORJSON_FLOATS | _FLOATS))
    for i, x in draw(st.lists(st.tuples(st.integers(0, n - 1), _FLOATS | _ANY_BITS), max_size=8)):
        a[i] = x
    return a


def json_text(obj) -> str:
    return "".join(json_chunks(obj))


def _assert_same_text(got, want):
    # report a mismatch by its line rather than diff megabytes of text
    if got != want:
        assert got.split("\n") == want.split("\n")


def _bits(rng, n, exponents=(0, 2048)):
    """n float64 of random sign and mantissa, biased exponent drawn from
    the half-open range `exponents` (the default spans every bit pattern)."""
    exp = rng.integers(*exponents, n, dtype=np.uint64) << np.uint64(52)
    sign = rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    return (sign | exp | rng.integers(0, 2**52, n, dtype=np.uint64)).view(np.float64)


def _ulp_neighbours(x, n):
    """The 2n + 1 floats nearest to each positive float in x, and their negatives."""
    near = (np.asarray(x).view(np.int64)[:, None] + np.arange(-n, n + 1)).view(np.float64)
    return np.concatenate([near.ravel(), -near.ravel()])


class TestJsonText:
    """json_chunks writes a fit document as json.dumps(indent=1,
    sort_keys=True) writes it with its arrays as lists."""

    @settings(max_examples=400)
    @given(obj=_FIT_DOCUMENTS)
    def test_matches_json_dumps(self, obj):
        assert json_text(obj) == json.dumps(_as_lists(obj), indent=1, sort_keys=True)

    def test_worked_example(self):
        obj = {"b": np.array([1.0, math.nan, -math.inf]), "a": np.array([]),
               "é": {"w": {}, "x": None, "y": True, "z": 2}}
        want = json.dumps(_as_lists(obj), indent=1, sort_keys=True)
        assert json_text(obj) == want
        assert '\n  NaN,\n  -Infinity\n' in want and '"\\u00e9"' in want

    def test_float_ndarrays(self):
        arrays = {"empty": np.array([]), "special": np.array([1.5, math.nan, math.inf, -math.inf]),
                  "nested": {"one": np.array([0.25]), "none": np.array([], dtype=float)}}
        want = json.dumps({"empty": [], "special": [1.5, math.nan, math.inf, -math.inf],
                           "nested": {"one": [0.25], "none": []}}, indent=1, sort_keys=True)
        assert json_text(arrays) == want
        assert "\n  NaN,\n  Infinity,\n  -Infinity\n" in want

    @settings(max_examples=50, deadline=None)
    @given(a=_float_arrays(), form=st.sampled_from(["contiguous", "strided"]))
    def test_float_arrays_match_json_dumps(self, a, form):
        obj = {"contiguous": a, "strided": np.repeat(a, 2)[::2]}[form]
        assert form != "strided" or obj.strides == (16,)
        want = json.dumps({"k": {"j": obj.tolist()}}, indent=1, sort_keys=True)
        _assert_same_text(json_text({"k": {"j": obj}}), want)

    def test_float_encoder_edges(self):
        # 1e-5 and 1e-4 bound the band orjson writes positionally, 1e-9 and
        # 1e16 the one-digit negative and the positive exponents; each with
        # its nextafter neighbours, both signs, alone, repeated, at the end
        # of a full block, and next to a number of two-digit exponent
        for x in _ulp_neighbours([1e-9, 1e-5, 1e-4, 1e16], 1):
            for a in (np.array([x]), np.full(3, x), np.array([1.5] * (_BLOCK - 1) + [x, 2.5]),
                      np.array([x, 2.5e-12, x]), np.array([3e-7, x, 3e20])):
                want = json.dumps(a.tolist(), indent=1, sort_keys=True)
                _assert_same_text(json_text(a), want)
                _assert_same_text(json_text(np.repeat(a, 2)[::2]), want)

    def test_orjson_takes_all_finite_floats_outside_the_band(self):
        # one mask pass over the bits must place the band's edges exactly
        below_1e5, below_1e4 = np.nextafter([1e-5, 1e-4], 0.0)
        for x, takes in [(0.0, True), (5e-324, True), (below_1e5, True), (1e-5, False),
                         (below_1e4, False), (1e-4, True), (1e16, True), (1.7976931348623157e308, True),
                         (math.inf, False), (math.nan, False)]:
            for block in (np.array([x]), np.array([-x]), np.array([0.5, x, 2e20])):
                assert evaluate._orjson_takes(np.abs(block)) is takes, (x, block)

    def test_float_sweep_matches_repr(self):
        # random digits inside 6e-5 <= |x| < 2e16 (biased exponents 1009 to
        # 1076), arbitrary bit patterns, subnormals of both signs, and the
        # floats around every decade from 1e-323 to 1e308; each split into
        # the finite floats outside 1e-5 <= |x| < 1e-4, which orjson
        # writes, and the floats of that band
        rng = np.random.default_rng(20261019)
        decades = _ulp_neighbours(np.float64(10.0) ** np.arange(-323, 309), 64)
        subnormals = _bits(rng, 2**14, (0, 1))
        for a in (_bits(rng, 2**19, (1009, 1077)), _bits(rng, 2**14), subnormals, decades):
            mag = np.abs(a)
            band = (mag >= 1e-5) & (mag < 1e-4)
            for part in (a[~band & np.isfinite(a)], a[band]):
                if not part.size:
                    continue
                want = "[\n " + ",\n ".join(map(repr, part.tolist())) + "\n]"
                _assert_same_text(json_text(part), want)

    def test_one_chunk_per_block(self):
        # the writer holds one block's text at a time, whatever the length;
        # the middle block (a NaN) goes to the other encoder
        a = np.linspace(0.5, 3e4, 3 * _BLOCK)
        a[_BLOCK + 7] = math.nan
        chunks = list(json_chunks({"a": a}))
        assert [c.count(",") for c in chunks[1:-1]] == [_BLOCK - 1, _BLOCK, _BLOCK]
        assert chunks[-2].endswith("\n ]") and chunks[-1] == "\n}"
        assert "".join(chunks) == json.dumps({"a": a.tolist()}, indent=1)

    def test_only_odd_elements_go_to_the_c_encoder(self, monkeypatch):
        # a block with a few NaN, inf or band numbers sends only those to
        # json's C encoder and the rest to orjson; a block that is mostly
        # band numbers goes to the C encoder whole
        sizes = []

        class Recording(json.JSONEncoder):
            def encode(self, o):
                sizes.append(len(o))
                return super().encode(o)

        monkeypatch.setattr(evaluate, "_C_JSON", Recording(separators=(",", ":")))
        mixed = np.linspace(0.5, 3e4, 2 * _BLOCK)
        mixed[[3, 700, _BLOCK + 5]] = [math.nan, -2.5e-5, -math.inf]
        band = np.full(_BLOCK, 4e-5)
        band[::3] = 0.25
        for a, want in ((mixed, [2, 1]), (band, [_BLOCK])):
            sizes.clear()
            _assert_same_text(json_text(a), json.dumps(a.tolist(), indent=1))
            assert sizes == want

    def test_one_chunk_per_key_and_float_array(self):
        chunks = list(json_chunks({"b": np.arange(3.0), "a": {"x": None, "y": 2},
                                   "c": np.array([])}))
        assert chunks == ['{\n "a": ', '{\n  "x": ', "null", ',\n  "y": ', "2", "\n }",
                          ',\n "b": ', "[\n  0.0,\n  1.0,\n  2.0\n ]", ',\n "c": ', "[]",
                          "\n}"]


class TestAccuracy:
    def test_moments_coincide_at_T0(self):
        for m in (1.0, 4.0, 9.0):
            B_a, v_a, _ = adm_moments_equal(0.0, m, 1.0)
            B_e, v_e = exact_moments_equal(0.0, m)
            assert B_a == pytest.approx(B_e, abs=1e-15)
            assert v_a == pytest.approx(v_e, rel=1e-12)

    def test_small_sweep_shape_and_positivity(self):
        res = run_accuracy(k_values=(10, 20), shrinkage_grid=(0.2, 0.5, 0.7))
        assert isinstance(res, AccuracyResult)
        assert len(res.rows) == 6
        assert all(r.ratio >= 0.0 for r in res.rows)
        assert res.max_ratio == max(r.ratio for r in res.rows)

    def test_infeasible_targets_are_skipped(self):
        # k = 3 caps the exact shrinkage at m/(m+1) = 1/3
        res = run_accuracy(k_values=(3,), shrinkage_grid=(0.2, 0.5, 0.9))
        assert len(res.rows) == 1
        assert res.rows[0].exact_shrinkage == pytest.approx(0.2)


class TestCurves:
    def test_T0_rows_merge_adm_and_exact(self):
        rows = curve_rows((4, 10, 20), (0.0, 40.0, 400.0))
        by = {(r.k, r.T, r.method): r for r in rows}
        for k in (4, 10, 20):
            m = (k - 2) / 2
            adm0 = by[(k, 0.0, "adm")]
            exact0 = by[(k, 0.0, "exact")]
            assert adm0.B_hat == pytest.approx(m / (m + 1), abs=1e-14)
            assert exact0.B_hat == pytest.approx(m / (m + 1), abs=1e-14)
            assert by[(k, 0.0, "mle")].B_hat == 1.0
            # ADM asymptotes to the exact curve for large T (gap ~ m/T^2)
            gap_mid = abs(by[(k, 40.0, "adm")].B_hat - by[(k, 40.0, "exact")].B_hat)
            gap_far = abs(by[(k, 400.0, "adm")].B_hat - by[(k, 400.0, "exact")].B_hat)
            assert gap_far < gap_mid
            assert gap_far < 1e-4

    def test_mle_never_shrinks_less(self):
        rows = curve_rows((4, 10), tuple(np.linspace(0.0, 25.0, 26)))
        by = {(r.k, r.T, r.method): r.B_hat for r in rows}
        for (k, T, method), B in by.items():
            if method == "mle":
                assert B >= by[(k, T, "adm")] - 1e-12
                assert B >= by[(k, T, "exact")] - 1e-12

    @pytest.mark.parametrize("r", [0, 1])
    def test_mle_row_matches_fit_mle(self, r):
        # T is the residual sum of squares over 2V; the profile likelihood
        # gives B = k/2T for every r (REML's (k - r)/2T is a different rule)
        from shrinkfit.density import residual_ss

        k = 10
        rng = np.random.default_rng(43)
        X = np.ones((k, 1)) if r else None
        data = TwoLevelData(rng.normal(0.0, 2.0, k), np.ones(k), X)
        T = residual_ss(data) / 2.0
        (row,) = [row for row in curve_rows((k,), (T,), r=r) if row.method == "mle"]
        assert row.B_hat < 1.0
        assert row.B_hat == pytest.approx(float(fit(data, PriorSpec(), FitMethod.MLE).B_hat[0]), abs=1e-8)

    def test_general_c_curve_matches_closed_form_at_c1(self):
        for m, T in [(1.0, 0.5), (4.0, 3.0), (9.0, 12.0)]:
            B_q, v_q = exact_moments_equal(T, m, 0.999999999)
            B_c, v_c = exact_moments_equal(T, m)
            assert B_q == pytest.approx(B_c, abs=1e-7)
            assert v_q == pytest.approx(v_c, abs=1e-7)

    @pytest.mark.parametrize("k, c", [(4, 0.25), (4, 0.1), (6, 0.5), (3, 1.4), (4, 1.9)])
    def test_T0_exact_is_the_beta_mean_at_any_c(self, k, c):
        # at T = 0 the posterior of B is Beta(m - c + 1, c), m = (k - 2)/2,
        # whose tails toward A = 0 (B -> 1) and A -> infinity (B -> 0) fall
        # as slowly as c and m + 1 - c; a rule cut at a finite range of
        # alpha gave 0.8749958 for 0.875 at k = 4, c = 0.25
        (row,) = [row for row in curve_rows((k,), (0.0,), c=c) if row.method == "exact"]
        a, b = 0.5 * k - c, c
        assert row.B_hat == pytest.approx(a / (a + b), rel=1e-12)
        assert row.v == pytest.approx(a * b / ((a + b) ** 2 * (a + b + 1.0)), rel=1e-12)

    def test_c_half_shrinks_harder_than_c1(self):
        # smaller c concentrates the prior near A = 0, raising shrinkage
        for T in (0.5, 2.0, 10.0):
            B_half, _ = exact_moments_equal(T, 4.0, 0.5)
            B_one, _ = exact_moments_equal(T, 4.0, 1.0)
            assert B_half > B_one
