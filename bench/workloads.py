"""Workload inputs, timed operations and output checks.

Each workload is a fixed cycle ("round") of at least 100 operations made by
calling shrinkfit's public entry points. The workload seed picks, for every
slot of the round, one input out of a small stored pool; the reference
outputs of every pool entry live in ``reference/<workload>.json``, so any
seed can be checked at a stated tolerance rather than byte for byte.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

REL_TOL = 1e-6  # reworked optimizers reorder float operations (~1e-10 moves)
ABS_TOL = 1e-9

SIM_GRID_POINTS = 100
SIM_POOL = 4  # stored candidate seeds per gridpoint

# fit-cli round: (k, datasets per round, pool size). 26 datasets x 4 methods
# = 104 calls. The k = 1e5 calls take most of a round, so a single dataset of
# that size is used for every seed: a pool of two made fits_per_s bimodal.
CLI_SIZES = ((10, 12, 16), (100, 12, 16), (10_000, 1, 4), (100_000, 1, 1))
CLI_METHODS = ("adm", "mle", "reml", "exact")

WORKLOADS = ("sim-equal", "fit-cli")


@dataclass
class Op:
    """One timed call. ``run`` returns the raw output, ``check`` turns it
    into (failed fits, reference mismatch)."""

    key: str
    fits: int
    run: Callable[[], object]
    check: Callable[[object], tuple[int, bool]]
    out_path: Path | None = None


@dataclass
class Workload:
    ops: list[Op]  # one round
    warmup: list[Op]


def _close(got: float, want: float) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def load_reference(name: str) -> dict:
    path = REFERENCE_DIR / f"{name}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# sim-equal: one op is run_coverage on one gridpoint of the 100-point B0 grid
# (equal variances, k = 10, r = 0, 20 reps, methods exact + adm + mle)

SIM_REPS = 20


def sim_pool_seed(g: int, j: int) -> int:
    """Simulation seed of pool entry j at gridpoint g."""
    return 1 + SIM_POOL * g + j


def sim_configs(picks: list[tuple[int, int]]):
    """SimConfig for each (gridpoint, pool entry) pair."""
    from shrinkfit import FitMethod, evaluate

    grid = evaluate.equal_variance_grid(SIM_GRID_POINTS)
    methods = (FitMethod.EXACT, FitMethod.ADM, FitMethod.MLE)
    return [
        evaluate.equal_variance_config(
            10, seed=sim_pool_seed(g, j), reps=SIM_REPS, grid=(grid[g],), methods=methods
        )
        for g, j in picks
    ]


def sim_summary(result) -> dict:
    """{method: {group: [coverage, risk, mean_B_hat]}} of one SimResult."""
    out: dict = {}
    for row in result.rows:
        out.setdefault(row.method, {})[row.group] = [
            row.coverage,
            row.risk,
            row.mean_B_hat,
        ]
    return out


def check_sim(summary: dict, ref: dict, reps: int) -> tuple[int, bool]:
    """Failed fits and mismatch flag for one gridpoint: a method whose rows
    disagree with the reference, or leave [0, 1], fails all its reps."""
    failed, mismatch = 0, False
    for method, groups in ref.items():
        got = summary.get(method)
        ok = got is not None and set(got) == set(groups)
        if ok:
            for group, want in groups.items():
                cov, risk, mean_b = got[group]
                ok = ok and 0.0 <= cov <= 1.0 and 0.0 <= mean_b <= 1.0
                ok = ok and all(_close(a, b) for a, b in zip(got[group], want))
        if not ok:
            failed += reps
            mismatch = True
    return failed, mismatch


def build_sim(seed: int, size: str, ref: dict) -> Workload:
    from shrinkfit.evaluate import run_coverage

    rng = random.Random(f"sim-equal/{seed}")
    picks = [(g, rng.randrange(SIM_POOL)) for g in range(SIM_GRID_POINTS)]
    if size == "tiny":
        picks = picks[::25]
    configs = sim_configs(picks)
    ops = []
    for (g, j), cfg in zip(picks, configs):
        want = ref[f"{g}/{j}"]
        ops.append(
            Op(
                key=f"{g}/{j}",
                fits=cfg.reps * len(cfg.methods),
                run=lambda cfg=cfg: sim_summary(run_coverage(cfg, threads=1)),
                check=lambda got, want=want, reps=cfg.reps: check_sim(got, want, reps),
            )
        )
    return Workload(ops, ops[:3])


# ---------------------------------------------------------------------------
# fit-cli: one op is `shrinkfit fit <csv> --method m --out <json>` in-process


def cli_dataset(k: int, j: int) -> np.ndarray:
    """Pool dataset j of size k as columns (y, V, x1, x2): V log-uniform over
    a decade around 1, an intercept and one Normal covariate, A = 1."""
    rng = np.random.default_rng([k, j])
    V = 10.0 ** rng.uniform(-0.5, 0.5, k)
    X = np.column_stack([np.ones(k), rng.standard_normal(k)])
    theta = X @ np.array([0.5, 1.0]) + rng.standard_normal(k)
    y = theta + np.sqrt(V) * rng.standard_normal(k)
    return np.column_stack([y, V, X])


def write_cli_csv(path: Path, k: int, j: int) -> None:
    np.savetxt(path, cli_dataset(k, j), fmt="%.17g", delimiter=",",
               header="y,V,x1,x2", comments="")


def cli_picks(seed: int, size: str) -> list[tuple[int, int]]:
    rng = random.Random(f"fit-cli/{seed}")
    picks = []
    for k, count, pool in CLI_SIZES:
        if size == "tiny":
            if k > 100:
                continue
            count = 1
        picks += [(k, j) for j in sorted(rng.sample(range(pool), count))]
    return picks


def cli_summary(payload: dict, method: str) -> dict:
    """Reference figures of one fit: A_hat and min/mean/max of B_hat (None
    when B_hat is not finite)."""
    res = payload["results"][method]
    B = np.asarray(res["B_hat"], dtype=float)
    stats = [float(B.min()), float(B.mean()), float(B.max())]
    return {"A_hat": res["A_hat"], "B": stats if all(map(math.isfinite, stats)) else None}


def check_cli(payload: dict | None, method: str, want: dict) -> tuple[int, bool]:
    """(failed fits, mismatch) of one `fit` call. ``payload`` is None when
    the call raised, exited non-zero or wrote no output."""
    if payload is None:
        return 1, True
    res = payload["results"].get(method)
    if res is None:
        return 1, True
    B = np.asarray(res["B_hat"], dtype=float)
    th = np.asarray(res["theta_hat"], dtype=float)
    lo = np.asarray(res["lo"], dtype=float)
    hi = np.asarray(res["hi"], dtype=float)
    with np.errstate(invalid="ignore"):
        valid = bool(
            np.all((B >= 0.0) & (B <= 1.0))
            and np.all(np.isfinite(th))
            and np.all((lo <= th) & (th <= hi))
        )
    got = cli_summary(payload, method)
    mismatch = not _close(got["A_hat"], want["A_hat"])
    if want["B"] is not None:
        mismatch = mismatch or got["B"] is None or not all(
            _close(a, b) for a, b in zip(got["B"], want["B"])
        )
    return (0 if valid and not mismatch else 1), mismatch


def read_cli_output(path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def build_cli(seed: int, size: str, work: Path, ref: dict) -> Workload:
    from shrinkfit import cli

    picks = cli_picks(seed, size)
    ops = []
    for k, j in picks:
        csv = str(work / f"k{k}-{j}.csv")
        for m in CLI_METHODS:
            out = work / f"out-k{k}-{j}-{m}.json"
            argv = ["fit", csv, "--method", m, "--out", str(out)]
            ops.append(
                Op(
                    key=f"{k}/{j}/{m}",
                    fits=1,
                    run=lambda argv=argv: cli.main(argv),
                    check=lambda rc, out=out, m=m, want=ref[f"{k}/{j}"][m]: check_cli(
                        read_cli_output(out) if rc == 0 else None, m, want
                    ),
                    out_path=out,
                )
            )
    # interleave sizes and methods so slow drift hits every kind of call
    random.Random(f"fit-cli/order/{seed}").shuffle(ops)
    # small calls plus the k = 1e4 ones: a process's first large quadrature
    # is slower than the rest
    warm = [op for op in ops if op.key.split("/")[0] in ("10", "100")][:8]
    warm += [op for op in ops if op.key.startswith("10000/")]
    return Workload(ops, warm)


def setup(name: str, seed: int, size: str, work: Path) -> None:
    """Generate the workload's input files (the simulations have none)."""
    if name == "fit-cli":
        work.mkdir(parents=True, exist_ok=True)
        for k, j in cli_picks(seed, size):
            write_cli_csv(work / f"k{k}-{j}.csv", k, j)


def build(name: str, seed: int, size: str, work: Path, ref: dict) -> Workload:
    """The workload's ops; ``ref`` is the "ops" table of its reference file."""
    if name == "fit-cli":
        return build_cli(seed, size, work, ref)
    return build_sim(seed, size, ref)
