"""Command-line front end: dataset I/O, fitting, simulation, and plot-data
emission.

Exit codes: 0 on success, 1 on I/O errors, 2 on validation/configuration
errors: a ShrinkfitError or ValueError, whose name is printed to stderr
(CliInputError's message alone).
"""

from __future__ import annotations

import argparse
import codecs
import csv
import json
import os
import re
import sys
import warnings
from dataclasses import astuple
from functools import cache
from pathlib import Path

import numpy as np

from . import evaluate
from .evaluate import (
    SimConfig,
    SimResult,
    curve_rows,
    run_coverage,
    write_csv,
)
from .fitters import FitMethod, fit
from .inference import DEFAULT_Z, random_effects
from .model import PriorSpec, ShrinkfitError, TwoLevelData

SEED_ENV = "SHRINKFIT_SEED"
_METHOD_CHOICES = [m.value for m in FitMethod]


class CliInputError(ShrinkfitError):
    """Bad dataset contents or command arguments (exit code 2)."""


# ---------------------------------------------------------------------------
# Dataset CSV I/O


def read_dataset_csv(path) -> TwoLevelData:
    """Read a unit-level dataset: required columns y and V, optional
    covariates x1..xr (numbered without gaps), optional known means mu
    (used only when there are no covariates).  Data errors (non-finite
    values, V <= 0, rank-deficient X) are raised by TwoLevelData.

    A body of plain numbers is parsed by _read_plain_body; any other body
    (quoted fields, spaces, blank lines, nan, ...) by np.loadtxt, which
    also names the column of a parse error. Both give the same bits."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        line = fh.readline()
        if not line:
            raise CliInputError("parse error: empty file")
        header = next(csv.reader([line]))
        dups = sorted({name for name in header if header.count(name) > 1})
        if dups:
            raise CliInputError(f"parse error: duplicate column names {dups}")
        for required in ("y", "V"):
            if required not in header:
                raise CliInputError(f"parse error: missing required column {required!r}")
        covariates = [name for name in header if re.fullmatch(r"x\d+", name)]
        x_names = [f"x{j}" for j in range(1, len(covariates) + 1)]
        if set(covariates) != set(x_names):
            raise CliInputError(f"parse error: covariates {covariates} are not x1..xr")
        names = ["y", "V", *x_names] + (["mu"] if "mu" in header and not x_names else [])
        usecols = [header.index(name) for name in names]
        columns = _read_plain_body(path, line, len(header), usecols)
        if columns is None:
            start = fh.tell()
            try:
                table = _load_columns(fh, usecols)
            except ValueError:
                for name in names:  # report the first column that fails on its own
                    fh.seek(start)
                    try:
                        _load_columns(fh, [header.index(name)])
                    except ValueError as err:
                        raise CliInputError(f"parse error in column {name!r}: {err}") from err
                raise
            if table.size == 0:
                raise CliInputError("parse error: no data rows")
            columns = table.T.copy()
    columns = dict(zip(names, columns))
    X = np.column_stack([columns[name] for name in x_names]) if x_names else None
    return TwoLevelData(columns["y"], columns["V"], X, columns.get("mu"))


def _load_columns(fh, usecols: list[int]) -> np.ndarray:
    """The rest of ``fh`` as a (rows, len(usecols)) table of floats."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        return np.loadtxt(fh, delimiter=",", usecols=usecols, quotechar='"', comments=None,
                          ndmin=2)


_BODY_BLOCK = 1 << 15  # bytes of whole lines parsed at a time
_PLAIN_BYTES = b"0123456789.eE+-\r"  # and the separators: commas, newlines
_NEGATIVE_ZERO = re.compile(rb"(?:^|[,\n])-0[,\r\n]")  # orjson reads the integer -0 as +0


def _read_plain_body(path, header_line: str, ncols: int, usecols: list[int]):
    """Columns ``usecols`` of the lines after ``header_line``, one row each,
    or None unless there is at least one line and every line is ncols JSON
    numbers joined by commas, none of them the integer -0, ended by a
    newline or CRLF (the last one may lack it). The body is read in blocks
    of whole lines of about _BODY_BLOCK bytes, each parsed by one
    orjson.loads as a JSON list (orjson reads such numbers to the same bits
    as np.loadtxt) into one table, sized from the first block and the
    file's length, whose rows are the columns: no transposed copy."""
    import orjson

    row = b"," * (ncols - 1) + b"\n"
    table, n = np.empty((len(usecols), 0)), 0
    with open(path, "rb") as fb:
        if fb.readline() not in (header_line.encode(), codecs.BOM_UTF8 + header_line.encode()):
            return None  # the header ended at a lone \r
        size = os.fstat(fb.fileno()).st_size
        while block := fb.read(_BODY_BLOCK):
            if not block.endswith(b"\n"):
                block += fb.readline()
                if not block.endswith(b"\n"):
                    block += b"\n"
            separators = block.translate(None, _PLAIN_BYTES)
            if separators.count(row) * len(row) != len(separators):
                return None  # another byte, or a line of another field count
            if b"\r" in block and block.count(b"\r") != block.count(b"\r\n"):
                return None
            try:
                values = orjson.loads(b"[" + block[:-1].replace(b"\n", b",") + b"]")
            except orjson.JSONDecodeError:
                return None
            parsed = np.fromiter(values, dtype=float, count=len(values)).reshape(-1, ncols)
            del values
            if not parsed.all() and _NEGATIVE_ZERO.search(block):
                return None
            rows = len(parsed)
            if n + rows > table.shape[1]:  # this block and the rest at its rows per byte, +5%
                room = rows * (1.0 + 1.05 * (size - fb.tell()) / len(block))
                grown = np.empty((len(usecols), n + int(room) + 1))
                grown[:, :n] = table[:, :n]
                table = grown
            table[:, n:n + rows] = parsed[:, usecols].T
            n += rows
    return table[:, :n] if n else None


def write_dataset_csv(path, data: TwoLevelData) -> None:
    """Emit a dataset in the same schema read_dataset_csv accepts: the
    covariates x1..xr when r >= 1, the known means mu when r = 0."""
    header = ["y", "V"] + ([f"x{j + 1}" for j in range(data.r)] if data.r else ["mu"])
    columns = [data.y, data.V, data.X if data.r else data.mu]
    write_csv(path, header, np.column_stack(columns).astype(float).tolist())


# ---------------------------------------------------------------------------
# fit


def _posterior_payload(shr, post) -> dict:
    """One method's results; the arrays stay float64 ndarrays, which
    write_json writes with one orjson call each."""
    arrays = {
        "B_hat": shr.B_hat, "v": shr.v, "a1": shr.a1, "a0": shr.a0,
        "theta_hat": post.theta_hat, "s2": post.s2, "beta_hat": post.beta_hat,
        "lo": post.lo, "hi": post.hi,
    }
    payload = {"A_hat": shr.A_hat, "boundary": shr.boundary, "inv_info": shr.inv_info}
    for name, a in arrays.items():
        payload[name] = None if a is None else np.asarray(a, dtype=float)
    return payload


def write_json(obj, write) -> None:
    """Pass the bytes of orjson.dumps(obj, option=OPT_SERIALIZE_NUMPY |
    OPT_SORT_KEYS) to `write`, one orjson call per value, so that only one
    array's text exists at a time: compact, keys sorted, floats in repr's
    shortest round-trip digits. `obj` holds dicts with string keys,
    scalars, None and float64 ndarrays; NaN and inf would be written null,
    so the caller rejects them first."""
    import orjson

    if isinstance(obj, dict):
        write(b"{")
        sep = b""
        for key in sorted(obj):
            write(sep + orjson.dumps(key) + b":")
            write_json(obj[key], write)
            sep = b","
        write(b"}")
    elif isinstance(obj, np.ndarray):
        write(orjson.dumps(np.ascontiguousarray(obj), option=orjson.OPT_SERIALIZE_NUMPY))
    else:
        write(orjson.dumps(obj))


def cmd_fit(args) -> int:
    data = read_dataset_csv(args.input)
    prior = PriorSpec(c=args.c)
    methods = args.method or ["adm"]
    results = {}
    for name in methods:
        method = FitMethod(name)
        shr = fit(data, prior, method)
        post = random_effects(data, shr, z_star=args.z)
        results[name] = _posterior_payload(shr, post)
        for field, value in results[name].items():
            if value is not None and not np.isfinite(value).all():
                raise ValueError(f"the {name} fit gave a non-finite {field}")
    payload = {
        "schema": 1,
        "k": data.k,
        "r": data.r,
        "c": args.c,
        "z_star": args.z,
        "results": results,
    }
    # written only after every fit has run and passed the check above
    if args.out is not None:
        with open(args.out, "wb") as fh:
            write_json(payload, fh.write)
            fh.write(b"\n")
        return 0
    sys.stdout.flush()
    # a stdout with no byte buffer (io.StringIO, say) is sent the UTF-8 text
    buffer = getattr(sys.stdout, "buffer", None)
    write = buffer.write if buffer is not None else lambda b: sys.stdout.write(b.decode())
    write_json(payload, write)
    write(b"\n")
    return 0


# ---------------------------------------------------------------------------
# simulate


def _parse_grid(spec: str) -> tuple[float, ...]:
    """Grid syntax: either comma-separated values or start:stop:count."""
    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            values = np.linspace(float(start), float(stop), int(count))
        else:
            values = np.array([float(tok) for tok in spec.split(",") if tok])
    except ValueError as err:
        raise CliInputError(f"bad grid {spec!r}: {err}") from err
    if values.size == 0:
        raise CliInputError(f"bad grid {spec!r}: empty")
    return tuple(float(v) for v in values)


def _parse_floats(spec: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in spec.split(",") if tok)
    except ValueError as err:
        raise CliInputError(f"bad {what} {spec!r}: {err}") from err


def _resolve_seed(args) -> int:
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as err:
            raise CliInputError(f"bad {SEED_ENV}={env!r}: {err}") from err
    return args.seed


def _reject_given(flags, mode: str) -> None:
    """Raise CliInputError naming the first flag of (flag, value) pairs that
    was given (value not None) although `mode` does not read it."""
    for flag, value in flags:
        if value is not None:
            raise CliInputError(f"{flag} is not used {mode}")


def _simulate_configs(args) -> list[SimConfig]:
    seed = _resolve_seed(args)
    methods = tuple(FitMethod(m) for m in args.method or ())
    if args.preset is not None:
        unused = [("--variances", args.variances), ("--v0", args.v0), ("--x", args.x),
                  ("--r", args.r)]
        if args.preset == "two-group":
            unused.append(("--k", args.k))
        _reject_given(unused, f"with --preset {args.preset}")
        # only the flags given are passed on: the presets own their defaults
        given = dict(seed=seed, z_star=args.z, c=args.c)
        if args.reps is not None:
            given["reps"] = args.reps
        if methods:
            given["methods"] = methods
        equal = args.preset == "equal"
        if args.grid is not None:
            given["grid"] = _parse_grid(args.grid)
        elif args.grid_points is not None:
            if args.grid_points < 1:
                raise CliInputError("--grid-points must be at least 1")
            grid_of = evaluate.equal_variance_grid if equal else evaluate.two_group_grid
            given["grid"] = grid_of(args.grid_points)
        if equal:
            ks = args.k or evaluate.EQUAL_VARIANCE_KS
            return [evaluate.equal_variance_config(k, **given) for k in ks]
        return [evaluate.two_group_config(**given)]
    # explicit configuration
    _reject_given([("--grid-points", args.grid_points)], "without --preset")
    flags = [("--k", args.k), ("--variances", args.variances), ("--grid", args.grid),
             ("--reps", args.reps)]
    missing = [flag for flag, val in flags if val is None]
    if missing:
        raise CliInputError(
            "explicit simulation needs " + ", ".join(missing) + " (or use --preset)"
        )
    if len(args.k) != 1:
        raise CliInputError("explicit simulation takes exactly one --k")
    k = args.k[0]
    V = _parse_floats(args.variances, "variances")
    if len(V) == 1:
        V = V * k
    if len(V) != k:
        raise CliInputError(f"--variances lists {len(V)} values for --k {k}")
    design = args.x
    if args.r is not None and design is None:
        if args.r not in (0, 1):
            raise CliInputError(f"--r must be 0 (no covariates) or 1 (an intercept), "
                                f"got {args.r}; other designs need the library API")
        design = "none" if args.r == 0 else "intercept"
    design = design or "none"
    r = {"none": 0, "intercept": 1}[design]
    if args.r is not None and args.r != r:
        raise CliInputError(f"--r {args.r} contradicts --x {design}")
    return [
        SimConfig(
            V=V,
            X=design,
            beta_true=(0.0,) * r,
            grid=_parse_grid(args.grid),
            V0=1.0 if args.v0 is None else args.v0,
            reps=args.reps,
            seed=seed,
            methods=methods or (FitMethod.ADM,),
            z_star=args.z,
            c=args.c,
        )
    ]


def _write_simulation_outputs(results: list[SimResult], outdir: Path) -> None:
    rows = [astuple(row) for res in results for row in res.rows]
    write_csv(outdir / "simulation.csv", evaluate._CSV_COLUMNS, rows)
    payload = {"schema": 1, "results": [res.json_payload() for res in results]}
    text = json.dumps(payload, indent=1, sort_keys=True)
    (outdir / "simulation.json").write_bytes((text + "\n").encode())


def _two_group(cfg: SimConfig) -> bool:
    return cfg.r == 1 and len(set(cfg.V)) == 2  # an intercept and two variances


def _emit_plotdata(results: list[SimResult], outdir: Path) -> None:
    first = results[0].config
    if _two_group(first):
        rows = [
            [r.b0, r.A, r.group, r.coverage, r.coverage_se, r.risk, r.boundary_rate]
            for res in results
            for r in res.rows
        ]
        write_csv(
            outdir / "fig7_twogroup.csv",
            ["b0", "A", "group", "coverage", "coverage_se", "risk", "boundary_rate"],
            rows,
        )
        return
    ks = [res.config.k for res in results]
    t_grid = [0.25 * j for j in range(81)]  # T in [0, 20]
    curves = curve_rows(ks, t_grid, r=first.r, c=first.c)
    write_csv(
        outdir / "fig2_shrinkage_curves.csv",
        ["k", "m", "T", "method", "B_hat"],
        [[c.k, c.m, c.T, c.method, c.B_hat] for c in curves],
    )
    write_csv(
        outdir / "fig3_variance_curves.csv",
        ["k", "m", "method", "B_hat", "v"],
        [[c.k, c.m, c.method, c.B_hat, c.v] for c in curves],
    )
    sim_rows = [r for res in results for r in res.rows]
    write_csv(
        outdir / "fig4_coverage.csv",
        ["k", "b0", "method", "coverage", "coverage_se"],
        [[r.k, r.b0, r.method, r.coverage, r.coverage_se] for r in sim_rows],
    )
    write_csv(
        outdir / "fig5_coverage_risk.csv",
        ["k", "b0", "method", "coverage", "coverage_se", "risk"],
        [
            [r.k, r.b0, r.method, r.coverage, r.coverage_se, r.risk]
            for r in sim_rows
            if r.method != "mle"
        ],
    )


def cmd_simulate(args) -> int:
    configs = _simulate_configs(args)
    if args.emit_plotdata and not all(_two_group(c) or len(set(c.V)) == 1 for c in configs):
        raise CliInputError(
            "--emit-plotdata needs equal variances or the two-group design "
            "(an intercept and two variance values)"
        )
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    results = [run_coverage(cfg, threads=threads) for cfg in configs]
    _write_simulation_outputs(results, outdir)
    if args.emit_plotdata:
        _emit_plotdata(results, outdir)
    return 0


# ---------------------------------------------------------------------------
# curves


def cmd_curves(args) -> int:
    ks = args.k or evaluate.EQUAL_VARIANCE_KS
    try:
        rows = curve_rows(ks, _parse_grid(args.t_grid), r=args.r, c=args.c)
    except ValueError as err:
        raise CliInputError(str(err)) from err
    header = ["k", "r", "c", "m", "T", "method", "B_hat", "v"]
    body = [[r.k, r.r, r.c, r.m, r.T, r.method, r.B_hat, r.v] for r in rows]
    write_csv(args.out, header, body)
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shrinkfit",
        description="Fit two-level Normal models and reproduce their "
        "coverage/risk evaluations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a dataset CSV and write JSON results")
    p_fit.add_argument("input", help="CSV with columns y, V, optional x1..xr, mu")
    p_fit.add_argument(
        "--method", action="append", choices=_METHOD_CHOICES, help="repeatable"
    )
    p_fit.add_argument("--c", type=float, default=1.0, help="prior exponent (default 1)")
    p_fit.add_argument("--z", type=float, default=DEFAULT_Z, help="interval z* (default %(default)s)")
    p_fit.add_argument("--out", default=None, help="output path (default stdout)")
    p_fit.set_defaults(func=cmd_fit)

    p_sim = sub.add_parser("simulate", help="run the coverage/risk simulation")
    p_sim.add_argument("--preset", choices=["equal", "two-group"], default=None)
    p_sim.add_argument("--k", action="append", type=int, help="units (repeatable)")
    p_sim.add_argument("--r", type=int, default=None, help="0 or 1 (intercept)")
    p_sim.add_argument("--variances", default=None, help="comma list (or one value)")
    p_sim.add_argument("--x", choices=["none", "intercept"], default=None)
    p_sim.add_argument("--grid", default=None, help="B0 values: list or start:stop:count")
    p_sim.add_argument("--grid-points", type=int, default=None, help="preset grid size")
    p_sim.add_argument("--reps", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=1, help=f"overridden by ${SEED_ENV}")
    p_sim.add_argument("--v0", type=float, default=None,
                       help="reference variance (default 1; without --preset only)")
    p_sim.add_argument(
        "--method", action="append", choices=_METHOD_CHOICES, help="repeatable"
    )
    p_sim.add_argument("--z", type=float, default=DEFAULT_Z)
    p_sim.add_argument("--c", type=float, default=1.0)
    p_sim.add_argument("--threads", type=int, default=None, help="default: all cores")
    p_sim.add_argument("--emit-plotdata", action="store_true")
    p_sim.add_argument("--out", default=".", help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_cur = sub.add_parser("curves", help="deterministic shrinkage/variance tables")
    p_cur.add_argument("--k", action="append", type=int, help="repeatable (default 4,10,20)")
    p_cur.add_argument("--r", type=int, default=0)
    p_cur.add_argument("--c", type=float, default=1.0)
    p_cur.add_argument("--t-grid", default="0:20:81", help="list or start:stop:count")
    p_cur.add_argument("--out", default=None, help="output path (default stdout)")
    p_cur.set_defaults(func=cmd_curves)
    return parser


# built once per process: a parse keeps its state in the Namespace it returns
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ShrinkfitError, ValueError) as err:
        name = type(err).__name__
        prefix = "" if isinstance(err, CliInputError) else f"{name}: "
        print(f"{prefix}{err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
