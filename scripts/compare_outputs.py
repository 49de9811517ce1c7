"""Compare the outputs of `shrinkfit` in this checkout and in another
(usually its parent).

    python3 scripts/compare_outputs.py OTHER_TREE

Each checkout runs, through its own ``src/`` in a fresh interpreter:

- ``shrinkfit fit`` under each of the four methods, 196 calls, on every
  fit-cli pool dataset of the benchmark (the 37 CSVs of
  ``bench/workloads.write_cli_csv``, k = 10 to 1e5), on three r = 0 files
  with known means (``y,V,mu`` from pool dataset 0 at k = 10, 100 and 1e4,
  mu its Level-2 mean 0.5 + x2), on a nearly collinear r = 3 file (X =
  [1, x, x + 1e-8 e], k = 30, V over one decade: every method exits 2 with
  RankDeficientX, raised when the file is read in a checkout whose
  TwoLevelData runs the fits' pivot test, and by the first fit in one
  whose rank test is the pivoted QR), on an equal-variance r = 1 file (k = 10, an
  intercept: the equal-variance closed forms with a fitted mean) and on an
  equal-variance r = 0 file (k = 1e4, V = 1, y standard Normal from
  default_rng(10_000), so T is near m + 1), and on
  three scaled copies of the k = 1e4 pool dataset 0, y·1e9 with V·1e18
  (every s2 lies above 1e16, at 2e17 to 8e17), y·1e-2 with V·1e-4 (every
  s2 lies in 1e-5 to 1e-4, the band orjson writes positionally, as v does
  at this k) and y·1e-3 with V·1e-6 (every s2 and some theta_hat, lo and
  hi lie below 1e-5), which leave B_hat as it is and put whole arrays in
  the positional band and in both of orjson's exponent forms (1e16, 1e-6);
  on four copies of the same k = 1e4 file
  that reach both CSV readers: with CRLF line ends (the orjson reader), and
  with its middle row's V spaced, its last row's y quoted, or its last
  row's x2 written as the integer -0 (each sends the reader back to
  np.loadtxt, the last two after it has parsed most of the file); then one
  two-method call (ADM and REML on the k = 100 pool dataset 0), exact Bayes
  at c = 0.5 and 0.25 on the k = 10 pool dataset 0 (the quadrature's slow
  A -> 0 tail), exact Bayes at c = 0.5 on the equal-variance k = 1e4 file
  (the closed form at c != 1), and one ADM call written to stdout (k = 1e4 pool dataset 0,
  stdout redirected into the output file);
- a small seeded ``simulate --preset equal`` and ``simulate --preset
  two-group``, each with its default methods and with all four;
  ``simulate --preset equal --c 0.5`` with all four; two explicit
  configurations with all four (``--k 5 --r 0 --variances
  0.5,1,1.5,2,2.5`` and ``--k 6 --r 1 --variances 1.0``); and one larger
  batch, MLE and REML at k = 20 with 400 replications a gridpoint. Together
  these run every path of the simulation's replication batch: the
  equal-variance closed forms (ADM at c = 1 and 0.5, exact at c = 1), the
  lockstep MLE/REML batch at r = 0 (equal and unequal variances, batches
  of 1 to 400 rows) and the scalar fit per replication (every method at
  r = 1, ADM and exact with unequal variances, exact at c = 0.5);
- ``curves`` with its defaults, with ``--c 0.5``, and with ``--k 5 --k 11
  --r 1 --c 1.5``.

Prints how many outputs are identical per command, names every file that
differs or exists in only one checkout, and exits 1 on any difference. A fit
JSON file is identical when it holds the same values (the same keys, and
every float bit for bit), whatever their spelling; every other output (the
CSV files, simulation.json, the exit codes) when it has the same bytes.
Under each differing JSON or CSV file it prints, for every numeric field
that moved (a JSON field is its key path with list positions dropped, a CSV
field its column), the largest |a - b| over its entries divided by the
largest |value| the field takes in either file. Scaling by the field rather
than by each entry keeps entries near zero from inflating the drift, and
numerical drift can still be told from a changed layout (inf).
Exit codes are compared as well. Everything is written to a temporary
directory; a whole run takes about 6 s on a 2-core machine.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import _trees

sys.path.insert(0, str(_trees.ROOT / "bench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

MU_SIZES = (10, 100, 10_000)

# Runs inside each checkout: argv = datasets directory, output directory.
DRIVER = """
import contextlib
import sys
from pathlib import Path
from shrinkfit.cli import main

data, out = Path(sys.argv[1]), Path(sys.argv[2])
calls = [
    (f"fit-{csv.stem}-{m}.json", ["fit", str(csv), "--method", m])
    for csv in sorted(data.glob("*.csv"))
    for m in ("adm", "mle", "reml", "exact")
]
calls.append(("fit-k100-0-adm-reml.json",
              ["fit", str(data / "k100-0.csv"), "--method", "adm", "--method", "reml"]))
calls += [(f"fit-k10-0-exact-c{c}.json",
           ["fit", str(data / "k10-0.csv"), "--method", "exact", "--c", c])
          for c in ("0.5", "0.25")]
calls.append(("fit-equal-k10000-exact-c0.5.json",
              ["fit", str(data / "equal-k10000.csv"), "--method", "exact", "--c", "0.5"]))
equal = ["simulate", "--preset", "equal", "--k", "4", "--k", "10", "--reps", "20",
         "--grid-points", "5", "--seed", "7"]
two_group = ["simulate", "--preset", "two-group", "--reps", "10", "--grid-points", "5",
             "--seed", "7"]
every_method = [arg for m in ("adm", "mle", "reml", "exact") for arg in ("--method", m)]
calls += [
    ("simulate-equal", equal),
    ("simulate-two-group", two_group),
    ("simulate-equal-all-methods", equal + every_method),
    ("simulate-two-group-all-methods", two_group + every_method),
    ("simulate-equal-c0.5", equal + every_method + ["--c", "0.5"]),
    ("simulate-explicit-r0", ["simulate", "--k", "5", "--r", "0", "--variances",
                              "0.5,1,1.5,2,2.5", "--grid", "0.1:0.9:5", "--reps", "10",
                              "--seed", "7"] + every_method),
    ("simulate-explicit-r1", ["simulate", "--k", "6", "--r", "1", "--variances", "1.0",
                              "--grid", "0.1:0.9:5", "--reps", "10", "--seed", "7"]
                             + every_method),
    ("simulate-equal-k20-400-reps", ["simulate", "--preset", "equal", "--k", "20", "--reps",
                                     "400", "--grid-points", "3", "--seed", "7", "--method",
                                     "mle", "--method", "reml"]),
    ("curves.csv", ["curves"]),
    ("curves-c0.5.csv", ["curves", "--c", "0.5"]),
    ("curves-k5-k11-r1-c1.5.csv", ["curves", "--k", "5", "--k", "11", "--r", "1", "--c", "1.5"]),
]
codes = []
for name, argv in calls:
    codes.append(f"{name} {main(argv + ['--out', str(out / name)])}")
name = "fit-stdout-k10000-0-adm.json"  # the same document, written to stdout
with open(out / name, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
    code = main(["fit", str(data / "k10000-0.csv"), "--method", "adm"])
codes.append(f"{name} {code}")
(out / "exit-codes.txt").write_text("\\n".join(codes) + "\\n")
"""


def write_mu_csv(path: Path, k: int) -> None:
    """Pool dataset 0 of size k as an r = 0 file whose known means mu are
    its Level-2 mean 0.5 + x2."""
    y, V, _, x2 = workloads.cli_dataset(k, 0).T
    np.savetxt(path, np.column_stack([y, V, 0.5 + x2]), fmt="%.17g", delimiter=",",
               header="y,V,mu", comments="")


def write_design_csvs(data: Path) -> None:
    """The nearly collinear and the two equal-variance files."""
    k = 30
    rng = np.random.default_rng(41)
    x = rng.normal(size=k)
    x3 = x + 1e-8 * rng.normal(size=k)
    V = 10.0 ** rng.uniform(-0.5, 0.5, k)
    table = np.column_stack([rng.normal(size=k), V, np.ones(k), x, x3])
    np.savetxt(data / "collinear-k30.csv", table, fmt="%.17g", delimiter=",",
               header="y,V,x1,x2,x3", comments="")
    rng = np.random.default_rng(7)
    table = np.column_stack([rng.normal(1.0, 1.5, 10), np.full(10, 0.8), np.ones(10)])
    np.savetxt(data / "equal-r1-k10.csv", table, fmt="%.17g", delimiter=",",
               header="y,V,x1", comments="")
    table = np.column_stack([np.random.default_rng(10_000).normal(size=10_000), np.ones(10_000)])
    np.savetxt(data / "equal-k10000.csv", table, fmt="%.17g", delimiter=",",
               header="y,V", comments="")


def write_scaled_csvs(data: Path) -> None:
    """Pool dataset 0 of size 1e4 with y scaled by s and V by s², for s =
    1e9, 1e-2 and 1e-3."""
    table = workloads.cli_dataset(10_000, 0)
    for name, s in (("scaled-1e9-k10000", 1e9), ("scaled-1e-2-k10000", 1e-2),
                    ("scaled-1e-3-k10000", 1e-3)):
        scaled = table * np.array([s, s * s, 1.0, 1.0])
        np.savetxt(data / f"{name}.csv", scaled, fmt="%.17g", delimiter=",",
                   header="y,V,x1,x2", comments="")


def write_spelling_csvs(data: Path) -> None:
    """The pool file k10000-0.csv with CRLF line ends, and with one field
    spelled otherwise: the middle row's V spaced, the last row's y quoted,
    the last row's x2 the integer -0."""
    lines = (data / "k10000-0.csv").read_text().splitlines()
    (data / "crlf-k10000.csv").write_bytes("\r\n".join(lines).encode() + b"\r\n")
    rows = [line.split(",") for line in lines]
    for name, (i, j, spell) in {"spaced": (len(rows) // 2, 1, " {} "),
                                "quoted": (-1, 0, '"{}"'),
                                "minus-zero": (-1, 3, "-0")}.items():
        spelled = [list(row) for row in rows]
        spelled[i][j] = spell.format(spelled[i][j])
        text = "".join(",".join(row) + "\n" for row in spelled)
        (data / f"{name}-k10000.csv").write_text(text)


def _record(out: dict[str, list[float]], name: str, a: float, b: float) -> None:
    """Fold one pair of values into the field's [largest |a - b|, largest
    |value|]; equal values (NaN included) differ by 0, a pair with one
    non-finite value by inf."""
    d, scale = out.setdefault(name, [0.0, 0.0])
    if a == b or (math.isnan(a) and math.isnan(b)):
        diff = 0.0
    elif math.isfinite(a) and math.isfinite(b):
        diff = abs(a - b)
    else:
        diff = math.inf
    finite = [abs(x) for x in (a, b) if math.isfinite(x)]
    out[name] = [max(d, diff), max([scale, *finite])]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _walk_json(a, b, path: str, out: dict[str, list[float]]) -> None:
    """Fold two parsed JSON values into _record's per-field maxima; a field
    whose layout or non-numeric value differs gets an inf difference."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            _walk_json(a[key], b[key], f"{path}.{key}" if path else key, out)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _walk_json(x, y, path, out)
    elif _is_number(a) and _is_number(b):
        _record(out, path, float(a), float(b))
    elif a != b:
        out[path or "<top>"] = [math.inf, 0.0]


def _csv_columns(path: Path) -> dict[str, list[str]]:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    return {name: [row[i] if i < len(row) else "" for row in body] for i, name in enumerate(header)}


def _field_diffs(a: Path, b: Path) -> dict[str, float] | None:
    """Per field of two JSON or CSV files, its largest |a - b| over the
    largest |value| it takes in either file (only fields that moved), or
    None for any other kind of file."""
    out: dict[str, list[float]] = {}
    if a.suffix == ".json":
        _walk_json(json.loads(a.read_text()), json.loads(b.read_text()), "", out)
    elif a.suffix == ".csv":
        ca, cb = _csv_columns(a), _csv_columns(b)
        for name in ca.keys() | cb.keys():
            va, vb = ca.get(name), cb.get(name)
            if va is None or vb is None or len(va) != len(vb):
                out[name] = [math.inf, 0.0]
                continue
            for x, y in zip(va, vb):
                try:
                    _record(out, name, float(x), float(y))
                except ValueError:
                    if x != y:
                        out[name] = [math.inf, 0.0]
    else:
        return None
    return {name: d / scale if scale > 0.0 else math.inf
            for name, (d, scale) in out.items() if d > 0.0}


def _json_values(path: Path):
    """The parsed file with each float as its float.hex(), so that == is
    bitwise, and NaN and +-Infinity as their names."""
    return json.loads(path.read_bytes(), parse_float=lambda s: float(s).hex(),
                      parse_constant=str)


def _group(rel: str) -> str:
    return rel.split("-", 1)[0] if rel.startswith("fit-") else rel


def _same(rel: str, this: Path, that: Path) -> bool:
    """Fit outputs (JSON) by value, every other output by its bytes."""
    if this.read_bytes() == that.read_bytes():
        return True
    return _group(rel) == "fit" and _json_values(this) == _json_values(that)


def main(argv=None) -> int:
    trees, _ = _trees.parse(argv, __doc__)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data"
        data.mkdir()
        for k, _, pool in workloads.CLI_SIZES:
            for j in range(pool):
                workloads.write_cli_csv(data / f"k{k}-{j}.csv", k, j)
        for k in MU_SIZES:
            write_mu_csv(data / f"mu-k{k}.csv", k)
        write_design_csvs(data)
        write_scaled_csvs(data)
        write_spelling_csvs(data)
        for name, tree in trees.items():
            (tmp / name).mkdir()
            _trees.run(tree, DRIVER, data, tmp / name)
        files = [
            {p.relative_to(tmp / name).as_posix() for p in (tmp / name).rglob("*") if p.is_file()}
            for name in trees
        ]
        counts: dict[str, list[int]] = {}  # group -> [identical, total]
        bad = []  # (file, per-field differences or None)
        for rel in sorted(files[0] | files[1]):
            both = all(rel in f for f in files)
            this, that = tmp / "this" / rel, tmp / "other" / rel
            same = both and _same(rel, this, that)
            c = counts.setdefault(_group(rel), [0, 0])
            c[0] += same
            c[1] += 1
            if not same:
                bad.append((rel, _field_diffs(this, that) if both else None))
    for group, (same, total) in counts.items():
        kind = "value" if group == "fit" else "byte"
        print(f"{group}: {same}/{total} {kind}-identical")
    for rel, fields in bad:
        print(f"  DIFFERS {rel}")
        for name, d in sorted((fields or {}).items()):
            print(f"    {name}: max diff / max |value| {d:.3g}")
    print(f"{trees['this']} vs {trees['other']}: "
          f"{'identical' if not bad else f'{len(bad)} differing'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
