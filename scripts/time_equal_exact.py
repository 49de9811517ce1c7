"""Time equal-variance exact Bayes in this checkout and in another.

    python3 scripts/time_equal_exact.py OTHER_TREE [ROUNDS]

Four cases, each run through a checkout's own ``src/``:

- sim-equal: the exact step of a simulation gridpoint
  (`evaluate._fit_replications`) at k = 10, 20 replications and c = 1,
  the benchmark's sim-equal design, over the 100 gridpoints of
  ``equal_variance_grid()``; the time is per gridpoint;
- equal c = 0.5: the same step at c = 0.5 on one gridpoint of 1000
  replications (k = 10, B0 = 0.5);
- ``shrinkfit curves --c 0.5`` with its default k and T grids;
- ``shrinkfit fit --method exact --c 0.5`` on an equal-variance r = 0 file
  at k = 1e4 (V = 1, y standard Normal from default_rng(10_000)), the
  file ``scripts/compare_outputs.py`` fits.

The replications are drawn from default_rng(gridpoint) with the variance
1 + A of the gridpoint's B0, the same in both checkouts.  Each round runs
one fresh interpreter per checkout, and the checkout that runs first
alternates from round to round; an interpreter runs each case once to warm
up and then three times, keeping its fastest time.  The table gives, per
case and checkout, the median and the range of those times over ROUNDS
rounds (default 10), in ms.  A round takes about 5 s on a 2-core machine,
most of it in the equal c = 0.5 case of a checkout whose c = 0.5 exact
fits run the quadrature.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

CASES = ("sim-equal", "equal c = 0.5", "curves --c 0.5", "fit exact c = 0.5, k = 1e4")

# Runs inside each checkout: argv = the k = 1e4 CSV, an output directory.
# Prints one JSON object: per case, the fastest of three runs in seconds.
DRIVER = """
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

from shrinkfit import FitMethod, cli, evaluate

csv_path, out = sys.argv[1], Path(sys.argv[2])


def draws(b0, reps, seed):
    return np.random.default_rng(seed).normal(0.0, np.sqrt(1.0 / b0), (reps, 10))


def fit_exact(cfg, y):
    # a checkout whose gridpoint forms each replication's y @ y for its methods
    # passes them in; the time includes forming them
    if "ss" in inspect.signature(evaluate._fit_replications).parameters:
        return evaluate._fit_replications(cfg, FitMethod.EXACT, y,
                                          [float(s) for s in map(np.dot, y, y)])
    return evaluate._fit_replications(cfg, FitMethod.EXACT, y)


grid = evaluate.equal_variance_grid()
sim = [(evaluate.equal_variance_config(10, seed=0, reps=20, grid=(b0,)), draws(b0, 20, g))
       for g, b0 in enumerate(grid)]
half = evaluate.equal_variance_config(10, seed=0, reps=1000, grid=(0.5,), c=0.5)
half_y = draws(0.5, 1000, len(grid))
cases = [
    (lambda: [fit_exact(cfg, y) for cfg, y in sim], len(grid)),
    (lambda: fit_exact(half, half_y), 1),
    (lambda: cli.main(["curves", "--c", "0.5", "--out", str(out / "curves.csv")]), 1),
    (lambda: cli.main(["fit", csv_path, "--method", "exact", "--c", "0.5",
                       "--out", str(out / "fit.json")]), 1),
]
best = []
for run, per in cases:
    run()
    times = []
    for _ in range(3):
        t = time.perf_counter()
        run()
        times.append((time.perf_counter() - t) / per)
    best.append(min(times))
print(json.dumps(best))
"""


def run_tree(tree: Path, csv_path: Path, out: Path) -> list[float]:
    env = {k: v for k, v in os.environ.items() if k != "SHRINKFIT_SEED"}
    env["PYTHONPATH"] = str(tree / "src")
    result = subprocess.run([sys.executable, "-c", DRIVER, str(csv_path), str(out)], env=env,
                            check=True, capture_output=True, text=True).stdout
    return json.loads(result)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not 1 <= len(args) <= 2 or not (Path(args[0]) / "src" / "shrinkfit").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    from shrinkfit import TwoLevelData
    from shrinkfit.cli import write_dataset_csv

    rounds = int(args[1]) if len(args) == 2 else 10
    trees = {"this": ROOT, "other": Path(args[0]).resolve()}
    times: dict[str, list[list[float]]] = {name: [] for name in trees}
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "equal-k10000.csv"
        k = 10_000
        y = np.random.default_rng(k).normal(size=k)
        write_dataset_csv(csv_path, TwoLevelData(y, np.ones(k)))
        for i in range(rounds):
            for name in list(trees)[:: 1 if i % 2 == 0 else -1]:
                times[name].append(run_tree(trees[name], csv_path, Path(tmp)))
    print(f"equal-variance exact Bayes: median [min, max] of {rounds} interleaved rounds (ms)")
    for j, case in enumerate(CASES):
        for name in trees:
            col = [1e3 * row[j] for row in times[name]]
            print(f"{case:>27} {name:>5} {statistics.median(col):10.3f}"
                  f"  [{min(col):.3f}, {max(col):.3f}]")
    for name, tree in trees.items():
        print(f"{name}: {tree}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
