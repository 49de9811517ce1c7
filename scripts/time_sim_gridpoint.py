"""Time one simulation gridpoint layer by layer in this checkout and in another.

    python3 scripts/time_sim_gridpoint.py OTHER_TREE [ROUNDS]

The gridpoints are the 100 ops of the benchmark's sim-equal round at seed 1
(``bench/workloads.sim_configs``: k = 10, r = 0, equal V, 20 replications,
exact + ADM + MLE), each one `run_coverage` call. A gridpoint is split into:

- draws: the replications' Philox streams and their normals
  (`evaluate._rep_rngs`, timed from its call until it is exhausted, so the
  `standard_normal` calls of the loop it drives are inside);
- fits: `evaluate._fit_replications` per method. For MLE also its rounds
  (calls of the row kernel `density.known_means_rows`), its row
  evaluations (rows over all calls), the kernel's time, and the search's
  time: the rest of the search as the gridpoint calls it
  (`fitters.mle_known_means` with the sums of squares the gridpoint formed,
  or `_mle_known_means` in a checkout that has it: `fitters._lockstep`, the
  search generators, the search ranges);
- `inference.shrunken_moments` and `specfun.ndtr`, the scoring's two calls;
- rest: the remainder of `evaluate._simulate_gridpoint`, that is theta and
  y, the stacking of the fits, the scoring arithmetic and the per-(method,
  group) row assembly;
- op: the whole `run_coverage` call, timed without the layer wrappers.

Each round runs one fresh interpreter per checkout, through its own
``src/``, and the checkout that runs first alternates from round to round,
so that drift within a round falls on both. An interpreter runs the 100 ops
once to warm up, three times unwrapped for op, then three times with every
layer wrapped, keeping each op's fastest time per layer. The table gives the
best over ROUNDS rounds (default 5), as the mean per op in microseconds.
The kernel's wrapper adds 0.6-1.0 us a call (timeit on a 20 x 10 batch),
some 30-45 us an op, to the MLE figures. A round takes about 3 s on a
2-core machine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
LAYERS = ("draws", "fit.exact", "fit.adm", "fit.mle", "mle.kernel", "mle.search",
          "shrunken_moments", "ndtr", "rest", "op")

# Runs inside each checkout: argv = [bench directory, seed]. Prints one JSON
# object {"layers": per layer the fastest seconds of each op, "rounds":
# kernel calls per op, "rows": row evaluations per op, "reps": per op}.
CHILD_CODE = """
import json
import random
import sys
import time

sys.path.insert(0, sys.argv[1])
sys.dont_write_bytecode = True  # nothing is written under bench/
import workloads
from shrinkfit import evaluate, fitters

clock = time.perf_counter
picks_rng = random.Random(f"sim-equal/{sys.argv[2]}")
picks = [(g, picks_rng.randrange(workloads.SIM_POOL)) for g in range(workloads.SIM_GRID_POINTS)]
configs = workloads.sim_configs(picks)
now = {}


def add(name, t):
    now[name] = now.get(name, 0.0) + t


def timed(name, fn):
    def wrapper(*args, **kwargs):
        t = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            add(name, clock() - t)
    return wrapper


rep_rngs = evaluate._rep_rngs


def draws(*args):
    t = clock()
    yield from rep_rngs(*args)
    add("draws", clock() - t)


fit_replications = evaluate._fit_replications


def fits(cfg, method, y, *ss):
    t = clock()
    try:
        return fit_replications(cfg, method, y, *ss)
    finally:
        add("fit." + method.value, clock() - t)


kernel = fitters.known_means_rows


def counted_kernel(alphas, *args, **kwargs):
    now["rounds"] = now.get("rounds", 0) + 1
    now["rows"] = now.get("rows", 0) + len(alphas)
    t = clock()
    try:
        return kernel(alphas, *args, **kwargs)
    finally:
        add("mle.kernel", clock() - t)


best = [{} for _ in configs]
for c in configs:  # warm-up
    evaluate.run_coverage(c, threads=1)
for _ in range(3):
    for i, c in enumerate(configs):
        t = clock()
        evaluate.run_coverage(c, threads=1)
        best[i]["op"] = min(best[i].get("op", 1e9), clock() - t)
evaluate._rep_rngs = draws
evaluate._fit_replications = fits
# the search as the gridpoint calls it, under the name evaluate imports
mle = "_mle_known_means" if hasattr(evaluate, "_mle_known_means") else "mle_known_means"
setattr(evaluate, mle, timed("mle", getattr(evaluate, mle)))
evaluate.shrunken_moments = timed("shrunken_moments", evaluate.shrunken_moments)
evaluate.ndtr = timed("ndtr", evaluate.ndtr)
evaluate._simulate_gridpoint = timed("gridpoint", evaluate._simulate_gridpoint)
fitters.known_means_rows = counted_kernel
counts = []
for _ in range(3):
    for i, c in enumerate(configs):
        now.clear()
        evaluate.run_coverage(c, threads=1)
        now["mle.search"] = now["mle"] - now["mle.kernel"]
        fitted = sum(now[k] for k in now if k.startswith("fit."))
        now["rest"] = now["gridpoint"] - now["draws"] - fitted - now["shrunken_moments"] - now["ndtr"]
        for layer, t in now.items():
            if layer not in ("rounds", "rows"):
                best[i][layer] = min(best[i].get(layer, 1e9), t)
        if len(counts) < len(configs):
            counts.append((now["rounds"], now["rows"], c.reps))
print(json.dumps({"layers": best, "rounds": [c[0] for c in counts],
                  "rows": [c[1] for c in counts], "reps": [c[2] for c in counts]}))
"""


def run_tree(tree: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out = subprocess.run([sys.executable, "-c", CHILD_CODE, str(ROOT / "bench"), str(SEED)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not 1 <= len(args) <= 2 or not (Path(args[0]) / "src" / "shrinkfit").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rounds = int(args[1]) if len(args) == 2 else 5
    trees = {"this": ROOT, "other": Path(args[0]).resolve()}
    best: dict[str, dict] = {}
    for i in range(rounds):
        for name in list(trees)[:: 1 if i % 2 == 0 else -1]:
            got = run_tree(trees[name])
            old = best.setdefault(name, got)
            for mine, theirs in zip(old["layers"], got["layers"]):
                for layer, t in theirs.items():
                    mine[layer] = min(mine[layer], t)
    print(f"sim-equal gridpoint (seed {SEED} round, 100 ops); best of {rounds} "
          "interleaved rounds, mean per op (us)")
    print(f"{'layer':>16} " + " ".join(f"{name:>9}" for name in trees))
    for layer in LAYERS:
        means = [1e6 * sum(op[layer] for op in best[name]["layers"]) / len(best[name]["layers"])
                 for name in trees]
        print(f"{layer:>16} " + " ".join(f"{m:9.1f}" for m in means))
    for label, key in (("mle rounds/op", "rounds"), ("mle rows/op", "rows")):
        print(f"{label:>16} " + " ".join(
            f"{sum(best[n][key]) / len(best[n][key]):9.1f}" for n in trees))
    print(f"{'evals/row':>16} " + " ".join(
        f"{sum(best[n]['rows']) / sum(best[n]['reps']):9.2f}" for n in trees))
    for name, tree in trees.items():
        print(f"{name}: {tree}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
