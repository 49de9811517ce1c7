"""Time the exact-Bayes fit layer by layer in this checkout and in another.

    python3 scripts/time_exact_split.py OTHER_TREE [ROUNDS]

The fit is `fitters.fit_exact_quadrature` on the benchmark's fit-cli pool
dataset 0 (``bench/workloads.cli_dataset``, r = 2, V over a decade) at
k = 1e4 and 1e5, c = 1. It is split into three layers:

- Newton: `fitters._newton_alpha`, the search for the mode, with its count
  of `AdjustedLogDensity.derivatives` calls;
- edge walk: the panel edges at which l is evaluated to choose the kept
  panels, with the count of edges evaluated. In a checkout that has
  `fitters._panels` this is that call and the `AdjustedLogDensity.on_nodes`
  calls made inside it; in an older one, the first `on_nodes` call of
  `quadrature_moments`;
- node pass: the rest of `quadrature_moments` (l at the kept nodes and the
  moments of B), with the count of nodes, 12 per kept panel (in an older
  checkout, the size of the last `on_nodes` call), and its path: power sums
  with their number of terms J when `AdjustedLogDensity.power_sums` was
  taken, blocks otherwise.

Each round runs one fresh interpreter per checkout, through its own ``src/``,
alternating between the two; an interpreter fits each k once to warm up and
then three times, keeping its fastest time per layer. The table gives the
best per layer over ROUNDS rounds (default 5), in ms, and the counts. A
round takes about 5 s on a 2-core machine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

SIZES = (10_000, 100_000)
LAYERS = ("newton", "edges", "nodes", "total")

# Runs inside each checkout: argv = the .npy dataset files.  Prints one JSON
# object: per k, the fastest seconds per layer and the counts.
DRIVER = """
import json
import sys
import time

import numpy as np

from shrinkfit import AdjustedLogDensity, PriorSpec, TwoLevelData, fitters

clock = time.perf_counter
now = {}


def timed(name, fn):
    def wrapper(*args, **kwargs):
        t = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            now[name] = now.get(name, 0.0) + clock() - t
    return wrapper


def counted(name, fn, size):
    # records (size of the argument, seconds, inside _panels) per call
    def wrapper(self, alphas, *args, **kwargs):
        t = clock()
        out = fn(self, alphas, *args, **kwargs)
        now.setdefault(name, []).append((size(alphas), clock() - t, "inside" in now))
        return out
    return wrapper


fitters._newton_alpha = timed("newton", fitters._newton_alpha)
fitters.quadrature_moments = timed("total", fitters.quadrature_moments)
walk = hasattr(fitters, "_panels")
if walk:
    panels = fitters._panels

    def edge_walk(*args):
        now["inside"] = True  # marks the on_nodes calls made inside _panels
        t = clock()
        out = panels(*args)
        now["edges"] = clock() - t
        del now["inside"]
        now["kept"] = out[0].size
        return out

    fitters._panels = edge_walk
if hasattr(AdjustedLogDensity, "power_sums"):
    power_sums = AdjustedLogDensity.power_sums

    def recorded(self, *args):
        out = power_sums(self, *args)
        now["path"] = "blocks" if out is None else f"sums J={out[1]}"
        return out

    AdjustedLogDensity.power_sums = recorded
AdjustedLogDensity.derivatives = counted(
    "derivatives", AdjustedLogDensity.derivatives, lambda a: 1)
AdjustedLogDensity.on_nodes = counted("on_nodes", AdjustedLogDensity.on_nodes, np.size)

result = {}
for path in sys.argv[1:]:
    table = np.load(path)
    data = TwoLevelData(table[:, 0], table[:, 1], table[:, 2:])
    rows = []
    for rep in range(4):  # the first fit warms up
        now.clear()
        fitters.fit_exact_quadrature(data, PriorSpec(1.0))
        calls = now["on_nodes"]
        if walk:  # the edges' calls are those made inside _panels
            edges = sum(n for n, _, inside in calls if inside)
            nodes = fitters._GL_NODES * now["kept"]
        else:  # an older tree: every edge in the first call, the nodes in the last
            now["edges"] = calls[0][1]
            edges, nodes = calls[0][0], calls[-1][0]
        rows.append({
            "newton": now["newton"],
            "edges": now["edges"],
            "nodes": now["total"] - now["edges"],
            "total": now["newton"] + now["total"],
            "derivatives": len(now["derivatives"]),
            "edge_count": edges,
            "node_count": nodes,
            "path": now.get("path", "blocks"),
        })
    best = dict(rows[-1])
    for layer in ("newton", "edges", "nodes", "total"):
        best[layer] = min(row[layer] for row in rows[1:])
    result[str(data.k)] = best
print(json.dumps(result))
"""


def run_tree(tree: Path, files: list[Path]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SHRINKFIT_SEED"}
    env["PYTHONPATH"] = str(tree / "src")
    out = subprocess.run([sys.executable, "-c", DRIVER, *map(str, files)], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not 1 <= len(args) <= 2 or not (Path(args[0]) / "src" / "shrinkfit").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rounds = int(args[1]) if len(args) == 2 else 5
    trees = {"this": ROOT, "other": Path(args[0]).resolve()}
    best: dict[str, dict] = {name: {} for name in trees}
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for k in SIZES:
            files.append(Path(tmp) / f"k{k}.npy")
            np.save(files[-1], workloads.cli_dataset(k, 0))
        for _ in range(rounds):
            for name, tree in trees.items():
                for k, row in run_tree(tree, files).items():
                    old = best[name].setdefault(k, row)
                    for layer in LAYERS:
                        old[layer] = min(old[layer], row[layer])
    print(f"exact fit, fit-cli pool dataset 0, r = 2, c = 1; best of {rounds} "
          "interleaved rounds (ms)")
    print(f"{'k':>7} {'tree':>5} {'newton':>8} {'edges':>8} {'nodes':>8} {'total':>8}"
          f" {'derivs':>7} {'edges#':>7} {'nodes#':>7}  node path")
    for k in map(str, SIZES):
        for name in trees:
            row = best[name][k]
            times = " ".join(f"{1e3 * row[layer]:8.1f}" for layer in LAYERS)
            print(f"{k:>7} {name:>5} {times} {row['derivatives']:7d} {row['edge_count']:7d}"
                  f" {row['node_count']:7d}  {row['path']}")
    for name, tree in trees.items():
        print(f"{name}: {tree}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
