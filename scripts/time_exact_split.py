"""Time the exact-Bayes fit layer by layer in this checkout and in another
(usually its parent).

    python3 scripts/time_exact_split.py OTHER_TREE [ROUNDS]

The fit is `fitters._fit_exact` on the benchmark's fit-cli pool dataset 0
(``bench/workloads.cli_dataset``, r = 2, V over a decade) at k = 10, 100,
1e4 and 1e5, c = 1. It is split into three layers:

- Newton: `fitters._newton_alpha`, the search for the mode, with its count
  of `AdjustedLogDensity.derivatives` calls and their mean time a call
  (timed by a wrapper around each call, so with its ~0.2 us);
- edge walk: the panel edges at which l is evaluated to choose the kept
  panels, with the count of edges evaluated: the `fitters._panels` call
  and the `AdjustedLogDensity.on_nodes` calls made inside it;
- node pass: the rest of `quadrature_moments` (l at the kept nodes and the
  moments of B), with the count of nodes on each kind of panel: Gauss-
  Legendre (`fitters._GL_NODES` per kept panel) and Gauss-Jacobi tails
  (`fitters._TAIL_NODES` per tail panel), and the path that evaluated them:
  power sums with their number of terms J when
  `AdjustedLogDensity.power_sums` was taken, blocks otherwise.

For k <= 100 it also gives the range of the node count (both kinds) over
every pool dataset of that size, one fit each.

Each round runs one fresh interpreter per checkout, through its own ``src/``,
and the checkout that runs first alternates from round to round, so that
drift within a round falls on both; an interpreter fits each k once to warm
up and then three times, keeping its fastest time per layer. The table gives the
best per layer over ROUNDS rounds (default 5), in ms, the counts, and the
least mean time of a `derivatives` call, in us. A round takes about 5 s on
a 2-core machine.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import _trees

sys.path.insert(0, str(_trees.ROOT / "bench"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402

SIZES = (10, 100, 10_000, 100_000)
POOLED = (10, 100)  # sizes whose whole pool is fitted for its node counts
LAYERS = ("newton", "edges", "nodes", "total")
BEST = LAYERS + ("per_call",)  # each taken as its least over fits and rounds

# Runs inside each checkout: argv = the .npy dataset files, k<k>-<j>.npy.
# Prints one JSON object: under "fits", per k the seconds per layer and the
# counts of the three timed fits of dataset 0, and under "pool" the node
# counts of every dataset.
DRIVER = """
import json
import sys
import time
from pathlib import Path

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


derivatives = AdjustedLogDensity.derivatives


def derivative(self, *args, **kwargs):  # records each call's seconds
    t = clock()
    out = derivatives(self, *args, **kwargs)
    now.setdefault("derivatives", []).append(clock() - t)
    return out


panels = fitters._panels


def edge_walk(ell, *args):
    sizes = []  # of the on_nodes calls made inside _panels: the edges
    on_nodes = ell.on_nodes
    ell.on_nodes = lambda alphas, *a, **kw: sizes.append(alphas.size) or on_nodes(alphas, *a, **kw)
    t = clock()
    out = panels(ell, *args)
    now["edges"] = clock() - t
    del ell.on_nodes
    now.update(edge_count=sum(sizes), node_count=fitters._GL_NODES * out[0].size,
               tail_count=fitters._TAIL_NODES * len(out[3]))
    return out


power_sums = AdjustedLogDensity.power_sums


def recorded(self, *args):
    out = power_sums(self, *args)
    now["path"] = "blocks" if out is None else f"sums J={out[1]}"
    return out


fitters._newton_alpha = timed("newton", fitters._newton_alpha)
fitters.quadrature_moments = timed("moments", fitters.quadrature_moments)
fitters._panels = edge_walk
AdjustedLogDensity.power_sums = recorded
AdjustedLogDensity.derivatives = derivative

result = {"pool": {}, "fits": {}}
for path in sys.argv[1:]:
    table = np.load(path)
    data = TwoLevelData(table[:, 0], table[:, 1], table[:, 2:])
    rows = []
    for rep in range(4 if Path(path).stem.endswith("-0") else 1):  # the first fit warms up
        now.clear()
        fitters._fit_exact(data, PriorSpec(1.0))
        derivs = now.pop("derivatives")
        rows.append(dict(now, per_call=sum(derivs) / len(derivs), derivatives=len(derivs),
                         nodes=now["moments"] - now["edges"], total=now["newton"] + now["moments"]))
    result["pool"].setdefault(str(data.k), []).append([now["node_count"], now["tail_count"]])
    if len(rows) > 1:
        result["fits"][str(data.k)] = rows[1:]
print(json.dumps(result))
"""


def main(argv=None) -> int:
    trees, rounds = _trees.parse(argv, __doc__, rounds=5)
    best: dict[str, dict] = {name: {} for name in trees}
    with tempfile.TemporaryDirectory() as tmp:
        files = []
        for k, _, pool in workloads.CLI_SIZES:
            for j in range(pool if k in POOLED else 1):
                files.append(Path(tmp) / f"k{k}-{j}.npy")
                np.save(files[-1], workloads.cli_dataset(k, j))
        for order in _trees.rounds(trees, rounds):
            for name, tree in order:
                got = json.loads(_trees.run(tree, DRIVER, *files))
                best[name]["pool"] = got["pool"]
                for k, rows in got["fits"].items():
                    for row in rows:
                        old = best[name].setdefault(k, row)
                        for layer in BEST:
                            old[layer] = min(old[layer], row[layer])
    print(f"exact fit, fit-cli pool dataset 0, r = 2, c = 1; best of {rounds} "
          "interleaved rounds (ms)")
    print(f"{'k':>7} {'tree':>5} {'newton':>8} {'edges':>8} {'nodes':>8} {'total':>8}"
          f" {'derivs':>7} {'us/call':>8} {'edges#':>7} {'GL#':>5} {'tails#':>6}  node path")
    for k in map(str, SIZES):
        for name in trees:
            row = best[name][k]
            times = " ".join(f"{1e3 * row[layer]:8.2f}" for layer in LAYERS)
            print(f"{k:>7} {name:>5} {times} {row['derivatives']:7d} {1e6 * row['per_call']:8.1f}"
                  f" {row['edge_count']:7d}"
                  f" {row['node_count']:5d} {row['tail_count']:6d}  {row['path']}")
    print("nodes per exact fit over each pool (GL + tails): min-max")
    for k in map(str, POOLED):
        for name in trees:
            counts = best[name]["pool"][k]
            total = [sum(c) for c in counts]
            print(f"{k:>7} {name:>5} {min(total)}-{max(total)} over {len(total)} datasets"
                  f" (tails {min(c[1] for c in counts)}-{max(c[1] for c in counts)})")
    _trees.print_trees(trees)
    return 0


if __name__ == "__main__":
    sys.exit(main())
