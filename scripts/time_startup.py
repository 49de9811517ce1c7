"""Time `import shrinkfit` and whole `shrinkfit fit` processes, in fresh
interpreters, in this checkout and in another (usually its parent).

    python3 scripts/time_startup.py OTHER_TREE [ROUNDS]

The cases are:

- ``import shrinkfit`` alone;
- ``shrinkfit fit CSV --method adm --out JSON`` on the benchmark's fit-cli
  pool dataset 0 at k = 10, 100, 1e4 and 1e5, the CSVs of
  ``bench/workloads.write_cli_csv`` (unequal V, r = 2);
- ``shrinkfit simulate --preset equal --k 10 --reps 20 --grid-points 5
  --threads 1`` (the same gridpoint size as the benchmark's sim-equal ops).

Each case runs as one fresh ``python -c`` process per checkout, through that
checkout's ``src/``, and is timed from outside: process start to exit,
interpreter start-up included. A round runs every case once in each checkout,
alternating which checkout goes first, so that host drift falls on both. The
table gives the best wall time of ROUNDS rounds (default 7) in seconds, the
child's peak RSS (``ru_maxrss``) in MB on that best run, and which of scipy,
orjson and multiprocessing the process had loaded when it ended. To time
this checkout alone, give it as OTHER_TREE (``.`` from its root).
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path

import _trees

sys.path.insert(0, str(_trees.ROOT / "bench"))

import workloads  # noqa: E402

SIZES = (10, 100, 10_000, 100_000)

# Each case's child ends with REPORT: its peak RSS and which of scipy, orjson
# and multiprocessing it loaded, as the last line of stdout.
REPORT = """
import json, resource, sys
loaded = sorted({m.split(".")[0] for m in sys.modules} & {"scipy", "orjson", "multiprocessing"})
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"rss_mb": rss_mb, "loaded": loaded}))
"""


def cases(work: Path) -> dict[str, str]:
    out = {"import shrinkfit": "import shrinkfit"}
    for k in SIZES:
        csv_path = work / f"k{k}.csv"
        workloads.write_cli_csv(csv_path, k, 0)
        argv = ["fit", str(csv_path), "--method", "adm", "--out", str(work / "out.json")]
        out[f"fit k={k}"] = f"from shrinkfit.cli import main\nassert main({argv!r}) == 0"
    argv = ["simulate", "--preset", "equal", "--k", "10", "--reps", "20", "--grid-points", "5",
            "--threads", "1", "--out", str(work / "sim")]
    out["simulate"] = f"from shrinkfit.cli import main\nassert main({argv!r}) == 0"
    return out


def main(argv=None) -> int:
    trees, rounds = _trees.parse(argv, __doc__, rounds=7)
    with tempfile.TemporaryDirectory() as tmp:
        codes = {name: body + REPORT for name, body in cases(Path(tmp)).items()}
        best: dict[tuple[str, str], tuple[float, dict]] = {}
        for order in _trees.rounds(trees, rounds):
            for case, code in codes.items():
                for label, tree in order:
                    t = time.perf_counter()
                    out = _trees.run(tree, code)
                    wall = time.perf_counter() - t
                    if (label, case) not in best or wall < best[label, case][0]:
                        best[label, case] = (wall, json.loads(out.splitlines()[-1]))
    print(f"best of {rounds} fresh processes")
    print(f"{'case':<18}{'checkout':<10}{'wall s':>8}{'rss MB':>9}  loaded")
    for case in codes:
        for label in trees:
            wall, info = best[label, case]
            loaded = ", ".join(info["loaded"]) or "-"
            print(f"{case:<18}{label:<10}{wall:>8.3f}{info['rss_mb']:>9.1f}  {loaded}")
    _trees.print_trees(trees)
    return 0


if __name__ == "__main__":
    sys.exit(main())
