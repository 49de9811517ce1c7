"""Time `import shrinkfit` and whole `shrinkfit fit` processes, in fresh
interpreters, in this checkout and optionally in another.

    python3 scripts/time_startup.py [--other PATH] [--rounds N]

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
orjson and multiprocessing the process had loaded when it ended.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

SIZES = (10, 100, 10_000, 100_000)
WATCHED = ("scipy", "orjson", "multiprocessing")

# The child runs BODY, then reports its peak RSS and the watched packages it
# loaded as the last line of stderr.
CHILD = """
import json, resource, sys
try:
{body}
finally:
    loaded = sorted({{m.split(".")[0] for m in sys.modules}} & {watched!r})
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({{"rss_mb": rss_mb, "loaded": loaded}}), file=sys.stderr)
"""


def child_code(body: str) -> str:
    body = "\n".join("    " + line for line in body.splitlines())
    return CHILD.format(body=body, watched=set(WATCHED))


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


def run_once(tree: Path, code: str) -> tuple[float, dict]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: child failed\n{proc.stderr}")
    return wall, json.loads(proc.stderr.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--other", type=Path, help="a second checkout to interleave with")
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args(argv)
    trees = {"this": ROOT} if args.other is None else {"this": ROOT, "other": args.other.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        codes = {name: child_code(body) for name, body in cases(Path(tmp)).items()}
        best: dict[tuple[str, str], tuple[float, dict]] = {}
        for rnd in range(args.rounds):
            order = list(trees) if rnd % 2 == 0 else list(trees)[::-1]
            for case, code in codes.items():
                for label in order:
                    wall, info = run_once(trees[label], code)
                    if (label, case) not in best or wall < best[label, case][0]:
                        best[label, case] = (wall, info)
    print(f"best of {args.rounds} fresh processes")
    for label, tree in trees.items():
        print(f"  {label}: {tree}")
    print(f"{'case':<18}{'checkout':<10}{'wall s':>8}{'rss MB':>9}  loaded")
    for case in codes:
        for label in trees:
            wall, info = best[label, case]
            loaded = ", ".join(info["loaded"]) or "-"
            print(f"{case:<18}{label:<10}{wall:>8.3f}{info['rss_mb']:>9.1f}  {loaded}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
