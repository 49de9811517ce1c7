"""Compare the output bytes of `shrinkfit` in this checkout and in another.

    python3 scripts/compare_outputs.py OTHER_TREE

Each checkout runs, through its own ``src/`` in a fresh interpreter:

- ``shrinkfit fit`` on every fit-cli pool dataset of the benchmark (the 37
  CSVs of ``bench/workloads.write_cli_csv``, k = 10 to 1e5) under each of
  the four methods, 148 calls;
- a small seeded ``simulate --preset equal`` and ``simulate --preset
  two-group``;
- ``curves`` with its defaults.

Prints how many outputs are byte-identical per command, names every file
that differs or exists in only one checkout, and exits 1 on any difference.
Exit codes are compared as well. Everything is written to a temporary
directory; each checkout takes about 15 s on a 2-core machine.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

# Runs inside each checkout: argv = datasets directory, output directory.
DRIVER = """
import sys
from pathlib import Path
from shrinkfit.cli import main

data, out = Path(sys.argv[1]), Path(sys.argv[2])
calls = [
    (f"fit-{csv.stem}-{m}.json", ["fit", str(csv), "--method", m])
    for csv in sorted(data.glob("*.csv"))
    for m in ("adm", "mle", "reml", "exact")
]
calls += [
    ("simulate-equal", ["simulate", "--preset", "equal", "--k", "4", "--k", "10",
                        "--reps", "20", "--grid-points", "5", "--seed", "7"]),
    ("simulate-two-group", ["simulate", "--preset", "two-group", "--reps", "10",
                            "--grid-points", "5", "--seed", "7"]),
    ("curves.csv", ["curves"]),
]
codes = []
for name, argv in calls:
    codes.append(f"{name} {main(argv + ['--out', str(out / name)])}")
(out / "exit-codes.txt").write_text("\\n".join(codes) + "\\n")
"""


def run_tree(tree: Path, data: Path, out: Path) -> None:
    out.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "SHRINKFIT_SEED"}
    env["PYTHONPATH"] = str(tree / "src")
    subprocess.run([sys.executable, "-c", DRIVER, str(data), str(out)], env=env, check=True)


def _group(rel: str) -> str:
    return rel.split("-", 1)[0] if rel.startswith("fit-") else rel


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "src" / "shrinkfit").is_dir():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    other = Path(args[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data"
        data.mkdir()
        for k, _, pool in workloads.CLI_SIZES:
            for j in range(pool):
                workloads.write_cli_csv(data / f"k{k}-{j}.csv", k, j)
        trees = {"this": ROOT, "other": other}
        for name, tree in trees.items():
            run_tree(tree, data, tmp / name)
        files = [
            {p.relative_to(tmp / name).as_posix() for p in (tmp / name).rglob("*") if p.is_file()}
            for name in trees
        ]
        counts: dict[str, list[int]] = {}  # group -> [identical, total]
        bad = []
        for rel in sorted(files[0] | files[1]):
            same = all(rel in f for f in files) and (
                (tmp / "this" / rel).read_bytes() == (tmp / "other" / rel).read_bytes()
            )
            c = counts.setdefault(_group(rel), [0, 0])
            c[0] += same
            c[1] += 1
            if not same:
                bad.append(rel)
    for group, (same, total) in counts.items():
        print(f"{group}: {same}/{total} byte-identical")
    for rel in bad:
        print(f"  DIFFERS {rel}")
    print(f"{ROOT} vs {other}: {'identical' if not bad else f'{len(bad)} differing'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
