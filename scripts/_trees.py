"""The driver shared by the scripts that compare this checkout with another
(usually its parent): their command line, a fresh interpreter per child run
through a checkout's own ``src/``, and the order of the checkouts in a round.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse(argv, doc: str, rounds: int = 0) -> tuple[dict[str, Path], int]:
    """The checkouts {"this": ROOT, "other": OTHER_TREE} and ROUNDS from argv
    = OTHER_TREE [ROUNDS] (sys.argv[1:] when None); ROUNDS defaults to
    `rounds` and is accepted only when that is nonzero.  When argv has any
    other form, ROUNDS is not a positive integer or OTHER_TREE has no
    src/shrinkfit, prints doc's second paragraph (its usage) and exits 2."""
    args = sys.argv[1:] if argv is None else argv
    usable = 1 <= len(args) <= (2 if rounds else 1)
    usable = usable and all(a.isdigit() and int(a) > 0 for a in args[1:])
    if not usable or not (Path(args[0]) / "src" / "shrinkfit").is_dir():
        print(doc.split("\n\n")[1], file=sys.stderr)
        raise SystemExit(2)
    return {"this": ROOT, "other": Path(args[0]).resolve()}, int(args[1]) if args[1:] else rounds


def run(tree: Path, code: str, *args) -> str:
    """The stdout of ``python -c code args`` in a fresh interpreter that
    imports shrinkfit from tree/src, with SHRINKFIT_SEED unset so that no
    seed in the caller's environment reaches the child.  Exits with the
    child's stderr when it fails."""
    env = {k: v for k, v in os.environ.items() if k != "SHRINKFIT_SEED"}
    env["PYTHONPATH"] = str(tree / "src")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: child failed\n{proc.stderr}")
    return proc.stdout


def rounds(trees: dict[str, Path], n: int):
    """Each of n rounds' (name, tree) pairs, the first checkout alternating
    from round to round so that drift within a round falls on both."""
    for i in range(n):
        yield list(trees.items())[:: 1 if i % 2 == 0 else -1]


def print_trees(trees: dict[str, Path]) -> None:
    for name, tree in trees.items():
        print(f"{name}: {tree}")
