"""Recompute every stored benchmark reference entry and compare.

    python3 scripts/check_bench_reference.py [sim-equal] [fit-cli]

A benchmark run checks only the pool entries its seed picks (100 of the 400
sim-equal entries, 26 of the 37 fit-cli datasets). This script runs all of
them through the benchmark's own checks (``check_sim``, ``check_cli`` in
bench/workloads.py) and, per workload, prints the entries that mismatch, the
count of figures that equal the reference bit for bit, and the worst relative
deviation with its key, split by method and figure. Exits 1 on any mismatch.
Outputs go to a temporary directory only; both workloads take about 35 s.
"""

from __future__ import annotations

import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

SIM_FIGURES = ("coverage", "risk", "mean_B_hat")
CLI_FIGURES = ("A_hat", "B_min", "B_mean", "B_max")


def _sim_entries():
    """(key, [(method, figure, got, want)], failed, mismatch) per sim-equal entry."""
    from shrinkfit.evaluate import run_coverage

    ref = workloads.load_reference("sim-equal")["ops"]
    picks = [(g, j) for g in range(workloads.SIM_GRID_POINTS)
             for j in range(workloads.SIM_POOL)]
    for (g, j), cfg in zip(picks, workloads.sim_configs(picks)):
        key = f"{g}/{j}"
        got = workloads.sim_summary(run_coverage(cfg, threads=1))
        failed, mismatch = workloads.check_sim(got, ref[key], cfg.reps)
        figures = [
            (f"{method}/{group}", name, a, b)
            for method, groups in ref[key].items()
            for group, want in groups.items()
            for name, a, b in zip(SIM_FIGURES, got.get(method, {}).get(group, []), want)
        ]
        yield key, figures, failed, mismatch


def _cli_entries(work: Path):
    """The same for every fit-cli (dataset, method) pair."""
    from shrinkfit import cli

    ref = workloads.load_reference("fit-cli")["ops"]
    for k, _, pool in workloads.CLI_SIZES:
        for j in range(pool):
            csv = work / f"k{k}-{j}.csv"
            workloads.write_cli_csv(csv, k, j)
            for m in workloads.CLI_METHODS:
                key, want = f"{k}/{j}/{m}", ref[f"{k}/{j}"][m]
                out = work / "out.json"
                out.unlink(missing_ok=True)
                rc = cli.main(["fit", str(csv), "--method", m, "--out", str(out)])
                payload = workloads.read_cli_output(out) if rc == 0 else None
                failed, mismatch = workloads.check_cli(payload, m, want)
                figures = []
                if payload is not None:
                    got = workloads.cli_summary(payload, m)
                    pairs = [(got["A_hat"], want["A_hat"])]
                    if want["B"] is not None and got["B"] is not None:
                        pairs += list(zip(got["B"], want["B"]))
                    figures = [(m, name, a, b) for name, (a, b) in zip(CLI_FIGURES, pairs)]
                yield key, figures, failed, mismatch


def _rel(got: float, want: float) -> float:
    if got == want or (math.isnan(got) and math.isnan(want)):
        return 0.0
    return abs(got - want) / abs(want) if want != 0.0 else math.inf


def report(name: str, entries) -> int:
    """Print the comparison of one workload; return its mismatch count."""
    mismatches, failed = [], 0
    stats: dict[tuple[str, str], list] = {}  # (method, figure) -> [n, identical, worst, key]
    for key, figures, n_failed, mismatch in entries:
        failed += n_failed
        if mismatch:
            mismatches.append(key)
        for method, figure, got, want in figures:
            s = stats.setdefault((method, figure), [0, 0, 0.0, None])
            s[0] += 1
            s[1] += got == want or (math.isnan(got) and math.isnan(want))
            rel = _rel(got, want)
            if rel > s[2]:
                s[2], s[3] = rel, key
    total = sum(s[0] for s in stats.values())
    same = sum(s[1] for s in stats.values())
    print(f"{name}: {len(mismatches)} mismatches; {same}/{total} figures bit-identical; "
          f"{failed} failed fits")
    for key in mismatches:
        print(f"  MISMATCH {key}")
    for (method, figure), (n, ident, worst, key) in sorted(stats.items()):
        where = f" at {key}" if key else ""
        print(f"  {method:10s} {figure:10s} {ident:4d}/{n:<4d} identical, "
              f"worst rel {worst:.3g}{where}")
    return len(mismatches)


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or list(workloads.WORKLOADS)
    unknown = set(names) - set(workloads.WORKLOADS)
    if unknown:
        print(f"unknown workload(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            entries = _cli_entries(Path(tmp)) if name == "fit-cli" else _sim_entries()
            bad += report(name, entries)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
