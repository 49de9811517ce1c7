"""Regenerate the stored reference outputs in bench/reference/.

    python3 bench/make_reference.py [--workload NAME ...]

Runs every pool entry of each workload once (about a minute per workload)
and records the figures the benchmark checks. Regenerate only when the
workload definitions change, never to make a failing check pass: the
references pin the outputs of the program as it was when they were made.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def sim_reference() -> dict:
    from shrinkfit.evaluate import run_coverage

    picks = [(g, j) for g in range(workloads.SIM_GRID_POINTS)
             for j in range(workloads.SIM_POOL)]
    ops = {}
    for (g, j), cfg in zip(picks, workloads.sim_configs(picks)):
        ops[f"{g}/{j}"] = workloads.sim_summary(run_coverage(cfg, threads=1))
    return ops


def cli_reference() -> dict:
    from shrinkfit import cli

    work = ROOT / ".bench-out" / "reference-work"
    work.mkdir(parents=True, exist_ok=True)
    ops = {}
    try:
        for k, _, pool in workloads.CLI_SIZES:
            for j in range(pool):
                csv = work / f"k{k}-{j}.csv"
                workloads.write_cli_csv(csv, k, j)
                entry = ops[f"{k}/{j}"] = {}
                for m in workloads.CLI_METHODS:
                    out = work / "out.json"
                    rc = cli.main(["fit", str(csv), "--method", m, "--out", str(out)])
                    if rc != 0:
                        raise SystemExit(f"fit {k}/{j} --method {m} exited {rc}")
                    entry[m] = workloads.cli_summary(workloads.read_cli_output(out), m)
                    if entry[m]["B"] is None:
                        print(f"note: {k}/{j} {m}: B_hat not finite; "
                              "only A_hat has a reference", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return ops


def write(name: str, ops: dict) -> None:
    path = workloads.REFERENCE_DIR / f"{name}.json"
    head = json.dumps({"workload": name, "rel_tol": workloads.REL_TOL,
                       "abs_tol": workloads.ABS_TOL})[:-1]
    lines = [f"{json.dumps(key)}: {json.dumps(val, sort_keys=True)}"
             for key, val in ops.items()]
    path.parent.mkdir(exist_ok=True)
    path.write_text(head + ', "ops": {\n' + ",\n".join(lines) + "\n}}\n", encoding="utf-8")


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    for name in p.parse_args(argv).workload or workloads.WORKLOADS:
        write(name, cli_reference() if name == "fit-cli" else sim_reference())
        print(f"wrote reference/{name}.json")


if __name__ == "__main__":
    main()
