"""The benchmark's stored sim-equal reference, checked in the test suite.

Every one of the 400 sim-equal pool entries (100 gridpoints, 4 seeds each)
runs through run_coverage and the benchmark's own check, check_sim in
bench/workloads.py, against bench/reference/sim-equal.json, so a change that
moves a figure the benchmark pins fails here and not only in a benchmark
run.  The bench module is loaded read-only: no bytecode is written under
bench/.
"""

import importlib.util
import sys
from pathlib import Path

from shrinkfit.evaluate import run_coverage

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_sim_equal_pool_entry_matches_the_reference():
    workloads = _bench_workloads()
    ref = workloads.load_reference("sim-equal")["ops"]
    picks = [(g, j) for g in range(workloads.SIM_GRID_POINTS) for j in range(workloads.SIM_POOL)]
    assert len(picks) == len(ref) == 400
    bad = []
    for (g, j), cfg in zip(picks, workloads.sim_configs(picks)):
        got = workloads.sim_summary(run_coverage(cfg, threads=1))
        failed, mismatch = workloads.check_sim(got, ref[f"{g}/{j}"], cfg.reps)
        if failed or mismatch:
            bad.append(f"{g}/{j}")
    assert bad == []
