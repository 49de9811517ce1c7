"""shrinkfit benchmark: simulation throughput and `shrinkfit fit` latency.

Run from the repository root:

    python3 bench/run.py --workload sim-equal --seed 1 --seconds 50 --trace 0

One client, one process, closed loop: each op starts when the previous one
has returned. A run sets up the workload several times (importing shrinkfit
in a fresh interpreter and generating the inputs), warms up, then repeats
whole rounds of the workload's ops while the next round still fits in
``--seconds``. Every op's output is checked against ``reference/``. Each op
repeats the same deterministic computation in every round, so its latency is
taken as its fastest round: on a shared host the slower repeats measure the
neighbours, not the program. Percentiles are taken across the ops.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics; the spans are
written to ``.bench-out/`` at exit. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench-out"

N_SETUP = 3  # set-ups per run; setup_s is their median
MIN_ROUNDS = 3  # untraced rounds per run, so every op's fastest round is of 3

END_TO_END = {
    "setup_s": "s",
    "fits_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"density.evals.{m}": "count" for m in tracing.METHODS},
    "density.eval_us": "us",
    **{f"fitters.fit_us.{m}": "us" for m in tracing.METHODS},
    **{f"fitters.self_us.{m}": "us" for m in tracing.METHODS},
    "model.validate_us": "us",
    "inference.random_effects_us": "us",
    "evaluate.op_ms": "ms",
    "evaluate.self_ms": "ms",
    "evaluate.self_share": "ratio",
    "specfun.gamma_calls": "count",
    "specfun.gamma_us": "us",
    "cli.read_ms": "ms",
    "cli.self_ms": "ms",
    "cli.output_bytes": "bytes",
    "trace.overhead": "ratio",
    "trace.base_s": "s",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import shrinkfit; "
    "print(time.perf_counter() - t)"
)


@dataclass
class OpResult:
    seconds: float
    fits: int
    failed: int
    mismatch: bool
    out_bytes: int


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few ops per round, for the self-test")
    return p.parse_args(argv)


def _blas_threads():
    """OpenBLAS thread count as the library reports it, or None."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def env_record(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def time_import() -> float:
    """Seconds to import shrinkfit in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_round(ops, tracer=None, root_name=None) -> list[OpResult]:
    results = []
    for op in ops:
        if op.out_path is not None:
            op.out_path.unlink(missing_ok=True)  # a stale file must not pass
        t0 = perf_counter()
        try:
            out = tracer.root(root_name, op.run) if tracer else op.run()
            raised = False
        except Exception:  # a fit that raises is counted as failed, not fatal
            out, raised = None, True
        dt = perf_counter() - t0
        failed, mismatch = (op.fits, True) if raised else op.check(out)
        size = 0
        if op.out_path is not None and op.out_path.exists():
            size = op.out_path.stat().st_size
        results.append(OpResult(dt, op.fits, failed, mismatch, size))
    return results


def run_rounds(seconds: float, body, min_rounds: int) -> None:
    """Call ``body(i)`` for rounds i = 0, 1, ... while another round of the
    mean length still ends within ``seconds``, and at least ``min_rounds``
    times."""
    start, lengths = perf_counter(), []
    while True:
        t0 = perf_counter()
        body(len(lengths))
        lengths.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        if len(lengths) >= min_rounds and elapsed + statistics.mean(lengths) > seconds:
            return


def op_latencies(rounds: list[list[OpResult]]) -> list[float]:
    """Each op's latency: its fastest round."""
    return [min(r.seconds for r in col) for col in zip(*rounds)]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "shrinkfit" / "__init__.py").is_file():
        print(f"error: no shrinkfit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import shrinkfit  # noqa: F401  (the timed imports run in fresh interpreters)

    ref = workloads.load_reference(args.workload)["ops"]
    work = OUT_DIR / f"work-{os.getpid()}"
    env = env_record(args)
    try:
        setups = []
        for _ in range(N_SETUP):
            t_import = time_import()
            t0 = perf_counter()
            workloads.setup(args.workload, args.seed, args.size, work)
            wl = workloads.build(args.workload, args.seed, args.size, work, ref)
            setups.append(t_import + perf_counter() - t0)
        run_round(wl.warmup)

        root_name = "cli.main" if args.workload == "fit-cli" else "evaluate.run_coverage"
        plain: list[list[OpResult]] = []
        traced: list[list[OpResult]] = []
        if args.trace:
            tracer = tracing.Tracer()

            def traced_round():
                kept = len(tracer.spans)
                tracer.install()
                try:
                    traced.append(run_round(wl.ops, tracer, root_name))
                finally:
                    tracer.uninstall()
                # later rounds repeat the first one's calls; keeping only its
                # spans bounds memory (a sim-equal round has ~85k spans)
                if kept:
                    del tracer.spans[kept:]

            def pair(i):  # alternate which half goes first
                if i % 2:
                    traced_round()
                plain.append(run_round(wl.ops))
                if not i % 2:
                    traced_round()

            run_rounds(args.seconds, pair, 1)
        else:
            run_rounds(args.seconds, lambda i: plain.append(run_round(wl.ops)), MIN_ROUNDS)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = [r for rnd in plain + traced for r in rnd]
    attempted = sum(r.fits for r in results)
    failed = sum(r.failed for r in results)
    correct = not any(r.mismatch for r in results)
    print(f"# shrinkfit benchmark: {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} fits failed, "
          f"reference mismatch: {not correct})")

    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}
    if args.trace:
        layer, residual = tracing.layer_metrics(tracer.spans, tracer.available)
        metrics.update(layer)
        metrics["cli.output_bytes"] = statistics.fmean(r.out_bytes for r in traced[0])
        base = sum(op_latencies(plain))
        metrics["trace.overhead"] = sum(op_latencies(traced)) / base
        metrics["trace.base_s"] = base
        notes["trace.overhead"] = (
            f"traced / untraced round time, base {base:.4f} s, {len(plain)} rounds each"
        )
        print(f"spans {len(tracer.spans)}; self-time residual {residual:.3g}; "
              f"missing targets: {', '.join(tracer.missing) or 'none'}")
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        units = PER_LAYER
    else:
        lat = op_latencies(plain)
        p90 = statistics.quantiles(lat, n=10)[8]
        good = sum(r.fits - r.failed for r in results) / len(plain)
        metrics = {
            "setup_s": statistics.median(setups),
            "fits_per_s": good / sum(lat),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        per_op = f"n={len(lat)} ops, each the fastest of {len(plain)} rounds"
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "fits_per_s": f"{good:g} good fits per round / {sum(lat):.4f} s, {per_op}",
            "op_p50_ms": per_op,
            "op_p90_ms": f"{per_op}, {sum(x > p90 for x in lat)} beyond",
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
