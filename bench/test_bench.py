"""Self-test of the benchmark: python3 -m pytest bench/test_bench.py -q

A tiny-size smoke run of every workload must emit exactly the metrics that
BENCHMARK.json names, with their units; the output checkers must count
corrupted outputs as failed; the tracer must survive missing targets.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _smoke(workload: str, trace: int) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                       "--trace", str(trace), "--size", "tiny"])
    assert rc == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    out = _smoke(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(math.isfinite(m["value"]) for m in out["metrics"].values())


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _cli_payload(tmp_path, k, j, method):
    from shrinkfit import cli

    csv, out = tmp_path / "d.csv", tmp_path / "o.json"
    workloads.write_cli_csv(csv, k, j)
    assert cli.main(["fit", str(csv), "--method", method, "--out", str(out)]) == 0
    return workloads.read_cli_output(out)


@pytest.mark.parametrize("method", ["adm", "exact"])
def test_cli_checker_counts_corrupted_b_as_failed(tmp_path, method):
    want = workloads.load_reference("fit-cli")["ops"]["10/0"][method]
    payload = _cli_payload(tmp_path, 10, 0, method)
    assert workloads.check_cli(payload, method, want) == (0, False)
    for bad in (float("nan"), 1.5):
        corrupted = json.loads(json.dumps(payload))
        corrupted["results"][method]["B_hat"][3] = bad
        failed, _ = workloads.check_cli(corrupted, method, want)
        assert failed == 1
    assert workloads.check_cli(None, method, want) == (1, True)


def test_cli_checker_flags_interval_not_covering_estimate(tmp_path):
    want = workloads.load_reference("fit-cli")["ops"]["10/0"]["adm"]
    payload = _cli_payload(tmp_path, 10, 0, "adm")
    res = payload["results"]["adm"]
    res["lo"][0] = res["theta_hat"][0] + 1.0
    assert workloads.check_cli(payload, "adm", want)[0] == 1


def test_sim_checker_counts_corrupted_rows_as_failed():
    from shrinkfit.evaluate import run_coverage

    want = workloads.load_reference("sim-equal")["ops"]["50/2"]
    (cfg,) = workloads.sim_configs([(50, 2)])
    got = workloads.sim_summary(run_coverage(cfg, threads=1))
    assert workloads.check_sim(got, want, cfg.reps) == (0, False)
    for index, bad in ((2, float("nan")), (2, 1.5), (0, 1.01)):
        corrupted = json.loads(json.dumps(got))
        corrupted["adm"]["all"][index] = bad
        assert workloads.check_sim(corrupted, want, cfg.reps) == (cfg.reps, True)


def _traced_cli_round(work):
    """Layer metrics of one traced tiny fit-cli round (k = 10 and 100, all
    four methods), and the tracer."""
    ref = workloads.load_reference("fit-cli")["ops"]
    workloads.setup("fit-cli", 1, "tiny", work)
    ops = workloads.build("fit-cli", 1, "tiny", work, ref).ops
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in ops:
            assert tracer.root("cli.main", op.run) == 0
    finally:
        tracer.uninstall()
    return tracing.layer_metrics(tracer.spans, tracer.available), tracer


def test_trace_counts_repeat_and_self_times_add_up(tmp_path):
    (first, residual), _ = _traced_cli_round(tmp_path)
    (second, _), _ = _traced_cli_round(tmp_path)
    assert residual < 1e-9
    for m in tracing.METHODS:
        assert first[f"density.evals.{m}"] > 0
        assert first[f"density.evals.{m}"] == second[f"density.evals.{m}"]


def test_missing_target_is_reported_absent(tmp_path, monkeypatch):
    from shrinkfit import specfun

    monkeypatch.delattr(specfun, "log_lower_regularized_gamma")
    (metrics, _), tracer = _traced_cli_round(tmp_path)
    assert tracer.missing == ["specfun.log_lower_regularized_gamma"]
    assert "specfun.gamma_us" not in metrics and "specfun.gamma_calls" not in metrics
    assert "density.eval_us" in metrics
