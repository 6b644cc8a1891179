"""Tests of the benchmark itself; run with ``python3 -m pytest bench``.

The smoke runs use tiny sizes, so every workload, metric and check is
exercised in seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import compare
import run
import tracing
import worker
from env import ROOT
from workloads import WORKER_S, WORKLOADS, moment_cases, worker_count

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


def test_spec_lists_the_metrics_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: {"unit": m["unit"], "better": m["better"]} for m in SPEC["per_layer"]} == (
        tracing.per_layer_metrics()
    )


def test_every_reference_moment_is_present():
    reference = checks.load_reference()
    for workload in ("analytic-cold", "analytic-sweep"):
        for smoke in (False, True):
            for case in moment_cases(workload, smoke):
                assert case.p == 1 or case.key in reference


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace, tmp_path):
    proc = bench_run(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
        "--smoke", "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        spans = tmp_path / workload / "seed3-trace1-smoke-spans.jsonl"
        first = json.loads(spans.read_text().splitlines()[0])
        assert set(first) == {"name", "start", "end", "parent", "phase"}
        assert result["metrics"]["trace.attributed_share"]["value"] > 0.5
    record = json.loads((tmp_path / workload / f"seed3-trace{trace}-smoke.json").read_text())
    assert record["environment"]["blas_threads_pinned"] == 1
    assert record["environment"]["src_lines"] > 0


def test_same_seed_gives_same_outputs(tmp_path):
    values = []
    for out in ("a", "b"):
        proc = bench_run(
            "--workload", "analytic-sweep", "--seed", "5", "--seconds", "1", "--trace", "0",
            "--smoke", "--out-dir", str(tmp_path / out),
        )
        assert proc.returncode == 0, proc.stderr
        record_path = tmp_path / out / "analytic-sweep" / "seed5-trace0-smoke.json"
        record = json.loads(record_path.read_text())
        values.append([(op["value"], op["std_error"]) for op in record["workers"][0]["ops"]])
    assert values[0] == values[1]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    proc = bench_run(
        "--workload", "analytic-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_moment_checks_catch_wrong_values():
    ref = {"value": 2.0, "std_error": 1e-3}
    assert checks.check_moment(1, 1.0, 0.0, None) == []
    assert checks.check_moment(1, 1.0 + 1e-15, 0.0, None)
    assert checks.check_moment(3, 2.003, 1e-3, ref) == []
    assert checks.check_moment(3, 2.01, 1e-3, ref)
    assert checks.check_moment(3, float("nan"), 1e-3, ref)
    assert checks.check_moment(3, 2.0, 1e-3, None)
    assert checks.check_replay((2.0, 1e-3), (2.0, 1e-3)) == []
    assert checks.check_replay((2.0, 1e-3), (2.1, 1e-3))


def test_spectrum_checks_catch_wrong_values():
    assert checks.check_trace_identity(np.array([0.5, 1.5])) == []
    assert checks.check_trace_identity(np.array([0.5, 1.5 + 1e-9]))

    def rows(values):
        return [
            SimpleNamespace(d=1, beta=0.5, snr_db=db, mse=v) for db, v in zip((0.0, 10.0), values)
        ]

    def ideal(beta, snr):
        return beta / (snr + beta)

    assert checks.check_mse_rows(rows([0.4, 0.1]), ideal) == []
    assert checks.check_mse_rows(rows([0.2, 0.1]), ideal)  # below Jensen at 0 dB
    assert checks.check_mse_rows(rows([0.4, 0.45]), ideal)  # does not fall


def test_compare_verdicts():
    base = {seed: 10.0 + 0.1 * seed for seed in range(10)}
    faster = {seed: value * 0.5 for seed, value in base.items()}
    slower = {seed: value * 1.5 for seed, value in base.items()}
    assert compare.verdict(base, faster, "lower", 0.1)["verdict"] == "gain"
    assert compare.verdict(base, slower, "lower", 0.1)["verdict"] == "regression"
    assert compare.verdict(base, dict(base), "lower", 0.1)["verdict"] == "same"
    assert compare.verdict(base, faster, "higher", None)["verdict"] == "worse"
    noisy = {seed: 10.0 * (1 + (seed % 2)) for seed in range(10)}
    assert compare.verdict(noisy, dict(noisy), "lower", 0.1)["verdict"] == "unresolved"


def test_long_runs_fit_their_time_limit():
    for workload in WORKLOADS:
        for seconds in (1, 30, 300, 3000):
            planned = worker_count(workload, seconds) * WORKER_S[workload]
            assert run.run_limit(seconds) >= 2 * planned


def test_error_rate_counts_each_operation_once():
    class Op:
        attempted = 1
        label = "op"

        def check(self, result):
            return []

        def check_replay(self, cold, warm):
            return [] if warm == cold else ["replay differs"]

    ops = [Op(), Op()]
    tally = worker.Tally(ops)
    worker.check_list(ops, [1.0, 2.0], [None, None], tally)
    for _ in range(50):
        worker.check_list(ops, [1.0, 2.5], [None, None], tally, [1.0, 2.0])
    assert (tally.attempted, tally.failed) == (2, 1)
