"""jittervan benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload analytic-cold --seed 1 --seconds 30 --trace 0

Each repetition runs in a fresh worker process (``bench/worker.py``) with
BLAS pinned to one thread and jittervan ``threads=1``: one process, one
caller, a closed loop.  A run makes as many repetitions, one after the
other, as fit in ``--seconds`` at the workload's nominal worker time
(``workloads.WORKER_S``), and at least one.  Extra set-up-only processes
bring the set-up samples to three.

With ``--trace 0`` the run reports the end-to-end metrics as medians over
repetitions.  With ``--trace 1`` it runs one untraced and one traced
repetition and reports the per-layer metrics of the traced one, with the
tracing overhead as the difference of their cold wall times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, per-operation details, every worker's report) is written to
``bench/out/<workload>/seed<n>-trace<t>.json``.  ``--smoke`` runs tiny
sizes for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
DEFAULT_OUT = BENCH / "out"

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cold_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
SETUP_SAMPLES = 3
#: Every worker is stopped by this many seconds after the run starts, or
#: by RUN_LIMIT_FACTOR times ``--seconds`` if that is later.
RUN_LIMIT_S = 170.0
RUN_LIMIT_FACTOR = 3.0
#: A set-up-only process is started only with this much time left.
SETUP_PROBE_MARGIN_S = 20.0


class BenchError(RuntimeError):
    """A worker failed outside the measured operations; no result exists."""


def run_worker(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    """Start one worker, wait for it and return its JSON report."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run time limit reached before the worker could start")
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), *extra,
        "--t-spawn", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=env.ROOT, env=env.worker_env(), stdout=subprocess.PIPE,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish within the run's time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"worker printed no report: {exc}") from None


def run_limit(seconds: float) -> float:
    """Seconds after its start by which a run of ``--seconds`` must end."""
    return max(RUN_LIMIT_S, RUN_LIMIT_FACTOR * seconds)


def median(values) -> float:
    return float(statistics.median(values))


def details(workload: str, reports: list[dict]) -> dict:
    """Per-operation figures, medians over the repetitions that produced them."""
    out: dict[str, float] = {}
    labels = [op["label"] for op in reports[0]["ops"]]
    for index, label in enumerate(labels):
        ops = [report["ops"][index] for report in reports]
        out[f"{label}_cold_s"] = median(op["s"] for op in ops)
        checked = [op for op in ops if "std_error" in op]
        if checked:
            out[f"{label}_std_error"] = median(op["std_error"] for op in checked)
            out[f"{label}_err_x_s"] = median(op["std_error"] * op["s"] for op in checked)
        curves = [op for op in ops if "mse_std_err" in op]
        if curves:
            out["mse_std_err"] = median(op["mse_std_err"] for op in curves)
            for d in curves[0]["dims"]:
                out[f"trials_per_s_d{d}"] = median(
                    op["dims"][d]["trials"] / op["dims"][d]["s"] for op in curves
                )
    if workload == "mc-spectrum":
        out["mse_curve_s"] = median(report["cold_s"] for report in reports)
    return out


def measure(args, deadline: float) -> tuple[dict, dict, list[dict]]:
    """Untraced repetitions: (metrics, details, worker reports)."""
    base = ["--trace", "0"] + (["--smoke"] if args.smoke else [])
    count = workloads.worker_count(args.workload, args.seconds)
    reports = [run_worker(args.workload, args.seed, deadline, *base) for _ in range(count)]
    setups = [report["setup_s"] for report in reports]
    while len(setups) < SETUP_SAMPLES and deadline - time.monotonic() > SETUP_PROBE_MARGIN_S:
        probe = run_worker(args.workload, args.seed, deadline, *base, "--setup-only")
        setups.append(probe["setup_s"])
    metrics = {
        "setup_s": median(setups),
        "cold_s": median(report["cold_s"] for report in reports),
        "peak_rss_mb": median(report["peak_rss_mb"] for report in reports),
    }
    extra = details(args.workload, reports)
    if args.workload in workloads.CACHED:
        extra["warm_ms"] = median(1000.0 * median(report["warm_s"]) for report in reports)
    extra["setup_samples"] = len(setups)
    extra["repetitions"] = len(reports)
    return metrics, extra, reports


def measure_traced(args, deadline: float, spans_path: Path) -> tuple[dict, dict, list[dict]]:
    """One untraced and one traced repetition: (per-layer metrics, details, reports)."""
    base = ["--trace", "0"] + (["--smoke"] if args.smoke else [])
    untraced = run_worker(args.workload, args.seed, deadline, *base)
    traced = run_worker(
        args.workload, args.seed, deadline, "--trace", "1",
        "--spans-out", str(spans_path), *base[2:],
    )
    layers = {name: 0.0 for name in tracing.per_layer_metrics()}
    layers.update(traced["layers"])
    layers["trace.untraced_wall_s"] = untraced["cold_s"]
    layers["trace.overhead_s"] = traced["cold_s"] - untraced["cold_s"]
    traced_details = details(args.workload, [traced])
    for d in workloads.MC_DIMS:
        layers[f"ensemble.trials_per_s_d{d}"] = traced_details.get(f"trials_per_s_d{d}", 0.0)
    reports = [untraced, traced]
    attempted = sum(report["attempted"] for report in reports)
    layers["error_rate"] = sum(report["failed"] for report in reports) / attempted
    return layers, details(args.workload, reports), reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--out-dir", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    if not env.have_sources():
        print(f"error: no jittervan sources under {env.SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + run_limit(args.seconds)
    out_dir = args.out_dir / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    try:
        if args.trace:
            values, extra, reports = measure_traced(args, deadline, out_dir / f"{stem}-spans.jsonl")
            units = {name: spec["unit"] for name, spec in tracing.per_layer_metrics().items()}
        else:
            values, extra, reports = measure(args, deadline)
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    extra["error_rate"] = failed / attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": {**env.host_environment(), **reports[0]["environment"]},
        "result": result,
        "details": extra,
        "workers": [{k: v for k, v in r.items() if k != "layers"} for r in reports],
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    for message in sorted({m for r in reports for m in r["failures"]}):
        print(f"check failed: {message}")
    print("environment: " + json.dumps(record["environment"]))
    print("details: " + json.dumps(extra))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
