"""One benchmark repetition in a fresh process.

The worker imports jittervan from the checkout, builds the workload's
inputs from the seed, runs the operation list once on empty caches (the
cold phase), replays it in the same process if the workload has caches
to hit (the warm phase), and checks every output.  It prints one JSON report as its last line.  With
``--setup-only`` it stops once the inputs are built and reports only its
set-up time, measured from the ``--t-spawn`` instant its parent took just
before starting it.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import checks
import env
import tracing
import workloads

#: Warm replays of a cached workload run until they have taken this share
#: of the cold phase's time, at least one and at most MAX_REPLAYS
#: (TRACED_REPLAYS when traced).
WARM_SHARE = 0.1
MAX_REPLAYS = 5000
TRACED_REPLAYS = 25
#: Failure messages kept in a report.
MAX_MESSAGES = 20


class MomentOp:
    """One analytic moment evaluation; one operation."""

    attempted = 1

    def __init__(self, jv, case: workloads.MomentCase, law, opts, reference: dict) -> None:
        self.jv, self.case, self.law, self.opts = jv, case, law, opts
        self.reference = reference.get(case.key)
        self.label = case.label

    def run(self):
        case = self.case
        # looked up at call time, so a traced run sees the wrapped function
        return self.jv.moments.moment(case.p, case.beta, case.d, self.law, self.opts, threads=1)

    def check(self, result) -> list[str]:
        return checks.check_moment(self.case.p, result.value, result.std_error, self.reference)

    def check_replay(self, cold, warm) -> list[str]:
        return checks.check_replay((cold.value, cold.std_error), (warm.value, warm.std_error))

    def summary(self, result) -> dict:
        return {"value": result.value, "std_error": result.std_error}


class MseCurveOp:
    """One ``mse_curve`` call over all dimensions; one operation per trial.

    The spectra ``mse_curve`` draws are captured from its ``simulate``
    calls, so each trial can be checked and each dimension timed.
    """

    label = "mse_curve"

    def __init__(self, jv, params: workloads.McParams, law, seed: int) -> None:
        self.jv, self.params, self.law, self.seed = jv, params, law, seed
        self.attempted = params.trials * len(params.dims)
        self.snr_db = jv.snr_grid_db(*params.snr_db)
        self._captured: list[tuple] = []
        simulate = jv.mse.simulate

        def capture(config, trials, seed, threads=1):
            started = time.perf_counter()
            sample = simulate(config, trials, seed, threads)
            self._captured.append((config, sample, time.perf_counter() - started))
            return sample

        jv.mse.simulate = capture

    def run(self):
        self._captured = []
        p = self.params
        curve = self.jv.mse.mse_curve(
            p.beta_target, list(p.dims), self.snr_db, self.law,
            size_budget=p.size_budget, trials=p.trials, seed=self.seed, threads=1,
        )
        return curve, self._captured

    def check(self, result) -> list[str]:
        curve, captured = result
        trials = self.params.trials
        by_dim = {config.d: sample for config, sample, _ in captured}
        failures = []
        for d in self.params.dims:
            sample = by_dim.get(d)
            if sample is None or sample.trials != trials:
                failures += [f"d={d}: no spectra of {trials} trials"] * trials
                continue
            rows = sorted(curve.rows("empirical", d), key=lambda row: row.snr_db)
            curve_bad = checks.check_mse_rows(rows, self.jv.mse_equally_spaced)
            if len(rows) != len(self.snr_db):
                curve_bad.append(f"{len(rows)} empirical rows, expected {len(self.snr_db)}")
            for trial in range(trials):
                why = checks.check_trace_identity(sample.eigenvalues[trial]) + curve_bad
                if why:
                    failures.append(f"d={d} trial {trial}: " + "; ".join(why[:3]))
        return failures

    def summary(self, result) -> dict:
        curve, captured = result
        return {
            "mse_std_err": statistics.fmean(row.std_err for row in curve.rows("empirical")),
            "dims": {
                str(config.d): {
                    "shape": [config.n_rows, config.n_cols],
                    "trials": sample.trials,
                    "s": seconds,
                }
                for config, sample, seconds in captured
            },
        }


def build_ops(jv, workload: str, seed: int, smoke: bool, wrap_law) -> list:
    if workload == "mc-spectrum":
        return [MseCurveOp(jv, workloads.mc_params(smoke), wrap_law(jv.uniform01()), seed)]
    sizes = workloads.qmc_sizes(smoke)
    opts = jv.QmcOptions(
        points=sizes.points, replicates=sizes.replicates, seed=seed, sampler="sobol"
    )
    reference = checks.load_reference()
    laws = {}
    ops = []
    for case in workloads.moment_cases(workload, smoke):
        if case.law not in laws:
            laws[case.law] = wrap_law(getattr(jv, case.law)())
        ops.append(MomentOp(jv, case, laws[case.law], opts, reference))
    return ops


class Tally:
    """Failed operations of one worker.

    Each operation is attempted once, in the cold pass, however many warm
    replays follow; a replay that differs from the cold pass marks the
    operation failed, so the count does not depend on how many replays fit.
    """

    def __init__(self, ops) -> None:
        self.attempted = sum(op.attempted for op in ops)
        self.failed_by_op = [0] * len(ops)
        self.messages: list[str] = []

    @property
    def failed(self) -> int:
        return sum(self.failed_by_op)

    def add(self, index: int, op, failures: list[str]) -> None:
        failed = min(len(failures), op.attempted)
        self.failed_by_op[index] = max(self.failed_by_op[index], failed)
        self.messages.extend(failures[: MAX_MESSAGES - len(self.messages)])


def run_list(ops) -> tuple[list, list[float], list]:
    """Run every op once: (results, seconds, exceptions), None where absent."""
    results, seconds, errors = [], [], []
    for op in ops:
        started = time.perf_counter()
        try:
            results.append(op.run())
            errors.append(None)
        except Exception as exc:  # a failing operation is counted, not fatal
            results.append(None)
            errors.append(exc)
            traceback.print_exc(file=sys.stderr)
        seconds.append(time.perf_counter() - started)
    return results, seconds, errors


def check_list(ops, results, errors, tally: Tally, cold_results=None) -> None:
    """Check one pass over the list; a replay is checked against the cold pass."""
    for index, (op, result, exc) in enumerate(zip(ops, results, errors)):
        if exc is not None:
            tally.add(index, op, [f"{op.label}: {type(exc).__name__}: {exc}"] * op.attempted)
        elif cold_results is None or cold_results[index] is None:
            tally.add(index, op, op.check(result))
        else:
            tally.add(index, op, op.check_replay(cold_results[index], result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    jv = env.import_jittervan()

    recorder = tracing.Recorder() if args.trace else None
    if recorder is not None:
        tracing.install(recorder, jv)
        wrap_law = lambda law: tracing.traced_law(recorder, jv, law)  # noqa: E731
    else:
        wrap_law = lambda law: law  # noqa: E731
    ops = build_ops(jv, args.workload, args.seed, args.smoke, wrap_law)
    setup_s = time.monotonic() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally(ops)
    volumes_before = tracing.volume_cache_info(jv)

    def phase(name, fn):
        return recorder.run_phase(name, fn) if recorder is not None else fn()

    started = time.perf_counter()
    cold_results, cold_seconds, errors = phase("cold", lambda: run_list(ops))
    cold_s = time.perf_counter() - started
    volumes_cold = tracing.volume_cache_info(jv)
    check_list(ops, cold_results, errors, tally)

    warm_walls: list[float] = []
    warm_results = []
    max_replays = TRACED_REPLAYS if recorder is not None else MAX_REPLAYS
    while args.workload in workloads.CACHED and len(warm_walls) < max_replays and (
        not warm_walls or sum(warm_walls) < WARM_SHARE * cold_s
    ):
        started = time.perf_counter()
        warm_results, _, errors = phase("warm", lambda: run_list(ops))
        warm_walls.append(time.perf_counter() - started)
        check_list(ops, warm_results, errors, tally, cold_results)
    volumes_warm = tracing.volume_cache_info(jv)

    report = {
        "setup_s": setup_s,
        "cold_s": cold_s,
        "warm_s": warm_walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.messages,
        "ops": [
            {"label": op.label, "s": s, **(op.summary(r) if r is not None else {})}
            for op, r, s in zip(ops, cold_results, cold_seconds)
        ],
        "environment": env.library_environment(),
    }
    if recorder is not None:
        tracing.count_results(recorder, "cold", cold_results, volumes_before, volumes_cold, 1)
        tracing.count_results(
            recorder, "warm", warm_results, volumes_cold, volumes_warm, len(warm_walls)
        )
        report["layers"] = tracing.layer_metrics(recorder, len(warm_walls))
        if args.spans_out:
            recorder.write(args.spans_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
