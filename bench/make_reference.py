"""Compute the reference moments the benchmark checks its results against.

The references are the analytic workloads' moments at higher precision
than the benchmark runs them.  Regenerate them with

    python3 bench/make_reference.py

which rewrites ``bench/reference.json`` together with the command, sizes
and environment that produced it.
"""

from __future__ import annotations

import json
import sys
import time

import env
from workloads import moment_cases

REFERENCE_PATH = env.ROOT / "bench" / "reference.json"
#: Eight times the benchmark's QMC work per moment, with four times the replicates.
POINTS = 2**15
REPLICATES = 64
SEED = 20080617


def main() -> int:
    jv = env.import_jittervan()
    opts = jv.QmcOptions(points=POINTS, replicates=REPLICATES, seed=SEED, sampler="sobol")
    cases = {}
    for workload in ("analytic-cold", "analytic-sweep"):
        for case in moment_cases(workload):
            if case.p >= 2:
                cases[case.key] = case
    moments = {}
    for key, case in cases.items():
        started = time.perf_counter()
        result = jv.moment(case.p, case.beta, case.d, getattr(jv, case.law)(), opts, threads=1)
        moments[key] = {"value": result.value, "std_error": result.std_error}
        print(f"{key}: {result.value!r} +- {result.std_error:.3e} "
              f"[{time.perf_counter() - started:.1f}s]", flush=True)
    payload = {
        "command": "python3 bench/make_reference.py",
        "points": POINTS,
        "replicates": REPLICATES,
        "seed": SEED,
        "environment": {**env.host_environment(), **env.library_environment()},
        "moments": moments,
    }
    REFERENCE_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
