"""Compare two sets of benchmark runs, metric by metric and workload by workload.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory is an ``--out-dir`` of ``bench/run.py``: one JSON record per
workload, seed and trace mode.  Runs of the two sets are paired by seed.
For every workload and metric the table gives each side's median and
quartiles, the change of the medians, the fraction of pairs the new side
wins (ties count for neither) and a verdict:

* ``gain``: the new side wins at least nine tenths of the pairs and the
  medians differ by more than the base side's quartile spread;
* ``unresolved``: the base side's quartile spread is wider than the
  metric's bound and not every new run beats every base run;
* ``regression``: the new median is worse than the base median by more
  than the metric's bound;
* ``worse``: the new side loses at least nine tenths of the pairs by more
  than the base spread, though within the bound;
* ``same``: none of the above.

End-to-end bounds and directions come from ``BENCHMARK.json``; per-layer
and detail metrics have no bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9
SKIP_DETAILS = {"setup_samples", "repetitions"}


def load_specs() -> dict[str, dict]:
    spec = json.loads(SPEC_PATH.read_text())
    out = {m["name"]: m for m in spec["end_to_end"]}
    out.update({m["name"]: m for m in spec["per_layer"]})
    return out


def detail_better(name: str) -> str:
    return "higher" if "per_s" in name else "lower"


def load_runs(directory: Path, specs: dict) -> dict[tuple, dict[int, float]]:
    """(workload, trace, metric) -> {seed: value} for every record found."""
    runs: dict[tuple, dict[int, float]] = defaultdict(dict)
    for path in sorted(directory.glob("*/seed*-trace[01]*.json")):
        record = json.loads(path.read_text())
        key = (record["workload"] + ("-smoke" if record.get("smoke") else ""), record["trace"])
        for name, metric in record["result"]["metrics"].items():
            runs[key + (name,)][record["seed"]] = metric["value"]
        if record["trace"] == 0:
            for name, value in record["details"].items():
                if name not in SKIP_DETAILS and name not in specs:
                    runs[key + (name,)][record["seed"]] = value
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def verdict(base: dict[int, float], new: dict[int, float], better: str, bound) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(sorted(base.values()))
    n_q1, n_med, n_q3 = quartiles(sorted(new.values()))
    seeds = sorted(set(base) & set(new))
    wins = sum(1 for s in seeds if sign * (base[s] - new[s]) > 0)
    losses = sum(1 for s in seeds if sign * (base[s] - new[s]) < 0)
    gain = sign * (b_med - n_med)  # positive when the new side is better
    spread = b_q3 - b_q1
    if better == "lower":
        all_better = max(new.values()) < min(base.values())
    else:
        all_better = min(new.values()) > max(base.values())
    if seeds and wins >= WIN_SHARE * len(seeds) and gain > spread:
        call = "gain"
    elif bound is not None and b_med and spread / abs(b_med) > bound and not all_better:
        call = "unresolved"
    elif bound is not None and -gain > bound * abs(b_med):
        call = "regression"
    elif seeds and losses >= WIN_SHARE * len(seeds) and -gain > spread:
        call = "worse"
    else:
        call = "same"
    return {
        "pairs": len(seeds),
        "base": (b_med, b_q1, b_q3),
        "new": (n_med, n_q1, n_q3),
        "change": (n_med - b_med) / abs(b_med) if b_med else float("nan"),
        "win_share": wins / len(seeds) if seeds else float("nan"),
        "verdict": call,
    }


def compare(base_dir: Path, new_dir: Path) -> list[dict]:
    specs = load_specs()
    base = load_runs(base_dir, specs)
    new = load_runs(new_dir, specs)
    rows = []
    for key in sorted(set(base) & set(new)):
        workload, trace, name = key
        spec = specs.get(name, {})
        better = spec.get("better") or detail_better(name)
        row = verdict(base[key], new[key], better, spec.get("bound"))
        rows.append({"workload": workload, "trace": trace, "metric": name, **row})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    rows = compare(args.base, args.new)

    def stats(values) -> str:
        return f"{values[0]:.5g} [{values[1]:.4g}, {values[2]:.4g}]"

    print(f"{'workload':<20} {'metric':<44} {'n':>3} {'base median [q1, q3]':>34} "
          f"{'new median [q1, q3]':>34} {'change':>8} {'wins':>5}  verdict")
    for row in rows:
        print(
            f"{row['workload']:<20} {row['metric']:<44} {row['pairs']:>3} "
            f"{stats(row['base']):>34} {stats(row['new']):>34} "
            f"{row['change']:>+8.1%} {row['win_share']:>5.0%}  {row['verdict']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
