"""Command-line front end: moments, mp, simulate, mse and verify.

Every run is reproducible from (subcommand, parameters, seed); the
analytic moments draw nothing and take no seed.  Outputs are plain JSON or
CSV meant to be fed to external plotting.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from ._parallel import default_threads
from .ensemble import (
    EnsembleConfig,
    empirical_moment,
    histogram,
    resolve_shape,
    simulate,
    write_eigenvalue_csv,
    write_histogram_csv,
)
from .errors import BudgetError, NumericalError
from .jitter import JITTER_NAMES, from_name
from .moments import moment, mp_moment, mp_support
from .mse import mse_curve, snr_grid_db
from .verify import SUITES, run_suites

SCHEMA_VERSION = 1


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _parse_db_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"dB grid must be start:stop:step, got {text!r}"
        )
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric dB grid: {text!r}")
    try:
        return snr_grid_db(start, stop, step)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jittervan",
        description=(
            "Asymptotic eigenvalue moments, Monte-Carlo spectra and "
            "reconstruction MSE for jittered-grid Vandermonde ensembles."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common_threads = dict(type=int, default=default_threads(), metavar="N")

    p_mom = sub.add_parser("moments", help="analytic moments for p = 1..p-max")
    p_mom.add_argument("--p-max", type=int, default=3)
    p_mom.add_argument("--beta", type=float, required=True)
    p_mom.add_argument("--d", type=int, default=1)
    p_mom.add_argument("--jitter", choices=sorted(JITTER_NAMES), default="uniform")
    p_mom.add_argument("--mp", action="store_true", help="include the MP gap per order")
    p_mom.add_argument("--threads", **common_threads)
    p_mom.add_argument("--out", metavar="PATH", help="write results as JSON")

    p_mp = sub.add_parser("mp", help="Marchenko-Pastur moments and support")
    p_mp.add_argument("--p-max", type=int, default=6)
    p_mp.add_argument("--beta", type=float, required=True)
    p_mp.add_argument("--out", metavar="PATH", help="write results as JSON")

    p_sim = sub.add_parser("simulate", help="Monte-Carlo spectrum and histogram")
    p_sim.add_argument("--beta", type=float, required=True)
    p_sim.add_argument("--d", type=int, default=1)
    p_sim.add_argument("--budget", type=int, default=1000, help="max matrix rows")
    p_sim.add_argument("--trials", type=int, default=100)
    p_sim.add_argument("--bins", type=int, default=60)
    p_sim.add_argument("--jitter", choices=sorted(JITTER_NAMES), default="uniform")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--threads", **common_threads)
    p_sim.add_argument("--out", metavar="PATH", help="write the histogram CSV")
    p_sim.add_argument("--eigs-out", metavar="PATH", help="dump eigenvalues per trial")

    p_mse = sub.add_parser("mse", help="reconstruction MSE curves")
    p_mse.add_argument("--beta", type=float, required=True)
    p_mse.add_argument("--d", type=_parse_int_list, default=[1, 2, 3], metavar="LIST")
    p_mse.add_argument(
        "--snr-db", type=_parse_db_grid, default=snr_grid_db(), metavar="A:B:S"
    )
    p_mse.add_argument("--jitter", choices=sorted(JITTER_NAMES), default="uniform")
    p_mse.add_argument("--budget", type=int, default=1000)
    p_mse.add_argument("--trials", type=int, default=20)
    p_mse.add_argument("--seed", type=int, default=0)
    p_mse.add_argument("--format", choices=["csv", "json"], default="csv")
    p_mse.add_argument("--threads", **common_threads)
    p_mse.add_argument("--out", metavar="PATH", help="write the curve table")

    p_ver = sub.add_parser("verify", help="run the oracle and invariant suites")
    p_ver.add_argument("--suite", choices=sorted(SUITES) + ["all"], default="all")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--report", metavar="PATH", help="write a JSON report")

    return parser


def _write_json(path: str, payload: dict) -> None:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _cmd_moments(args) -> int:
    if args.p_max < 1:
        raise ValueError(f"--p-max must be >= 1, got {args.p_max}")
    dist = from_name(args.jitter)
    results = []
    for p in range(1, args.p_max + 1):
        res = moment(p, args.beta, args.d, dist, threads=args.threads)
        results.append(res)
        line = (
            f"p={p}  moment={res.value:.8f}  error={res.std_error:.2e}  "
            f"terms={len(res.terms)}"
        )
        if args.mp:
            limit = mp_moment(p, args.beta)
            line += f"  mp={limit:.8f}  gap={abs(res.value - limit):.3e}"
        print(line)
    if args.out:
        _write_json(
            args.out,
            {
                "kind": "moments",
                "beta": args.beta,
                "d": args.d,
                "jitter": args.jitter,
                "results": [res.to_dict() for res in results],
            },
        )
        print(f"wrote {args.out}")
    return 0


def _cmd_mp(args) -> int:
    if args.p_max < 1:
        raise ValueError(f"--p-max must be >= 1, got {args.p_max}")
    low, high = mp_support(args.beta)
    rows = []
    for p in range(1, args.p_max + 1):
        value = mp_moment(p, args.beta)
        rows.append({"p": p, "value": value})
        print(f"p={p}  mp_moment={value:.8f}")
    print(f"support=[{low:.6f}, {high:.6f}]")
    if args.out:
        _write_json(
            args.out,
            {
                "kind": "mp",
                "beta": args.beta,
                "support": [low, high],
                "results": rows,
            },
        )
        print(f"wrote {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    dist = from_name(args.jitter)
    M, rho, beta_actual = resolve_shape(args.beta, args.d, args.budget)
    config = EnsembleConfig(d=args.d, M=M, rho=rho, dist=dist)
    sample = simulate(config, args.trials, args.seed, threads=args.threads)
    moments = {p: empirical_moment(sample, p) for p in (1, 2, 3)}
    print(
        f"M={M}  rho={rho}  beta_actual={beta_actual:.6f}  rows={config.n_rows}  "
        f"trials={args.trials}"
    )
    print(
        "empirical moments  "
        + "  ".join(f"p={p}: {value:.6f}" for p, value in moments.items())
    )
    if args.out:
        edges, density = histogram(sample, args.bins)
        write_histogram_csv(args.out, edges, density)
        print(f"wrote {args.out}")
    if args.eigs_out:
        write_eigenvalue_csv(args.eigs_out, sample)
        print(f"wrote {args.eigs_out}")
    return 0


def _cmd_mse(args) -> int:
    dist = from_name(args.jitter)
    curve = mse_curve(
        args.beta,
        args.d,
        args.snr_db,
        dist,
        size_budget=args.budget,
        trials=args.trials,
        seed=args.seed,
        threads=args.threads,
    )
    for d in sorted(set(args.d)):
        rows = curve.rows("empirical", d)
        mid = rows[len(rows) // 2]
        print(
            f"d={d}  beta_actual={mid.beta:.6f}  "
            f"mse@{mid.snr_db:g}dB={mid.mse:.6f}"
        )
    if args.out:
        if args.format == "json":
            _write_json(
                args.out,
                {
                    "kind": "mse",
                    "beta_target": curve.beta_target,
                    "jitter": curve.jitter,
                    "points": curve.to_dicts(),
                },
            )
        else:
            curve.write_csv(args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    checks = run_suites(names, seed=args.seed)
    width = max(len(check.name) for check in checks)
    failures = 0
    for check in checks:
        status = "pass" if check.passed else "FAIL"
        print(f"{check.name:<{width}}  {status}  {check.detail}")
        failures += 0 if check.passed else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    if args.report:
        _write_json(
            args.report,
            {
                "kind": "verify",
                "suites": names,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in checks
                ],
            },
        )
        print(f"wrote {args.report}")
    return 0 if failures == 0 else 3


def _merge_negative_grid(argv: list[str]) -> list[str]:
    # argparse reads "-10:30:1" as a flag; fold it into --snr-db=... instead
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (
            token == "--snr-db"
            and i + 1 < len(argv)
            and argv[i + 1].startswith("-")
            and ":" in argv[i + 1]
        ):
            out.append(f"--snr-db={argv[i + 1]}")
            i += 2
            continue
        out.append(token)
        i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(_merge_negative_grid(argv))
    handlers = {
        "moments": _cmd_moments,
        "mp": _cmd_mp,
        "simulate": _cmd_simulate,
        "mse": _cmd_mse,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, BudgetError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
