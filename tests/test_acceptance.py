"""Acceptance gate: one test per criterion, one pass/fail line each.

Every tolerance is pinned here, not calibrated at runtime.  Criterion 5
has a second test, at orders 3 to 5 with beta^(1/d) > 1/2.  The suite is
ordered by criterion number; each test prints

    ACCEPTANCE <n> <name>: PASS|FAIL  <detail>  [<elapsed>s]

before asserting, so a red criterion still reports its measured numbers.
"""

import itertools
import time

import numpy as np
import pytest

from jittervan.ensemble import (
    EnsembleConfig,
    empirical_moment,
    empirical_moment_std_error,
    simulate,
)
from jittervan.integrate import cf_integral
from jittervan.jitter import point_mass_half, triangular01, uniform01
from jittervan.moments import (
    convergence_report,
    moment,
    mp_moment,
)
from jittervan.mse import mse_curve, snr_grid_db
from jittervan.partitions import (
    Partition,
    bell,
    enumerate_partitions,
    enumerate_partitions_k,
    label_vectors,
    mobius_coefficient,
    partition_of,
    stirling2,
)
from jittervan.verify import (
    PhaseSumInstance,
    bracket_integral,
    brute_trace_moment,
    distinct_label_sum,
    instance_from_labels,
    lmmse_demo,
    mp_average,
    partition_delta_sum,
)


def report(number: int, name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    elapsed = time.time() - started
    print(f"\nACCEPTANCE {number} {name}: {status}  {detail}  [{elapsed:.1f}s]")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.mark.slow
def test_criterion_1_combinatorics():
    started = time.time()
    failures = []

    for p in range(1, 8):
        seen = set()
        for labels in itertools.product(range(p), repeat=p):
            seen.add(partition_of(labels).omega)
        if len(seen) != bell(p):
            failures.append(f"bell({p})")
        by_blocks = {}
        for omega in seen:
            by_blocks[max(omega)] = by_blocks.get(max(omega), 0) + 1
        for k, count in by_blocks.items():
            if count != stirling2(p, k):
                failures.append(f"stirling2({p},{k})")

    if partition_of([1, 5, 2, 8, 5, 3, 2]).omega != (1, 2, 3, 4, 2, 5, 3):
        failures.append("induced-partition example")

    expected_sets = {
        1: [(1, 1, 1)],
        2: [(1, 1, 2), (1, 2, 1), (1, 2, 2)],
        3: [(1, 2, 3)],
    }
    for k, expected in expected_sets.items():
        if [w.omega for w in enumerate_partitions_k(3, k)] != expected:
            failures.append(f"partition set (3,{k})")

    expected_labels = {
        (1, 1, 1): [(0, 0, 0), (1, 1, 1), (2, 2, 2)],
        (1, 1, 2): [(0, 0, 1), (0, 0, 2), (1, 1, 0), (1, 1, 2), (2, 2, 0), (2, 2, 1)],
        (1, 2, 1): [(0, 1, 0), (0, 2, 0), (1, 0, 1), (1, 2, 1), (2, 0, 2), (2, 1, 2)],
        (1, 2, 2): [(0, 1, 1), (0, 2, 2), (1, 0, 0), (1, 2, 2), (2, 0, 0), (2, 1, 1)],
        (1, 2, 3): [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)],
    }
    for omega, expected in expected_labels.items():
        if list(label_vectors(Partition(omega), 3)) != expected:
            failures.append(f"label vectors of {omega}")

    weight_table = {
        (1,): 1,
        (1, 1): -1,
        (1, 2): 1,
        (1, 1, 1): 2,
        (1, 1, 2): -1,
        (1, 2, 1): -1,
        (1, 2, 2): -1,
        (1, 2, 3): 1,
    }
    for omega, expected in weight_table.items():
        if mobius_coefficient(Partition(omega)) != expected:
            failures.append(f"weight of {omega}")

    report(1, "combinatorics", not failures, f"failures={failures or 'none'}", started)


def test_criterion_2_first_moment():
    started = time.time()
    rng = np.random.default_rng(2)
    factories = [uniform01, point_mass_half, triangular01]
    worst_engine = 0.0
    for index in range(20):
        beta = float(rng.uniform(0.05, 1.0))
        d = int(rng.integers(1, 5))
        dist = factories[index % 3]()
        value = moment(1, beta, d, dist).value
        worst_engine = max(worst_engine, abs(value - 1.0))

    worst_trace = 0.0
    for index in range(20):
        d = int(rng.integers(1, 3))
        M = int(rng.integers(1, 12 if d == 1 else 3))
        rho = int(rng.integers(2 * M + 1, 4 * M + 4))
        dist = factories[index % 3]()
        config = EnsembleConfig(d=d, M=M, rho=rho, dist=dist)
        sample = simulate(config, 2, 100 + index)
        worst_trace = max(worst_trace, abs(empirical_moment(sample, 1) - 1.0))

    ok = worst_engine == 0.0 and worst_trace <= 1e-10
    report(
        2,
        "first moment",
        ok,
        f"engine dev {worst_engine:.1e}, trace dev {worst_trace:.1e}",
        started,
    )


def test_criterion_3_second_moment_regression():
    started = time.time()
    worst = 0.0
    detail = []
    for beta in (0.3, 0.7):
        for d in (1, 2):
            result = moment(2, beta, d, uniform01())
            target = 1 + beta - beta * bracket_integral(beta, d, uniform01()) ** d
            gap = abs(result.value - target)
            tolerance = max(3 * result.std_error, 1e-4)
            worst = max(worst, gap / tolerance)
            detail.append(f"({beta},{d}):{gap:.1e}")
    report(
        3,
        "second-moment regression",
        worst <= 1.0,
        f"gap/tol max {worst:.2f}; " + " ".join(detail),
        started,
    )


def test_criterion_4_identity_ensemble():
    started = time.time()
    config = EnsembleConfig(d=1, M=8, rho=25, dist=point_mass_half())
    sample = simulate(config, 4, 0)
    eig_dev = float(np.abs(sample.eigenvalues - 1.0).max())

    brute_dev = 0.0
    for p in range(1, 5):
        value, _ = brute_trace_moment(config, p, 3, 0)
        brute_dev = max(brute_dev, abs(value - 1.0))

    engine_dev, engine_tol = 0.0, 1e-3
    for p in range(1, 5):
        result = moment(p, config.beta, 1, point_mass_half())
        tolerance = max(3 * result.std_error, 1e-3)
        engine_dev = max(engine_dev, abs(result.value - 1.0) / tolerance)

    ok = eig_dev <= 1e-10 and brute_dev <= 1e-10 and engine_dev <= 1.0
    report(
        4,
        "identity ensemble",
        ok,
        f"eig dev {eig_dev:.1e}, brute dev {brute_dev:.1e}, engine dev/tol {engine_dev:.2f}",
        started,
    )


def test_criterion_5_theorem_vs_monte_carlo():
    started = time.time()
    config = EnsembleConfig(d=1, M=100, rho=402, dist=uniform01())
    assert config.beta == 0.5
    sample = simulate(config, 200, 5)
    detail = []
    ok = True
    for p in (2, 3):
        empirical = empirical_moment(sample, p)
        std_error = empirical_moment_std_error(sample, p)
        analytic = moment(p, config.beta, 1, uniform01())
        gap = abs(analytic.value - empirical)
        tolerance = 3 * std_error + 0.02
        ok &= gap <= tolerance
        detail.append(f"p={p}: gap {gap:.4f} tol {tolerance:.4f}")
    report(5, "theorem vs Monte Carlo", ok, "; ".join(detail), started)


@pytest.mark.slow
def test_high_order_moments_vs_monte_carlo():
    """Orders 3 to 5 at d = 1, beta = 61/73 against 6,000 trials per law.

    Red by design: once beta^(1/d) > 1/2 the engine leaves out part of the
    integral at p = 4 and 5, so those rows sit z = +4.6 to +13.2 standard
    errors below the Monte Carlo.  The same check turns green, unchanged,
    once the engine sums every term.  The seed is fixed and is not to be
    tuned either way.
    """
    started = time.time()
    rows = []
    failing = []
    for factory in (uniform01, triangular01):
        config = EnsembleConfig(d=1, M=30, rho=73, dist=factory())
        sample = simulate(config, 6000, 777)
        for p in (3, 4, 5):
            engine = moment(p, config.beta, 1, factory())
            empirical = empirical_moment(sample, p)
            std_error = empirical_moment_std_error(sample, p)
            z = (empirical - engine.value) / std_error
            if abs(z) > 4:
                failing.append(f"{config.dist.kind} p={p} z {z:+.1f}")
            rows.append(
                f"{config.dist.kind} p={p}: engine {engine.value:.5f} "
                f"({engine.std_error:.0e}), Monte Carlo {empirical:.5f} "
                f"± {std_error:.4f}, z {z:+.1f}"
            )
    print("\n" + "\n".join(rows))
    report(
        5,
        "theorem vs Monte Carlo, p = 3..5",
        not failing,
        f"|z| <= 4 required; beyond it: {', '.join(failing) or 'none'}",
        started,
    )


def test_criterion_6_limit_contraction_and_gap():
    started = time.time()
    violations = []
    weakest = 1.0
    for p in range(2, 5):
        for omega in enumerate_partitions(p):
            if omega.k < 2:
                continue
            for h in range(1, omega.k):
                for grouping in enumerate_partitions_k(omega.k, h):
                    for beta in (0.3, 0.7):
                        value = cf_integral(omega, grouping, beta, 1, uniform01())
                        margin = 1 - abs(value.value)
                        weakest = min(weakest, margin)
                        if margin < 1e-3:
                            violations.append((omega.omega, grouping.omega, beta))

    rows = convergence_report(2, 0.55, [1, 2, 3, 4], uniform01())
    gaps = [row.gap for row in rows]
    decreasing = all(a > b for a, b in zip(gaps, gaps[1:]))
    final_relative = gaps[-1] / rows[-1].mp
    below_five_percent = final_relative < 0.05

    ok = not violations and decreasing and below_five_percent
    report(
        6,
        "limit contraction",
        ok,
        (
            f"contraction margin {weakest:.4f} (violations {violations or 'none'}); "
            f"gaps {['%.4f' % g for g in gaps]} decreasing={decreasing}; "
            f"relative gap at d=4 {final_relative:.4f} (< 0.05 required)"
        ),
        started,
    )


def test_criterion_7_limit_density_self_consistency():
    started = time.time()
    worst = 0.0
    for beta in (0.2, 0.55, 0.729):
        def against_density(power: int) -> float:
            return mp_average(beta, lambda z: z**power)[0]

        worst = max(worst, abs(against_density(0) - 1.0))
        worst = max(worst, abs(against_density(1) - 1.0))
        for p in range(1, 7):
            worst = max(worst, abs(mp_moment(p, beta) - against_density(p)))
    report(7, "limit-density consistency", worst <= 1e-8, f"worst dev {worst:.2e}", started)


def test_criterion_8_phase_sum_oracle():
    started = time.time()
    failures = []

    def gap(instance: PhaseSumInstance) -> float:
        return abs(distinct_label_sum(instance) - partition_delta_sum(instance))

    single = PhaseSumInstance(Partition((1, 1, 1)), ((0,),), 6, 1)
    if gap(single) > 1e-9:
        failures.append("single-block instance")
    pair = PhaseSumInstance(Partition((1, 2)), ((1,), (-1,)), 5, 1)
    if abs(distinct_label_sum(pair) - (-5)) > 1e-9 or partition_delta_sum(pair) != -5:
        failures.append("two-block instance")
    # vectors (-3, -1, 4): the group {1, 2} sums to -4, a multiple of rho = 4
    aliased = instance_from_labels(Partition((1, 2, 1, 3)), [[-2], [-2], [-1], [2]], 4)
    if gap(aliased) > 1e-9 or partition_delta_sum(aliased) != -8:
        failures.append("aliased instance")

    scans = {
        "all-zero": (Partition((1, 2, 3)), ((0,), (0,), (0,))),
        "mixed-three": (
            Partition((1, 2, 1, 3)),
            instance_from_labels(
                Partition((1, 2, 1, 3)), np.array([[1], [0], [-1], [1]]), 5
            ).block_vectors,
        ),
        "mixed-four": (
            Partition((1, 2, 3, 4)),
            instance_from_labels(
                Partition((1, 2, 3, 4)), np.array([[1], [0], [1], [-1]]), 5
            ).block_vectors,
        ),
    }
    for name, (omega, vectors) in scans.items():
        for r in (4, 6, 8, 10):
            off = gap(PhaseSumInstance(omega, vectors, r, 1))
            if off > 1e-9:
                failures.append(f"{name} at r = {r}: off by {off:.3g}")

    report(8, "phase-sum oracle", not failures, f"failures={failures or 'none'}", started)


@pytest.mark.slow
def test_criterion_9_mse_reproduction():
    started = time.time()
    failures = []

    grid = snr_grid_db(-10, 30, 2)
    curve = mse_curve(
        0.729, [1, 2, 3], grid, uniform01(), size_budget=1225, trials=24, seed=9
    )
    worst_margin = np.inf
    for db in grid:
        by_d = {
            d: next(p for p in curve.rows("empirical", d) if p.snr_db == db)
            for d in (1, 2, 3)
        }
        limit = next(p for p in curve.rows("mp") if p.snr_db == db).mse
        checks = [
            by_d[2].mse + 3 * (by_d[1].std_err + by_d[2].std_err) - by_d[1].mse,
            by_d[3].mse + 3 * (by_d[2].std_err + by_d[3].std_err) - by_d[2].mse,
            limit + 3 * by_d[3].std_err - by_d[3].mse,
        ]
        worst_margin = min(worst_margin, min(checks))
        if min(checks) < 0:
            failures.append(f"ordering at {db} dB")

    relative_gaps = {}
    for beta in (0.2, 0.6):
        small = mse_curve(
            beta, [2], grid, uniform01(), size_budget=1000, trials=16, seed=10
        )
        gaps = []
        for db in grid:
            emp = next(p for p in small.rows("empirical", 2) if p.snr_db == db).mse
            limit = next(p for p in small.rows("mp") if p.snr_db == db).mse
            gaps.append(abs(emp - limit) / limit)
        relative_gaps[beta] = max(gaps)
    if not relative_gaps[0.2] < relative_gaps[0.6]:
        failures.append("relative gap not smaller at beta=0.2")

    config = EnsembleConfig(d=1, M=25, rho=102, dist=uniform01())
    demo = lmmse_demo(config, 10.0, seed=11, draws=600)
    if abs(demo.empirical_mse - demo.trace_mse) > 3 * demo.std_error:
        failures.append("estimator demo off the trace identity")

    report(
        9,
        "mse reproduction",
        not failures,
        (
            f"failures={failures or 'none'}; ordering margin {worst_margin:.2e}; "
            f"max rel gaps beta=0.2: {relative_gaps[0.2]:.3f}, "
            f"beta=0.6: {relative_gaps[0.6]:.3f}; "
            f"demo dev {abs(demo.empirical_mse - demo.trace_mse):.2e} "
            f"(3se {3 * demo.std_error:.2e})"
        ),
        started,
    )
