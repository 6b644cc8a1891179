"""Self-contained identity and oracle checks behind the verify subcommand.

These are fast spot checks of the invariants the engine relies on, wired
so a deployment can be probed without the development test suite; the
pytest suite runs the same ground much harder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

import numpy as np

from .constraints import constraint_system, difference_matrix, merged_difference_rows
from .ensemble import EnsembleConfig, empirical_moment, simulate
from .integrate import cf_integral, delta_volume, finite_grid_term
from .jitter import from_name, point_mass_half, uniform01
from .moments import moment, mp_density, mp_moment, mp_support
from .oracle import (
    PhaseSumInstance,
    brute_trace_moment,
    distinct_label_sum,
    instance_from_labels,
    partition_delta_sum,
    residual_scan,
)
from .partitions import (
    Partition,
    bell,
    enumerate_partitions,
    enumerate_partitions_k,
    label_vectors,
    mobius_coefficient,
    partition_of,
    stirling2,
)


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def _check(name: str, condition: bool, detail: str = "") -> Check:
    return Check(name, bool(condition), detail)


@cache
def _pair_integral() -> float:
    """The cf factor of ([1,2], [1,1]) at beta = 1/2, d = 1, uniform jitter."""
    from scipy.integrate import quad

    value, _ = quad(lambda u: (1 - abs(u)) * np.sinc(0.5 * u) ** 2, -1, 1, epsabs=1e-13)
    return value


def _suite_partitions(seed: int) -> list[Check]:
    checks = []
    ok = all(len(enumerate_partitions(p)) == bell(p) for p in range(1, 7))
    checks.append(_check("partitions.count_matches_bell", ok, "p <= 6"))
    ok = all(
        len(enumerate_partitions_k(p, k)) == stirling2(p, k)
        for p in range(1, 7)
        for k in range(1, p + 1)
    )
    checks.append(_check("partitions.count_matches_stirling", ok, "p <= 6"))
    induced = partition_of([1, 5, 2, 8, 5, 3, 2])
    checks.append(
        _check(
            "partitions.first_appearance_labeling",
            induced.omega == (1, 2, 3, 4, 2, 5, 3) and induced.k == 5,
            str(induced),
        )
    )
    ok = True
    for p in range(2, 5):
        for r in range(1, 5):
            total = sum(
                len(list(label_vectors(w, r))) for w in enumerate_partitions(p)
            )
            ok &= total == r**p
    checks.append(_check("partitions.label_vectors_cover_grid", ok, "p <= 4, r <= 4"))
    ok = all(
        sum(mobius_coefficient(w) for w in enumerate_partitions(k)) == 0
        for k in range(2, 6)
    )
    checks.append(_check("partitions.signed_weights_telescope", ok, "k in 2..5"))
    return checks


def _suite_jitter(seed: int) -> list[Check]:
    checks = []
    n = 200_000
    for name in ("uniform", "point", "triangular"):
        dist = from_name(name)
        draws = dist.sample(n, seed)
        ok = draws.min() >= 0.0 and draws.max() < 1.0
        ok &= abs(draws.mean() - 0.5) < 0.005
        worst = 0.0
        for t in (0.3, 1.1, 2.7):
            empirical = np.exp(-2j * np.pi * t * draws).mean()
            worst = max(worst, abs(empirical - complex(dist.cf(t))))
        ok &= worst < 0.01
        checks.append(
            _check(f"jitter.sampler_matches_cf[{name}]", ok, f"worst gap {worst:.1e}")
        )
    return checks


def _suite_systems(seed: int) -> list[Check]:
    checks = []
    ok = True
    for p in range(2, 6):
        for w in enumerate_partitions(p):
            forms = difference_matrix(w)
            ok &= not forms.sum(axis=0).any() and not forms.sum(axis=1).any()
    checks.append(_check("systems.rows_and_columns_sum_zero", ok, "p <= 5"))
    ok = True
    for p in range(2, 5):
        for w in enumerate_partitions(p):
            for h in range(1, w.k + 1):
                for g in enumerate_partitions_k(w.k, h):
                    basis = constraint_system(w, g)
                    ok &= basis.shape == (p, p - h + 1)
                    ok &= not (np.abs(basis) > 1).any()
                    ok &= not (merged_difference_rows(w, g) @ basis).any()
    checks.append(_check("systems.rank_is_groups_minus_one", ok, "p <= 4"))
    return checks


def _suite_integrals(seed: int) -> list[Check]:
    checks = []
    v = delta_volume(Partition((1, 2)))
    checks.append(_check("integrals.pinned_pair_volume", v.exact == 1, f"{v.value}"))
    v = delta_volume(Partition((1, 2, 1, 2)))
    checks.append(
        _check(
            "integrals.alternating_volume_two_thirds",
            v.exact == Fraction(2, 3),
            f"{v.value}",
        )
    )
    ok = True
    for p in range(2, 5):
        for w in enumerate_partitions(p):
            if w.k < 2:
                continue
            value = delta_volume(w)
            ok &= value.exact is not None and 0 < value.exact <= 1
    checks.append(_check("integrals.volumes_exact_in_unit_interval", ok, "p <= 4"))

    w, g = Partition((1, 2)), Partition((1, 1))
    est = cf_integral(w, g, 0.5, 1, uniform01())
    target = _pair_integral()
    gap = abs(est.value - target)
    checks.append(
        _check(
            "integrals.cubature_matches_reduced_quadrature",
            gap < 1e-10 and est.std_error < 1e-10,
            f"gap {gap:.1e}, error estimate {est.std_error:.1e}",
        )
    )
    grid = finite_grid_term(w, g, 32, 0.5, 1, uniform01())
    checks.append(
        _check(
            "integrals.finite_grid_approaches_integral",
            abs(grid - target) < 0.02,
            f"gap {abs(grid - target):.1e}",
        )
    )
    return checks


def _suite_phase_sums(seed: int) -> list[Check]:
    checks = []
    inst = PhaseSumInstance(Partition((1,) * 3), ((0,),), 5, 1)
    lhs, rhs = distinct_label_sum(inst), partition_delta_sum(inst)
    checks.append(
        _check("phase_sums.single_block_counts_labels", lhs == rhs == 5, f"{lhs}")
    )
    inst = PhaseSumInstance(Partition((1, 2)), ((1,), (-1,)), 5, 1)
    lhs, rhs = distinct_label_sum(inst), partition_delta_sum(inst)
    checks.append(
        _check(
            "phase_sums.two_block_closed_form",
            abs(lhs - rhs) < 1e-9 and rhs == -5,
            f"lhs {lhs:.6f} rhs {rhs}",
        )
    )
    rows = residual_scan(Partition((1, 2, 3)), ((0,), (0,), (0,)), [4, 6, 8, 10])
    decayed = rows[-1].residual / rows[-1].r ** 3 <= rows[0].residual / rows[0].r ** 3
    checks.append(
        _check(
            "phase_sums.zero_offsets_residual_order",
            decayed,
            f"residuals {[r.residual for r in rows]}",
        )
    )
    w = Partition((1, 2, 1, 3))
    inst = instance_from_labels(w, np.array([[1], [0], [-1], [1]]), 7)
    lhs, rhs = distinct_label_sum(inst), partition_delta_sum(inst)
    checks.append(
        _check(
            "phase_sums.mixed_instance_leading_order",
            abs(lhs - rhs) <= 3 * inst.r,
            f"residual {abs(lhs - rhs):.2f} at r={inst.r}",
        )
    )
    return checks


def _suite_ensemble(seed: int) -> list[Check]:
    checks = []
    config = EnsembleConfig(d=1, M=6, rho=25, dist=point_mass_half())
    sample = simulate(config, 2, seed)
    gap = float(np.abs(sample.eigenvalues - 1.0).max())
    checks.append(
        _check("ensemble.half_cell_jitter_is_identity", gap < 1e-10, f"max|l-1| {gap:.1e}")
    )
    config = EnsembleConfig(d=1, M=8, rho=34, dist=uniform01())
    sample = simulate(config, 3, seed)
    ok = abs(empirical_moment(sample, 1) - 1.0) < 1e-10
    checks.append(_check("ensemble.unit_trace", ok, "3 trials"))
    brute, _ = brute_trace_moment(config, 2, 3, seed)
    eig = empirical_moment(sample, 2)
    checks.append(
        _check(
            "ensemble.matrix_power_matches_eigensolver",
            abs(brute - eig) < 1e-8,
            f"gap {abs(brute - eig):.1e}",
        )
    )
    return checks


def _suite_moments(seed: int) -> list[Check]:
    checks = []
    res = moment(1, 0.37, 2, uniform01())
    checks.append(_check("moments.first_moment_is_one", res.value == 1.0, f"{res.value}"))
    res = moment(2, 0.5, 1, uniform01())
    target = 1 + 0.5 - 0.5 * _pair_integral()
    gap = abs(res.value - target)
    checks.append(
        _check(
            "moments.second_moment_reduced_form",
            gap < max(5 * res.std_error, 5e-4),
            f"gap {gap:.1e}",
        )
    )
    res = moment(3, 0.64, 1, point_mass_half())
    checks.append(
        _check(
            "moments.half_cell_moments_are_one",
            abs(res.value - 1.0) < 1e-6,
            f"{res.value:.8f}",
        )
    )
    return checks


def mp_average(beta: float, f) -> tuple[float, float]:
    """(integral of f(z) * mp_density(beta, z) dz, quadrature error).

    The substitution z = low + (high - low) sin^2(theta) removes the
    square-root edge singularities, so the integrand is smooth on [0, pi/2].
    """
    from scipy.integrate import quad

    low, high = mp_support(beta)
    span = high - low

    def integrand(theta: float) -> float:
        s = math.sin(theta)
        z = low + span * s * s
        jac = 2 * span * s * math.cos(theta)
        return f(z) * mp_density(beta, z) * jac

    return quad(integrand, 0.0, math.pi / 2, epsabs=1e-12, epsrel=1e-12)


def _suite_mp(seed: int) -> list[Check]:
    checks = []
    beta = 0.55

    def against_density(power: int) -> float:
        return mp_average(beta, lambda z: z**power)[0]

    mass = against_density(0)
    mean = against_density(1)
    checks.append(_check("mp.density_normalized", abs(mass - 1) < 1e-8, f"{mass:.10f}"))
    checks.append(_check("mp.density_mean_one", abs(mean - 1) < 1e-8, f"{mean:.10f}"))
    ok = all(
        abs(mp_moment(p, beta) - against_density(p)) < 1e-8 for p in range(1, 5)
    )
    checks.append(_check("mp.moments_match_density", ok, "p <= 4"))
    return checks


SUITES: dict[str, Callable[[int], list[Check]]] = {
    "partitions": _suite_partitions,
    "jitter": _suite_jitter,
    "systems": _suite_systems,
    "integrals": _suite_integrals,
    "phase_sums": _suite_phase_sums,
    "ensemble": _suite_ensemble,
    "moments": _suite_moments,
    "mp": _suite_mp,
}


def run_suites(names, seed: int = 0) -> list[Check]:
    checks: list[Check] = []
    for name in names:
        try:
            suite = SUITES[name]
        except KeyError:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        checks.extend(suite(seed))
    return checks
