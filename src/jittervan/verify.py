"""Identity and oracle checks behind the verify subcommand, shared with pytest.

Each predicate tests one invariant at one point of its range.  A suite runs
it over the range as the check suite.<predicate name>, and the tests call it
at single points, so the probe and the tests cannot drift apart.  The scipy
oracles (the reduced bracket quadrature and the Marchenko-Pastur density
average) import scipy when called, so importing the CLI loads none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import numpy as np

from .constraints import constraint_system, difference_matrix, merged_difference_rows
from .ensemble import EnsembleConfig, empirical_moment, simulate
from .integrate import cf_integral, delta_volume, finite_grid_term
from .jitter import (
    JitterDistribution,
    from_name,
    point_mass_half,
    triangular01,
    uniform01,
)
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
    label_vector_count,
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


def bracket_integral(beta: float, d: int, dist: JitterDistribution) -> float:
    """The two-index bracket by reduced 1-D quadrature.

    The integral of |cf(s (y1 - y2))|^2 over the centred unit square,
    s = beta^(1/d), is with u = y1 - y2 that of (1 - |u|) |cf(s u)|^2 over
    [-1, 1].
    """
    from scipy.integrate import quad

    scale = beta ** (1.0 / d)
    value, _ = quad(
        lambda u: (1 - abs(u)) * abs(complex(dist.cf(scale * u))) ** 2,
        -1, 1, epsabs=1e-13, limit=200,
    )
    return value


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

    return quad(integrand, 0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)


def count_matches_bell(p: int) -> bool:
    return len(enumerate_partitions(p)) == bell(p)


def count_matches_stirling(p: int) -> bool:
    counts = [len(enumerate_partitions_k(p, k)) for k in range(1, p + 1)]
    return counts == [stirling2(p, k) for k in range(1, p + 1)]


def first_appearance_labeling() -> bool:
    w = partition_of([1, 5, 2, 8, 5, 3, 2])
    blocks = (frozenset({2, 5}), frozenset({3, 7}))
    return w.omega == (1, 2, 3, 4, 2, 5, 3) and w.k == 5 and w.blocks[1:3] == blocks


def label_vectors_cover_grid(p: int, r: int) -> bool:
    """Each order-p partition gets its falling-factorial count of label
    vectors, each mapping back to it, and together they tile the r^p grid."""
    total = 0
    for w in enumerate_partitions(p):
        vectors = list(label_vectors(w, r))
        total += len(vectors)
        if len(vectors) != label_vector_count(w.k, r) or any(
            partition_of(mu) != w for mu in vectors
        ):
            return False
    return total == r**p


def signed_weights_telescope(k: int) -> bool:
    return sum(mobius_coefficient(w) for w in enumerate_partitions(k)) == 0


def sampler_matches_cf(
    dist: JitterDistribution, ts: tuple[float, ...], seed: int
) -> bool:
    """10^6 draws stay in [0, 1), average 1/2 and match the cf at each t."""
    draws = dist.sample(10**6, seed)
    in_cell = draws.min() >= 0.0 and draws.max() < 1.0
    return in_cell and abs(draws.mean() - 0.5) < 0.005 and all(
        abs(np.exp(-2j * np.pi * t * draws).mean() - complex(dist.cf(t))) < 5e-3
        for t in ts
    )


def rows_and_columns_sum_zero(p: int) -> bool:
    """Every difference matrix of order p has zero sums and unit entries."""
    return all(
        not forms.sum(axis=0).any()
        and not forms.sum(axis=1).any()
        and np.abs(forms).max() <= 1
        for forms in map(difference_matrix, enumerate_partitions(p))
    )


def rank_is_groups_minus_one(p: int) -> bool:
    """Every basis of order p is p x (p - h + 1), with unit entries, in the
    kernel of the merged rows."""
    for w in enumerate_partitions(p):
        for g in enumerate_partitions(w.k):
            basis = constraint_system(w, g)
            unit = basis.shape == (p, p - g.k + 1) and np.abs(basis).max() <= 1
            if not unit or (merged_difference_rows(w, g) @ basis).any():
                return False
    return True


def pinned_pair_volume() -> bool:
    v = delta_volume(Partition((1, 2)))
    exact = v.exact == 1 and v.value == 1.0 and v.std_error == 0.0
    return exact and v.method == "exact_volume"


def alternating_volume_two_thirds() -> bool:
    return delta_volume(Partition((1, 2, 1, 2))).exact == Fraction(2, 3)


def volumes_exact_in_unit_interval(p: int) -> bool:
    return all(
        v.std_error == 0.0 and v.exact is not None and 0 < v.exact <= 1
        for v in map(delta_volume, enumerate_partitions(p))
    )


def cubature_matches_reduced_quadrature() -> bool:
    est = cf_integral(Partition((1, 2)), Partition((1, 1)), 0.5, 1, uniform01())
    gap = abs(est.value - bracket_integral(0.5, 1, uniform01()))
    return est.method == "gauss_cube" and gap < 1e-10 and est.std_error < 1e-10


def finite_grid_approaches_integral() -> bool:
    pair = Partition((1, 2)), Partition((1, 1))
    grid = finite_grid_term(*pair, 32, 0.5, 1, uniform01())
    return abs(grid - bracket_integral(0.5, 1, uniform01())) < 0.02


def single_block_counts_labels() -> bool:
    inst = PhaseSumInstance(Partition((1, 1, 1)), ((0,),), 5, 1)
    return distinct_label_sum(inst) == partition_delta_sum(inst) == 5


def two_block_closed_form() -> bool:
    inst = PhaseSumInstance(Partition((1, 2)), ((1,), (-1,)), 5, 1)
    return abs(distinct_label_sum(inst) + 5) < 1e-9 and partition_delta_sum(inst) == -5


def zero_offsets_residual_order() -> bool:
    return residual_scan(Partition((1, 2, 3)), ((0,),) * 3, [4, 6, 8, 10]).decays


def mixed_instance_leading_order() -> bool:
    offsets = np.array([[1], [0], [-1], [1]])
    inst = instance_from_labels(Partition((1, 2, 1, 3)), offsets, 7)
    return abs(distinct_label_sum(inst) - partition_delta_sum(inst)) <= 3 * inst.r


def half_cell_jitter_is_identity(seed: int) -> bool:
    """Half-cell positions make T the identity; (1, 8, 25) is criterion 4's."""
    for d, M, rho, trials in [(1, 6, 25, 3), (1, 8, 25, 4), (2, 2, 5, 2)]:
        sample = simulate(EnsembleConfig(d, M, rho, point_mass_half()), trials, seed)
        if np.abs(sample.eigenvalues - 1.0).max() >= 1e-10:
            return False
    return True


def unit_trace(seed: int) -> bool:
    """The eigenvalues of every trial, not only of the pool, average to one."""
    sample = simulate(EnsembleConfig(2, 2, 8, uniform01()), 5, seed)
    per_trial = np.abs(sample.eigenvalues.mean(axis=1) - 1.0).max()
    return per_trial < 1e-10 and abs(empirical_moment(sample, 1) - 1.0) < 1e-10


def matrix_power_matches_eigensolver(seed: int) -> bool:
    config = EnsembleConfig(1, 8, 20, uniform01())
    sample = simulate(config, 5, seed)
    brute = [brute_trace_moment(config, p, 5, seed)[0] for p in (2, 3)]
    eig = [empirical_moment(sample, p) for p in (2, 3)]
    return np.allclose(brute, eig, rtol=0.0, atol=1e-8)


def first_moment_is_one(beta: float, d: int, dist: JitterDistribution) -> bool:
    res = moment(1, beta, d, dist)
    return res.value == 1.0 and res.std_error == 0.0 and len(res.terms) == 1


def second_moment_reduced_form(beta: float, d: int) -> bool:
    """m2 = 1 + beta - beta * bracket^d for uniform jitter."""
    res = moment(2, beta, d, uniform01())
    target = 1 + beta - beta * bracket_integral(beta, d, uniform01()) ** d
    return abs(res.value - target) <= max(3 * res.std_error, 1e-4)


def half_cell_moments_are_one(p: int, beta: float) -> bool:
    return abs(moment(p, beta, 1, point_mass_half()).value - 1.0) < 1e-6


def density_normalized(beta: float) -> bool:
    return abs(mp_average(beta, lambda z: 1.0)[0] - 1.0) < 1e-8


def density_mean_one(beta: float) -> bool:
    return abs(mp_average(beta, lambda z: z)[0] - 1.0) < 1e-8


def moments_match_density(p: int, beta: float) -> bool:
    return abs(mp_moment(p, beta) - mp_average(beta, lambda z: z**p)[0]) < 1e-8


def _run(suite: str, rows) -> list[Check]:
    """One check per (predicate, argument tuples, detail) row, named
    suite.<predicate name> and passed when the predicate holds on every
    tuple."""
    return [
        Check(f"{suite}.{f.__name__}", all(f(*args) for args in points), detail)
        for f, points, detail in rows
    ]


def _suite_partitions(seed: int) -> list[Check]:
    return _run("partitions", [
        (count_matches_bell, product(range(1, 8)), "p <= 7"),
        (count_matches_stirling, product(range(1, 8)), "p <= 7"),
        (first_appearance_labeling, [()], "[1,2,3,4,2,5,3]"),
        (label_vectors_cover_grid, product(range(1, 6), range(1, 7)), "p <= 5, r <= 6"),
        (signed_weights_telescope, product(range(2, 6)), "k in 2..5"),
    ])


def _suite_jitter(seed: int) -> list[Check]:
    return [
        Check(
            f"jitter.sampler_matches_cf[{name}]",
            sampler_matches_cf(from_name(name), (0.3, 1.1, 2.7), seed),
            "10^6 draws, t in 0.3, 1.1, 2.7",
        )
        for name in ("uniform", "point", "triangular")
    ]


def _suite_systems(seed: int) -> list[Check]:
    return _run("systems", [
        (rows_and_columns_sum_zero, product(range(2, 6)), "p <= 5"),
        (rank_is_groups_minus_one, product(range(2, 5)), "p <= 4"),
    ])


def _suite_integrals(seed: int) -> list[Check]:
    return _run("integrals", [
        (pinned_pair_volume, [()], "[1,2]"),
        (alternating_volume_two_thirds, [()], "[1,2,1,2]"),
        (volumes_exact_in_unit_interval, product(range(2, 7)), "p <= 6"),
        (cubature_matches_reduced_quadrature, [()], "within 1e-10"),
        (finite_grid_approaches_integral, [()], "box 32, within 0.02"),
    ])


def _suite_phase_sums(seed: int) -> list[Check]:
    return _run("phase_sums", [
        (single_block_counts_labels, [()], "r = 5"),
        (two_block_closed_form, [()], "r = 5"),
        (zero_offsets_residual_order, [()], "r in 4..10"),
        (mixed_instance_leading_order, [()], "r = 7"),
    ])


def _suite_ensemble(seed: int) -> list[Check]:
    return _run("ensemble", [
        (half_cell_jitter_is_identity, [(seed,)], "three shapes"),
        (unit_trace, [(seed,)], "5 trials"),
        (matrix_power_matches_eigensolver, [(seed,)], "p in 2, 3"),
    ])


def _suite_moments(seed: int) -> list[Check]:
    laws = [
        (0.3, 1, uniform01()),
        (0.9, 3, point_mass_half()),
        (0.55, 2, triangular01()),
    ]
    shapes = [(0.3, 1), (0.7, 1), (0.55, 2), (0.9, 4)]
    half_cell = [(2, 0.64), (3, 0.42), (3, 0.64), (4, 0.42)]
    return _run("moments", [
        (first_moment_is_one, laws, "three laws"),
        (second_moment_reduced_form, shapes, "four (beta, d)"),
        (half_cell_moments_are_one, half_cell, "p in 2..4"),
    ])


def _suite_mp(seed: int) -> list[Check]:
    betas = (0.2, 0.55, 0.729, 1.0)
    return _run("mp", [
        (density_normalized, product(betas), "beta in 0.2..1"),
        (density_mean_one, product(betas), "beta in 0.2..1"),
        (moments_match_density, product(range(1, 7), betas[:3]), "p <= 6"),
    ])


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
