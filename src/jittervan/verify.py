"""Every independent reference behind the engine, and the checks of the
verify subcommand, shared with pytest; no engine module imports this one.

Each reference takes another route than the engine to the value it checks:
- the phase sum of a partition, by a literal enumeration over ordered
  tuples of distinct grid labels and by its partition expansion, with each
  group's summed vector taken mod rho; Moebius inversion on the partition
  lattice makes the two equal exactly, whatever the block vectors sum to;
- the Bell and Stirling counts, by their recurrence, and the label vectors
  of a partition, by injective assignment of labels to its blocks, which
  the partition enumeration is checked against;
- the matrix-power trace, an eigenvalue-free route to empirical moments;
- the estimator demo, which solves for simulated signals through the complex G;
- the finite-grid lattice sum, which converges to an integral factor as
  the half-bandwidth grows;
- two scipy quadratures, the reduced bracket and the Marchenko-Pastur
  density average, which import scipy when called, so importing the CLI
  loads none.

Each predicate tests one invariant at one point of its range.  A suite runs
it over the range as the check suite.<predicate name>, and the tests call it
at single points, so the probe and the tests cannot drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .constraints import constraint_system, difference_matrix, group_walk
from .ensemble import (
    EnsembleConfig,
    check_cell_budget,
    empirical_moment,
    frequency_vectors,
    sample_positions,
    simulate,
    spectrum,
    vertex_vectors,
)
from .errors import BudgetError, NumericalError
from .errors import _check_aspect_ratio, _check_integer, _check_law
from .integrate import cf_integral, delta_volume
from .jitter import (
    JitterDistribution,
    from_name,
    point_mass_half,
    triangular01,
    uniform01,
)
from .moments import moment, mp_density, mp_moment, mp_support
from .mse import _check_snr, mse_from_spectrum
from .partitions import (
    Partition,
    enumerate_partitions,
    enumerate_partitions_k,
    mobius_coefficient,
    partition_of,
)

#: The exact enumeration visits r!/(r-k)! ordered tuples of distinct
#: labels for k blocks; it refuses more tuples than this.
TUPLE_BUDGET = 200_000
#: Lattice nodes the finite-grid sum may enumerate.
GRID_BUDGET = 10**8


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class PhaseSumInstance:
    """A partition with one integer offset vector per block.

    ``rho`` and ``d`` fix the label grid, so the label count is rho^d.  The
    block vectors may sum to anything; every entry must be an integer, and
    is stored as an ``int``.
    """

    omega: Partition
    block_vectors: tuple[tuple[int, ...], ...]
    rho: int
    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", _check_integer(self.rho, "vertex count"))
        object.__setattr__(self, "d", _check_integer(self.d, "dimension"))
        k = self.omega.k
        if len(self.block_vectors) != k:
            raise ValueError(f"need {k} block vectors, got {len(self.block_vectors)}")
        if any(len(vec) != self.d for vec in self.block_vectors):
            raise ValueError(f"block vectors must have length {self.d}")
        object.__setattr__(self, "block_vectors", _integer_rows(self.block_vectors))

    @property
    def r(self) -> int:
        return self.rho**self.d


def _integer_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Each offset as an ``int``; refuse one that is no integer, or a bool."""
    return tuple(
        tuple(_check_integer(v, "offset", low=-math.inf) for v in row) for row in rows
    )


def instance_from_labels(
    omega: Partition, offsets: np.ndarray, rho: int
) -> PhaseSumInstance:
    """Build the per-block vectors from a p x d integer offset matrix."""
    shape = np.shape(offsets)
    if len(shape) != 2 or shape[0] != omega.p:
        raise ValueError(f"offsets must be {omega.p} x d, got {shape}")
    offsets = np.array(_integer_rows(offsets), dtype=np.int64)
    vectors = difference_matrix(omega) @ offsets
    return PhaseSumInstance(omega, vectors.tolist(), rho, shape[1])


def distinct_label_sum(instance: PhaseSumInstance) -> complex:
    """Exact phase sum over ordered tuples of distinct labels.

    Phase exponents are accumulated as integers modulo rho and combined
    with the roots of unity only at the end, so the enumeration itself is
    exact; TUPLE_BUDGET keeps it affordable.  With fewer labels than
    blocks there is no tuple, and the sum is 0.
    """
    k = instance.omega.k
    r = instance.r
    if math.perm(r, k) > TUPLE_BUDGET:
        raise BudgetError(
            f"distinct-label enumeration with r={r}, k={k} needs "
            f"{math.perm(r, k)} tuples, over the budget {TUPLE_BUDGET}"
        )
    # integer phase exponent per (label, block), reduced modulo rho
    vectors = np.array(instance.block_vectors, dtype=np.int64)
    table = vertex_vectors(instance.rho, instance.d) @ vectors.T % instance.rho
    residue_counts = np.zeros(instance.rho, dtype=np.int64)
    for tup in permutations(range(r), k):
        exponent = 0
        for j in range(k):
            exponent += table[tup[j], j]
        residue_counts[exponent % instance.rho] += 1
    phases = np.exp(-2j * np.pi * np.arange(instance.rho) / instance.rho)
    return complex(np.dot(residue_counts, phases))


def surviving_groupings(instance: PhaseSumInstance) -> list[Partition]:
    """Block groupings whose merged vectors all vanish mod rho."""
    k = instance.omega.k
    vectors = np.array(instance.block_vectors, dtype=np.int64)
    out = []
    for h in range(1, k + 1):
        for grouping in enumerate_partitions_k(k, h):
            sums = [
                vectors[[i - 1 for i in sorted(block)]].sum(axis=0)
                for block in grouping.blocks
            ]
            if all(not (s % instance.rho).any() for s in sums):
                out.append(grouping)
    return out


def partition_delta_sum(instance: PhaseSumInstance) -> int:
    """The phase sum by its partition expansion over the surviving groupings,
    an integer equal to ``distinct_label_sum`` exactly."""
    r = instance.r
    total = 0
    for grouping in surviving_groupings(instance):
        total += r**grouping.k * mobius_coefficient(grouping)
    return total


def sampling_matrix(config: EnsembleConfig, positions: np.ndarray) -> np.ndarray:
    """Complex-exponential sampling matrix, n_rows x n_cols, unit columns."""
    if positions.shape != (config.n_cols, config.d):
        raise ValueError(
            f"positions must have shape {(config.n_cols, config.d)}, "
            f"got {positions.shape}"
        )
    check_cell_budget(config)
    freq = frequency_vectors(config.M, config.d)
    phases = freq @ positions.T
    return np.exp(-2j * np.pi * phases) / np.sqrt(config.n_rows)


def gram_matrix(G: np.ndarray, beta: float) -> np.ndarray:
    """Scaled Gram matrix beta * G G^H; the sampling matrix gives unit diagonal."""
    return beta * (G @ G.conj().T)


def brute_trace_moment(
    config: EnsembleConfig, p: int, trials: int, seed: int
) -> tuple[float, float]:
    """Monte-Carlo moment by direct matrix powers, no eigensolver.

    Returns the mean and standard error over trials of trace(T^p)/n_rows;
    an independent path against the eigenvalue-based estimate.  Trial t
    draws the positions ``simulate`` draws for trial t at the same seed.
    """
    p = _check_integer(p, "moment order")
    trials = _check_integer(trials, "trial count")
    seed = _check_integer(seed, "seed", low=0)
    if config.n_rows > 512:
        raise BudgetError(
            f"matrix-power oracle is capped at 512 rows, got {config.n_rows}"
        )
    values = []
    for stream in np.random.SeedSequence(seed).spawn(trials):
        positions = sample_positions(config, stream)
        G = sampling_matrix(config, positions)
        T = gram_matrix(G, config.beta)
        power = np.linalg.matrix_power(T, p)
        values.append(float(np.trace(power).real) / config.n_rows)
    mean = float(np.mean(values))
    err = float(np.std(values, ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mean, err


class LmmseResult(NamedTuple):
    """Direct estimator error against the spectral trace formula."""

    empirical_mse: float
    trace_mse: float
    std_error: float
    draws: int


def lmmse_demo(
    config: EnsembleConfig, snr: float, seed: int, draws: int = 400
) -> LmmseResult:
    """Estimate harmonics from noisy samples and compare with the trace.

    Positions are drawn once; the positions and the signal come from two
    children of ``np.random.SeedSequence(seed)``.  Spectrum vectors are
    standard complex Gaussian, noise variance is 1/snr per sample
    (unit-norm matrix columns make the per-sample signal power one).
    Conditionally on the positions the trace value is the exact estimator
    error, so the empirical average converges to it as the draw count
    grows.  ``snr`` is one SNR; a list or an array of them is refused.
    """
    if np.ndim(snr):
        raise ValueError(f"need one signal-to-noise ratio, got shape {np.shape(snr)}")
    snr = _check_snr(snr)
    seed = _check_integer(seed, "seed", low=0)
    draws = _check_integer(draws, "draw count", low=2)
    check_cell_budget(config)
    signal_seed, positions_seed = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(signal_seed)
    positions = sample_positions(config, positions_seed)
    G = sampling_matrix(config, positions)
    n, r = G.shape
    beta = config.beta

    T = gram_matrix(G, beta)
    trace_mse = mse_from_spectrum(spectrum(T), beta, snr)

    sigma2 = 1.0 / snr
    system = T / beta + sigma2 * np.eye(n)
    shape_a = (n, draws)
    shape_n = (r, draws)
    a = (rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)) / np.sqrt(2)
    noise = (
        (rng.standard_normal(shape_n) + 1j * rng.standard_normal(shape_n))
        * np.sqrt(sigma2 / 2)
    )
    observed = G.conj().T @ a + noise
    try:
        estimate = np.linalg.solve(system, G @ observed)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"estimator solve failed: {exc}") from exc
    per_draw = np.mean(np.abs(estimate - a) ** 2, axis=0)
    empirical = float(per_draw.mean())
    std_error = float(per_draw.std(ddof=1) / np.sqrt(draws))
    return LmmseResult(empirical, trace_mse, std_error, draws)


def finite_grid_term(
    partition: Partition,
    grouping: Partition,
    box: int,
    beta: float,
    d: int,
    dist: JitterDistribution,
) -> float:
    """Exact finite half-bandwidth evaluation of an integral factor.

    Sums the characteristic-function product over integer label offsets in
    [-box, box]^p satisfying the pinned-sum constraints, normalized by
    (2*box+1)^(p-h+1); deterministic, and converges to the corresponding
    integral as the box grows.  The p-h+1 free labels x run over
    [-box, box] and the labels are y = B @ x, B the integer basis of
    ``constraint_system`` of the walk through the groups, so the
    enumeration meets every lattice point once.  B is checked against that
    walk's difference matrix in integers, and the node count against
    GRID_BUDGET, before any node is enumerated.
    """
    box = _check_integer(box, "half-bandwidth")
    beta = _check_aspect_ratio(beta)
    d = _check_integer(d, "dimension")
    _check_law(dist)
    walk = group_walk(partition, grouping)
    basis = constraint_system(walk)
    if (difference_matrix(walk) @ basis).any():
        raise NumericalError(f"basis of ({partition}, {grouping}) leaves the kernel")
    width = 2 * box + 1
    shape = (width,) * basis.shape[1]
    nodes = width ** basis.shape[1]
    if nodes > GRID_BUDGET:
        raise BudgetError(
            f"finite-grid enumeration needs {nodes:.2e} nodes, over the "
            f"budget {GRID_BUDGET}"
        )
    forms = difference_matrix(partition)
    scale = beta ** (1.0 / d) / width
    chunk = 1 << 18
    total = 0.0 + 0.0j
    for start in range(0, nodes, chunk):
        flat = np.arange(start, min(start + chunk, nodes), dtype=np.int64)
        y = (np.stack(np.unravel_index(flat, shape), axis=1) - box) @ basis.T
        y = y[np.all(np.abs(y) <= box, axis=1)]
        total += np.prod(dist.cf(scale * (y @ forms.T)), axis=1).sum()
    return float(total.real / nodes)


def bracket_integral(beta: float, d: int, dist: JitterDistribution) -> float:
    """The two-index bracket by reduced 1-D quadrature.

    The integral of |cf(s (y1 - y2))|^2 over the centred unit square,
    s = beta^(1/d), is with u = y1 - y2 that of (1 - |u|) |cf(s u)|^2 over
    [-1, 1].
    """
    beta = _check_aspect_ratio(beta)
    d = _check_integer(d, "dimension")
    _check_law(dist)
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


@lru_cache(maxsize=None)
def stirling2(p: int, k: int) -> int:
    """Stirling number of the second kind, exact."""
    p = _check_integer(p, "order")
    k = _check_integer(k, "block count", high=p)
    if k == 1 or k == p:
        return 1
    return k * stirling2(p - 1, k) + stirling2(p - 1, k - 1)


def bell(p: int) -> int:
    """Bell number: count of all partitions of a p element set, exact."""
    p = _check_integer(p, "order")
    return sum(stirling2(p, k) for k in range(1, p + 1))


def label_vector_count(k: int, r: int) -> int:
    """Number of label vectors on r symbols inducing a k-block partition."""
    k = _check_integer(k, "block count")
    return math.perm(_check_integer(r, "label count"), k)


def label_vectors(partition: Partition, r: int) -> Iterator[tuple[int, ...]]:
    """Every vector in {0,...,r-1}^p inducing ``partition``, produced lazily.

    They follow the lexicographic order of the injective block-label
    assignment; the total count is r!/(r-k)!.  The label count r is
    refused at the call, before the first vector.
    """
    r = _check_integer(r, "label count")
    omega = partition.omega
    return (
        tuple(assignment[label - 1] for label in omega)
        for assignment in permutations(range(r), partition.k)
    )


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
    kernel of the difference matrix of the walk through the groups."""
    for w in enumerate_partitions(p):
        for g in enumerate_partitions(w.k):
            walk = group_walk(w, g)
            basis = constraint_system(walk)
            unit = basis.shape == (p, p - g.k + 1) and np.abs(basis).max() <= 1
            if not unit or (difference_matrix(walk) @ basis).any():
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


def expansion_matches_enumeration(omega: Partition, offsets, rho: int) -> bool:
    """The partition expansion equals the distinct-label enumeration exactly."""
    inst = instance_from_labels(omega, offsets, rho)
    return abs(distinct_label_sum(inst) - partition_delta_sum(inst)) <= 1e-9


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
    rng = np.random.default_rng(seed)
    instances = [
        (w, rng.integers(-2 * rho, 2 * rho + 1, size=(p, 1)), rho)
        for p in range(2, 5)
        for w in enumerate_partitions(p)
        for rho in (3, 4, 5)
    ]
    # block vectors (-3, -1, 4) and (3, -3): a group sums to a nonzero multiple of rho
    instances += [
        (Partition((1, 2, 1, 3)), [[-2], [-2], [-1], [2]], 4),
        (Partition((1, 2, 1)), [[-2], [-2], [1]], 3),
    ]
    return _run("phase_sums", [
        (single_block_counts_labels, [()], "r = 5"),
        (two_block_closed_form, [()], "r = 5"),
        (expansion_matches_enumeration, instances, "p <= 4, rho in 3..5, exact"),
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
    """Run the named suites in turn, each name looked up before any runs;
    ``names`` is a sequence of suite names, and ``seed`` (an integer >= 0)
    seeds every drawing check."""
    if isinstance(names, str):
        raise ValueError(f"suite names must be a sequence, got the string {names!r}")
    seed = _check_integer(seed, "seed", low=0)
    suites = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        suites.append(SUITES[name])
    return [check for suite in suites for check in suite(seed)]
