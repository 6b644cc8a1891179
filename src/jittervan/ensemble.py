"""Finite realizations of the jittered-grid ensemble and their spectra.

A configuration fixes the grid dimension d, the half-bandwidth M per
dimension and the vertex count rho per dimension; the sampling matrix G has
one row per frequency vector in [-M, M]^d and one unit-norm column per
grid cell, each cell holding a single position jittered around its center.
The scaled Gram matrix T = beta G G^H has unit diagonal by construction, so
its spectrum averages to one in every realization.

T[l, l'] depends on l - l' only, and storage row n-1-j holds the frequency
-l of row j, so reversing the rows conjugates T: it is centro-Hermitian.
Pairing each row with its mirror is a fixed unitary change of basis Q that
turns G into the real matrix R = Q^H G of cosine, sine and constant rows.
``simulate`` solves beta R R^T, which has the spectrum of T at a real Gram
product and a real symmetric eigensolve; the complex ``sampling_matrix``
stays for the estimator demo and the matrix-power oracle.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.random  # numpy loads it lazily; every realization draws from it

from ._parallel import ordered_map
from .errors import BudgetError, NumericalError, _check_dimension
from .jitter import JitterDistribution

#: Refuse sampling-matrix builds, complex or real, larger than this many
#: entries.
CELL_BUDGET = 1 << 23

#: Eigenvalues of the positive semidefinite Gram matrix may round below
#: zero by at most this much; anything lower is a solver failure.
EIG_FLOOR = -1e-10


@dataclass(frozen=True)
class EnsembleConfig:
    """Shape and jitter law of one random-matrix ensemble."""

    d: int
    M: int
    rho: int
    dist: JitterDistribution

    def __post_init__(self) -> None:
        _check_dimension(self.d)
        if self.M < 1:
            raise ValueError(f"half-bandwidth must be >= 1, got {self.M}")
        if 2 * self.M + 1 > self.rho:
            raise ValueError(
                f"need 2M+1 <= rho so the aspect ratio stays in (0, 1]; "
                f"got M={self.M}, rho={self.rho}"
            )

    @property
    def n_rows(self) -> int:
        return (2 * self.M + 1) ** self.d

    @property
    def n_cols(self) -> int:
        return self.rho**self.d

    @property
    def beta(self) -> float:
        return ((2 * self.M + 1) / self.rho) ** self.d


def frequency_vectors(M: int, d: int) -> np.ndarray:
    """All frequency vectors in storage-row order, shape (2M+1)^d x d.

    Row j is the vertex vector of j on a grid of width 2M+1, shifted by -M.
    """
    return vertex_vectors(2 * M + 1, d) - M


def vertex_vectors(rho: int, d: int) -> np.ndarray:
    """All vertex vectors in vertex-index order, shape rho^d x d.

    Component m of row i is digit m of i in base rho.
    """
    axis = np.arange(rho)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    # component m advances with stride rho^m, so axis m is the m-th mesh axis
    return np.stack([g.reshape(-1, order="F") for g in grids], axis=1)


def sample_positions(config: EnsembleConfig, seed) -> np.ndarray:
    """One jittered position per cell, shape n_cols x d, entries in [0, 1)."""
    rng = np.random.default_rng(seed)
    vertices = vertex_vectors(config.rho, config.d)
    jitter = config.dist.draw(rng, vertices.shape)
    return (vertices + jitter) / config.rho


def check_cell_budget(config: EnsembleConfig) -> None:
    """Refuse a configuration whose sampling matrix exceeds CELL_BUDGET."""
    if config.n_rows * config.n_cols > CELL_BUDGET:
        raise BudgetError(
            f"matrix of {config.n_rows} x {config.n_cols} entries exceeds "
            f"the cell budget {CELL_BUDGET}"
        )


def _check_build(config: EnsembleConfig, positions: np.ndarray) -> None:
    if positions.shape != (config.n_cols, config.d):
        raise ValueError(
            f"positions must have shape {(config.n_cols, config.d)}, "
            f"got {positions.shape}"
        )
    check_cell_budget(config)


def sampling_matrix(config: EnsembleConfig, positions: np.ndarray) -> np.ndarray:
    """Complex-exponential sampling matrix, n_rows x n_cols, unit columns."""
    _check_build(config, positions)
    freq = frequency_vectors(config.M, config.d)
    phases = freq @ positions.T
    return np.exp(-2j * np.pi * phases) / np.sqrt(config.n_rows)


def real_sampling_matrix(
    config: EnsembleConfig, positions: np.ndarray
) -> np.ndarray:
    """Real form R = Q^H G of the sampling matrix, same shape, unit columns.

    With h = (n_rows - 1) / 2 and l running over the frequencies of the
    storage rows after the middle one, rows 0..h-1 hold
    sqrt(2/n) cos(2 pi l.x), rows h..2h-1 hold sqrt(2/n) sin(2 pi l.x) and
    the last row is the zero frequency 1/sqrt(n).  Q is unitary, so
    R R^T = Q^H G G^H Q has the eigenvalues of G G^H.
    """
    _check_build(config, positions)
    n = config.n_rows
    half = n // 2
    freq = frequency_vectors(config.M, config.d)[half + 1 :]
    R = np.empty((n, config.n_cols))
    angles = R[:half]
    np.matmul(freq, positions.T, out=angles)
    angles *= 2 * np.pi
    np.sin(angles, out=R[half:-1])
    np.cos(angles, out=angles)
    R[:-1] *= np.sqrt(2.0 / n)
    R[-1] = 1.0 / np.sqrt(n)
    return R


def gram_matrix(G: np.ndarray, beta: float) -> np.ndarray:
    """Scaled Gram matrix beta * G G^H; real symmetric for a real G.

    The complex sampling matrix gives unit diagonal; ``real_sampling_matrix``
    gives the same trace and spectrum.
    """
    return beta * (G @ G.conj().T)


def spectrum(T: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric or Hermitian matrix.

    Eigenvalues below the roundoff floor raise; tiny negatives are clipped
    to zero so downstream averages stay on [0, inf).
    """
    try:
        eigs = np.linalg.eigvalsh(T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver failed: {exc}") from exc
    if eigs.min() < EIG_FLOOR:
        raise NumericalError(
            f"eigenvalue {eigs.min():.3e} below the PSD roundoff floor {EIG_FLOOR}"
        )
    return np.clip(eigs, 0.0, None)


@dataclass(frozen=True)
class SpectrumSample:
    """Eigenvalues of one or more realizations (trials x n_rows)."""

    eigenvalues: np.ndarray
    config: EnsembleConfig
    seed: int | Sequence[int]

    @property
    def trials(self) -> int:
        return self.eigenvalues.shape[0]


def simulate(
    config: EnsembleConfig,
    trials: int,
    seed: int | Sequence[int],
    threads: int = 1,
) -> SpectrumSample:
    """Draw positions, build the real Gram matrix and solve, trial by trial.

    Trial t draws from child t of ``np.random.SeedSequence(seed)``, so runs
    are reproducible, runs with different seeds share no trial, and trials
    can be distributed across workers without sharing generator state.
    """
    if trials < 1:
        raise ValueError(f"trial count must be >= 1, got {trials}")
    check_cell_budget(config)

    def one(stream: np.random.SeedSequence) -> np.ndarray:
        positions = sample_positions(config, stream)
        R = real_sampling_matrix(config, positions)
        return spectrum(gram_matrix(R, config.beta))

    streams = np.random.SeedSequence(seed).spawn(trials)
    eigs = np.stack(ordered_map(one, streams, threads))
    return SpectrumSample(eigs, config, seed)


def empirical_moment(sample: SpectrumSample, p: int) -> float:
    """Average over trials of the p-th power mean of the spectrum."""
    if p < 1:
        raise ValueError(f"moment order must be >= 1, got {p}")
    return float(np.mean(sample.eigenvalues**p))


def empirical_moment_std_error(sample: SpectrumSample, p: int) -> float:
    """Standard error over trials of the per-trial p-th moment."""
    if p < 1:
        raise ValueError(f"moment order must be >= 1, got {p}")
    per_trial = np.mean(sample.eigenvalues**p, axis=1)
    if len(per_trial) < 2:
        return 0.0
    return float(per_trial.std(ddof=1) / np.sqrt(len(per_trial)))


def histogram(sample: SpectrumSample, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Pooled eigenvalue histogram normalized to unit mass; (edges, density)."""
    if bins < 1:
        raise ValueError(f"bin count must be >= 1, got {bins}")
    density, edges = np.histogram(sample.eigenvalues.ravel(), bins=bins, density=True)
    return edges, density


def write_histogram_csv(path, edges: np.ndarray, density: np.ndarray) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bin_left", "bin_right", "density"])
        for left, right, value in zip(edges[:-1], edges[1:], density):
            writer.writerow([repr(float(left)), repr(float(right)), repr(float(value))])


def write_eigenvalue_csv(path, sample: SpectrumSample) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["trial", "eigenvalue"])
        for trial in range(sample.trials):
            for value in sample.eigenvalues[trial]:
                writer.writerow([trial, repr(float(value))])


def resolve_shape(
    beta_target: float, d: int, size_budget: int
) -> tuple[int, int, float]:
    """Pick (M, rho) for a target aspect ratio under a row-count budget.

    The half-bandwidth is pushed to the budget first, then the vertex count
    minimizes the aspect-ratio error (ties broken toward fewer vertices);
    the achieved ratio is returned and is what Monte-Carlo comparisons
    should be run against.
    """
    if not 0 < beta_target <= 1:
        raise ValueError(f"target aspect ratio must be in (0, 1], got {beta_target}")
    _check_dimension(d)
    if 3**d > size_budget:
        raise ValueError(
            f"size budget {size_budget} cannot fit the minimal grid at d={d}"
        )
    # the widest odd width 2M + 1 within the integer d-th root of the budget,
    # which Newton's iteration in integers reaches from a power of two above
    budget = int(size_budget)
    root = 1 << -(-budget.bit_length() // d)
    while (below := ((d - 1) * root + budget // root ** (d - 1)) // d) < root:
        root = below
    M = (root - 1) // 2
    width = 2 * M + 1
    # the error is unimodal in rho with its minimum next to width / beta^(1/d),
    # so the integers around that point, scanned upward, hold the best rho
    centre = width / beta_target ** (1.0 / d)
    if not np.isfinite(centre):
        raise ValueError(
            f"target aspect ratio {beta_target} needs more vertices per axis than "
            f"a float holds at d={d}"
        )
    centre = int(centre)
    best: tuple[float, int] | None = None
    for rho in range(max(width, centre - 1), max(width, centre + 2) + 1):
        err = abs((width / rho) ** d - beta_target)
        if best is None or err < best[0] - 1e-15:
            best = (err, rho)
    assert best is not None
    rho = best[1]
    return M, rho, (width / rho) ** d
