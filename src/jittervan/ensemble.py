"""Finite realizations of the jittered-grid ensemble and their spectra.

A configuration fixes the grid dimension d, the half-bandwidth M per
dimension and the vertex count rho per dimension; the sampling matrix G has
one row per frequency vector in [-M, M]^d and one unit-norm column per
grid cell, each cell holding a single position jittered around its center.
The scaled Gram matrix T = beta G G^H has unit diagonal by construction, so
its spectrum averages to one in every realization.

T[l, l'] = (beta / n_rows) conj c(l - l') depends on l - l' only, through
the lag sums c(m) = sum_q exp(2 pi i m.x_q) over m in [-2M, 2M]^d.  Storage
row n-1-j holds the frequency -l of row j, so pairing each row with its
mirror is a fixed unitary change of basis Q that turns G into the real
matrix R = Q^H G of cosine, sine and constant rows.  ``simulate`` gathers
beta R R^T, which has the spectrum of T, from the real and imaginary parts
of the lag sums and solves it with a real symmetric eigensolve; no trial
forms an n_rows x n_cols matrix.  The gather writes beta R R^T in blocks
of rows, so a trial holds that matrix and the eigensolver's copy of it,
about 2 n_rows^2 doubles, and no other n_rows x n_rows array.  The
complex ``sampling_matrix`` and ``gram_matrix`` stay for the estimator
demo and the matrix-power oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._parallel import ordered_map
from .errors import BudgetError, NumericalError
from .errors import _check_aspect_ratio, _check_integer, _check_law
from .jitter import JitterDistribution

#: Refuse configurations whose sampling matrix has more entries than this,
#: whether or not it is formed.
CELL_BUDGET = 1 << 23

#: Complex entries per block of the lag sums' Khatri-Rao table; the cells
#: per block follow from the table's width, so no table grows with d or r.
#: The Gram gather takes rows in blocks of about as many entries.
LAG_ENTRIES = 1 << 14

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
        object.__setattr__(self, "d", _check_integer(self.d, "dimension"))
        object.__setattr__(self, "M", _check_integer(self.M, "half-bandwidth"))
        object.__setattr__(self, "rho", _check_integer(self.rho, "vertex count"))
        _check_law(self.dist)
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


def lag_sums(M: int, positions: np.ndarray) -> np.ndarray:
    """c(m) = sum_q exp(2 pi i m.x_q) for every lag m in [-2M, 2M]^d.

    Flat, in row-major order over the lag components, so the zero lag sits
    in the middle.  The exponential factors over the axes: each axis gets a
    table of its L = 4M+1 phases, the tables of all but the last axis are
    multiplied row by row (their Khatri-Rao product) and a complex GEMM
    against the last table sums over the cells.  At d = 1 the lag is split
    as m + 2M = a B + b with B about sqrt(L), so two tables of about
    sqrt(L) columns each replace one of L.  The cells go through in blocks
    whose Khatri-Rao table holds about LAG_ENTRIES entries.
    """
    L = 4 * M + 1
    d = positions.shape[1]
    if d == 1:
        B = math.isqrt(L - 1) + 1
        factors = [(0, np.arange(0, L, B) - 2 * M), (0, np.arange(B))]
    else:
        factors = [(k, np.arange(-2 * M, 2 * M + 1)) for k in range(d)]
    width = math.prod(len(m) for _, m in factors[:-1])
    cells = max(1, LAG_ENTRIES // width)
    c = 0
    for start in range(0, len(positions), cells):
        block = positions[start : start + cells]
        tables = [
            np.exp(np.multiply.outer(block[:, k], 2j * np.pi * m)) for k, m in factors
        ]
        rows = tables[0]
        for table in tables[1:-1]:
            rows = (rows[:, :, None] * table[:, None, :]).reshape(len(block), -1)
        c = c + rows.T @ tables[-1]
    return c.ravel()[: L**d]


def real_gram_matrix(config: EnsembleConfig, positions: np.ndarray) -> np.ndarray:
    """beta R R^T, the real form of T = beta G G^H, gathered from lag sums.

    With h = n_rows // 2 and f_i the frequency of storage row h + 1 + i, R
    holds sqrt(2/n) cos(2 pi f_i.x) in rows 0..h-1, sqrt(2/n) sin(2 pi f_i.x)
    in rows h..2h-1 and 1/sqrt(n) in the last row.  With C and S the real
    and imaginary parts of ``lag_sums``, the blocks of beta R R^T are, times
    beta / n, C(f_i - f_j) +- C(f_i + f_j) (cos-cos, sin-sin),
    S(f_i + f_j) - S(f_i - f_j) (cos-sin), sqrt(2) C(f_i) and sqrt(2) S(f_i)
    (against the constant row) and r (the corner).  C is made exactly even
    and S exactly odd, so the result is exactly symmetric.  The flat lag
    index is affine in the lag, so the index of f_i +- f_j is s_i +- s_j
    plus that of the zero lag.  The cosine and sine rows are gathered
    straight into T in blocks of about LAG_ENTRIES entries.
    """
    _check_build(config, positions)
    M, d = config.M, config.d
    L = 4 * M + 1
    zero = (L**d - 1) // 2
    h = config.n_rows // 2
    freq = frequency_vectors(M, d)[h + 1 :]
    s = freq @ L ** np.arange(d - 1, -1, -1)
    c = lag_sums(M, positions)
    C = (c.real + c.real[::-1]) / 2
    S = (c.imag - c.imag[::-1]) / 2
    T = np.empty((config.n_rows, config.n_rows))
    rows = max(1, LAG_ENTRIES // h)
    for a in range(0, h, rows):
        b = min(a + rows, h)
        diff, total = s[a:b, None] - s + zero, s[a:b, None] + s + zero
        # the indices lie in range by construction; mode="clip" skips the
        # bounds check and the copy of ``out`` that it makes.  The sine
        # gathers reuse the cosine buffers.
        C_diff = C.take(diff, mode="clip")
        C_total = C.take(total, mode="clip")
        np.add(C_diff, C_total, out=T[a:b, :h])
        np.subtract(C_diff, C_total, out=T[h + a : h + b, h:-1])
        S_total = S.take(total, out=C_total, mode="clip")
        S_diff = S.take(diff, out=C_diff, mode="clip")
        np.subtract(S_total, S_diff, out=T[a:b, h:-1])
    T[h:-1, :h] = T[:h, h:-1].T
    single = s + zero
    T[:h, -1] = T[-1, :h] = np.sqrt(2) * C[single]
    T[h:-1, -1] = T[-1, h:-1] = np.sqrt(2) * S[single]
    T[-1, -1] = config.n_cols
    T *= config.beta / config.n_rows
    return T


def gram_matrix(G: np.ndarray, beta: float) -> np.ndarray:
    """Scaled Gram matrix beta * G G^H; the sampling matrix gives unit diagonal."""
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
    """Draw positions, gather the real Gram matrix and solve, trial by trial.

    Trial t draws from child t of ``np.random.SeedSequence(seed)``, so runs
    are reproducible, runs with different seeds share no trial, and trials
    can be distributed across workers without sharing generator state.
    Before any draw it refuses, with ``ValueError``, a ``trials`` or
    ``threads`` that is no integer >= 1, a ``seed`` that is no integer >= 0
    or sequence of them, and with ``BudgetError`` a sampling matrix of more
    than CELL_BUDGET entries.
    """
    trials = _check_integer(trials, "trial count")
    threads = _check_integer(threads, "thread count")
    if isinstance(seed, Sequence) and not isinstance(seed, str):
        seed = [_check_integer(entry, "seed", low=0) for entry in seed]
    else:
        seed = _check_integer(seed, "seed", low=0)
    check_cell_budget(config)

    def one(stream: np.random.SeedSequence) -> np.ndarray:
        positions = sample_positions(config, stream)
        return spectrum(real_gram_matrix(config, positions))

    streams = np.random.SeedSequence(seed).spawn(trials)
    eigs = np.stack(ordered_map(one, streams, threads))
    return SpectrumSample(eigs, config, seed)


def empirical_moment(sample: SpectrumSample, p: int) -> float:
    """Average over trials of the p-th power mean of the spectrum."""
    p = _check_integer(p, "moment order")
    return float(np.mean(sample.eigenvalues**p))


def empirical_moment_std_error(sample: SpectrumSample, p: int) -> float:
    """Standard error over trials of the per-trial p-th moment."""
    p = _check_integer(p, "moment order")
    per_trial = np.mean(sample.eigenvalues**p, axis=1)
    if len(per_trial) < 2:
        return 0.0
    return float(per_trial.std(ddof=1) / np.sqrt(len(per_trial)))


def histogram(sample: SpectrumSample, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Pooled eigenvalue histogram normalized to unit mass; (edges, density)."""
    bins = _check_integer(bins, "bin count")
    density, edges = np.histogram(sample.eigenvalues.ravel(), bins=bins, density=True)
    return edges, density


def write_csv(path, header, rows) -> None:
    """A header line, then a line per row: a float as its repr, None as ""."""
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def resolve_shape(
    beta_target: float, d: int, size_budget: int
) -> tuple[int, int, float]:
    """Pick (M, rho) for a target aspect ratio under a row-count budget.

    The half-bandwidth is pushed to the budget first, then the vertex count
    minimizes the aspect-ratio error (ties broken toward fewer vertices);
    the achieved ratio is returned and is what Monte-Carlo comparisons
    should be run against.
    """
    size_budget = _check_integer(size_budget, "size budget")
    beta_target = _check_aspect_ratio(beta_target, "target aspect ratio")
    d = _check_integer(d, "dimension")
    if 3**d > size_budget:
        raise ValueError(
            f"size budget {size_budget} cannot fit the minimal grid at d={d}"
        )
    # the widest odd width 2M + 1 within the integer d-th root of the budget,
    # which Newton's iteration in integers reaches from a power of two above
    root = 1 << -(-size_budget.bit_length() // d)
    while (below := ((d - 1) * root + size_budget // root ** (d - 1)) // d) < root:
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
