"""Finite realizations of the jittered-grid ensemble and their spectra.

A configuration fixes the grid dimension d, the half-bandwidth M per
dimension and the vertex count rho per dimension; the sampling matrix G has
one row per frequency vector in [-M, M]^d and one unit-norm column per
grid cell, each cell holding a single position jittered around its center.
The scaled Gram matrix T = beta G G^H has unit diagonal by construction, so
its spectrum averages to one in every realization.

T[l, l'] = (beta / n_rows) conj c(l - l') depends on l - l' only, through
the lag sums c(m) = sum_q exp(2 pi i m.x_q) over m in [-2M, 2M]^d.  Storage
row n-1-j holds the frequency -l of row j, so the fixed unitary change of
basis U = ((1 + i) I + (1 - i) P) / 2, with P the row reversal, turns G
into the real Hartley form R = U G, whose rows are
cas(2 pi l.x) / sqrt(n_rows) = (cos + sin)(2 pi l.x) / sqrt(n_rows).
``simulate`` gathers beta R R^T, which has the spectrum of T and is one
Toeplitz-plus-Hankel lookup into the real and imaginary parts of the lag
sums, and solves it with a real symmetric eigensolve; no trial forms an
n_rows x n_cols matrix.  The gather writes only the upper triangle that
LAPACK's dsyevd reads and overwrites in place, into a buffer each running
trial reuses, whose rows each start a page, so a trial keeps about
0.73 n_rows^2 doubles resident (8.8 MB at n_rows = 1225), and at least a
page a row, and no other n_rows x n_rows array.
"""

from __future__ import annotations

import math
from ctypes import CDLL, c_char, c_int, c_int64, c_void_p
from dataclasses import dataclass
from functools import lru_cache
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
#: The Gram gather takes LAG_ENTRIES // (n_rows // 2) rows a block, so a
#: block of up to n_rows columns holds at most about twice as many entries.
#: At 2^11 (32 KB a table) the lag sums of the criterion-9 shapes peak
#: below 0.3 MB.
LAG_ENTRIES = 1 << 11

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
    """One jittered position per cell, shape n_cols x d, entries in [0, 1).

    ``seed`` is a ``np.random.SeedSequence`` or an integer >= 0; anything
    else, None included, is refused with ``ValueError``.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = _check_integer(seed, "seed", low=0)
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


def _block_rows(n: int) -> int:
    """Rows per block of ``_gather_upper`` into an n x n matrix.  A block
    writes from its first row's diagonal on, so each of its rows has fewer
    than this many entries written left of its diagonal."""
    h = n // 2
    return min(max(1, LAG_ENTRIES // h), h)


def _gather_upper(config: EnsembleConfig, positions: np.ndarray, T: np.ndarray):
    """Write the upper triangle of beta R R^T, the real Hartley form of
    T = beta G G^H, into T from lag sums, and return T; the strictly lower
    triangle is left as it was.

    Row j of R is cas(2 pi f_j.x) / sqrt(n) for the frequency f_j of storage
    row j.  Since cas a cas b = cos(a - b) + sin(a + b), entry (j, k) of
    beta R R^T is C(f_j - f_k) + S(f_j + f_k), with C and S the real and
    imaginary parts of ``lag_sums`` times beta / n, made exactly even and
    odd.  The flat lag index is affine in the lag, so the index of
    f_j +- f_k is s_j +- s_k plus that of the zero lag.  Rows are gathered
    straight into T in blocks of ``_block_rows(n)``.
    """
    M, d, n = config.M, config.d, config.n_rows
    L = 4 * M + 1
    zero = (L**d - 1) // 2
    s = frequency_vectors(M, d) @ L ** np.arange(d - 1, -1, -1)
    c = lag_sums(M, positions)
    scale = config.beta / n
    C = (c.real + c.real[::-1]) * (scale / 2)
    S = (c.imag - c.imag[::-1]) * (scale / 2)
    rows = _block_rows(n)
    for a in range(0, n, rows):
        row, col = s[a : a + rows, None] + zero, s[a:]
        # the indices lie in range; mode="clip" skips the bounds check
        C_diff = C.take(row - col, mode="clip")
        S_total = S.take(row + col, mode="clip")
        np.add(C_diff, S_total, out=T[a : a + rows, a:])
    return T


def _trial_buffer(n: int) -> np.ndarray:
    """An n x n view for ``_gather_upper`` into an anonymous mapping, in
    which every row's written run starts a page of its own.

    Rows lie lda = k PAGESIZE/8 - 1 >= n doubles apart, so the diagonal
    advances k pages a row, and the view begins as many doubles into the
    mapping as the gather's row blocks write left of the diagonal.  Unlike
    NumPy's own arrays, the mapping is not advised into huge pages, and it
    is advised out of them where they are ``always`` on, so its wider span
    faults in no whole huge page.
    """
    import mmap

    step = mmap.PAGESIZE // 8
    lda = -(-(n + 1) // step) * step - 1
    lead = _block_rows(n) - 1
    buffer = mmap.mmap(-1, 8 * (lead + n * lda))
    try:
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    except (AttributeError, OSError):  # no such advice, or no huge pages at all
        pass
    return np.frombuffer(buffer, offset=8 * lead, count=n * lda).reshape(n, lda)[:, :n]


def spectrum(T: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric or Hermitian matrix.

    ``T`` is left untouched.  A non-finite eigenvalue or one below the
    roundoff floor raises; tiny negatives are clipped to zero so
    downstream averages stay on [0, inf).
    """
    try:
        eigs = np.linalg.eigvalsh(T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver failed: {exc}") from exc
    return _checked_spectrum(eigs)


def _checked_spectrum(eigs: np.ndarray) -> np.ndarray:
    if not np.isfinite(eigs).all():
        raise NumericalError("eigensolver returned a non-finite eigenvalue")
    if eigs.min() < EIG_FLOOR:
        raise NumericalError(
            f"eigenvalue {eigs.min():.3e} below the PSD roundoff floor {EIG_FLOOR}"
        )
    return np.clip(eigs, 0.0, None)


@lru_cache(maxsize=None)
def _lapacke_dsyevd():
    """LAPACKE's dsyevd from the LAPACK ``numpy.linalg`` links, or None.

    NumPy's wheels link an ILP64 scipy-openblas, whose symbol carries its
    integer width in its name; no other name is tried, since a guessed
    width would corrupt the call.  ``CDLL`` releases the GIL during it.
    """
    try:
        routine = CDLL(np.linalg._umath_linalg.__file__).scipy_LAPACKE_dsyevd64_
    except (AttributeError, OSError):
        return None
    # layout, jobz, uplo, n, a, lda, w
    routine.argtypes = (c_int, c_char, c_char, c_int64, c_void_p, c_int64, c_void_p)
    routine.restype = c_int64
    return routine


def _spectrum_in_place(T: np.ndarray) -> np.ndarray:
    """``spectrum`` of the symmetric matrix whose upper triangle T holds,
    which it may overwrite.

    LAPACK reads T column-major, as T^T, and its lower triangle, with T's
    row stride as the leading dimension.  Without the LAPACKE routine this
    is ``spectrum(T.T)``, which reads the same.
    """
    dsyevd = _lapacke_dsyevd()
    if dsyevd is None:
        return spectrum(T.T)
    n = len(T)
    if (
        T.dtype != np.float64
        or T.shape != (n, n)
        or not (T.flags.aligned and T.flags.writeable)
        or T.strides[1] != 8
        or T.strides[0] < 8 * n
    ):
        raise ValueError(
            "in-place eigensolve needs an aligned, writeable, square float64 matrix "
            "whose rows are contiguous and do not overlap, got "
            f"{T.dtype} of shape {T.shape} and strides {T.strides}"
        )
    eigs = np.empty(n)
    # LAPACK_COL_MAJOR, eigenvalues only, lower triangle
    lda = T.strides[0] // 8
    info = dsyevd(102, b"N", b"L", n, T.ctypes.data, lda, eigs.ctypes.data)
    if info != 0:
        raise NumericalError(f"LAPACKE dsyevd failed with info {info}")
    return _checked_spectrum(eigs)


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

    Each running trial gathers into its own buffer, reused by later ones,
    and keeps about 0.73 n_rows^2 doubles resident (8.8 MB at n_rows = 1225),
    and at least a page a row.

    Trial t draws from child t of ``np.random.SeedSequence(seed)``, so runs
    are reproducible and trials can be distributed across workers without
    sharing generator state.  Runs share no trial unless their seeds differ
    only by trailing zero words, which ``SeedSequence`` ignores: 7, [7] and
    [7, 0] give the same trials, and so do 2**32 + 3 and [3, 1].  Before any
    draw it refuses, with ``ValueError``, a ``trials`` or ``threads`` that
    is no integer >= 1, a ``seed`` that is no integer >= 0 or non-empty
    sequence of them, and with ``BudgetError`` a sampling matrix of more
    than CELL_BUDGET entries.
    """
    trials = _check_integer(trials, "trial count")
    threads = _check_integer(threads, "thread count")
    if isinstance(seed, Sequence) and not isinstance(seed, str):
        if not seed:
            raise ValueError("seed sequence must not be empty")
        seed = [_check_integer(entry, "seed", low=0) for entry in seed]
    else:
        seed = _check_integer(seed, "seed", low=0)
    check_cell_budget(config)
    n, spare = config.n_rows, []

    def one(stream: np.random.SeedSequence) -> np.ndarray:
        positions = sample_positions(config, stream)
        try:
            T = spare.pop()
        except IndexError:
            T = _trial_buffer(n)
        eigs = _spectrum_in_place(_gather_upper(config, positions, T))
        spare.append(T)
        return eigs

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
