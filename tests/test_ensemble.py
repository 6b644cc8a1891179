import concurrent.futures
import functools
import mmap
import os
import sys
import time
import tracemalloc

import numpy as np
import pytest

import jittervan._parallel as parallel_module
import jittervan.ensemble as ensemble_module
import jittervan.mse as mse_module
from jittervan import verify
from jittervan.ensemble import (
    EnsembleConfig,
    empirical_moment,
    empirical_moment_std_error,
    frequency_vectors,
    histogram,
    lag_sums,
    resolve_shape,
    sample_positions,
    simulate,
    spectrum,
    vertex_vectors,
)
from jittervan.errors import BudgetError, NumericalError
from jittervan.jitter import point_mass_half, triangular01, uniform01
from jittervan.moments import moment
from jittervan.verify import gram_matrix, lmmse_demo, sampling_matrix
from test_imports import fresh_python
from test_moments import two_point

#: (d, M, rho) of criterion 9: aspect ratio 0.729 under a budget of 1225 rows
CRITERION_9_SHAPES = [(d, *resolve_shape(0.729, d, 1225)[:2]) for d in (1, 2, 3)]

#: (d, M, rho) at which the gathered Gram matrix is checked
GRAM_SHAPES = CRITERION_9_SHAPES + [
    (1, 1, 3), (1, 7, 20), (2, 1, 3), (2, 2, 6), (3, 1, 4), (4, 1, 3), (4, 1, 4)
]


def gathered_gram(config, positions):
    """``_gather_upper`` into a new n x n array: the upper triangle of the
    real Gram matrix beta R R^T, the strictly lower one unset."""
    n = config.n_rows
    return ensemble_module._gather_upper(config, positions, np.empty((n, n)))


def real_sampling_matrix(config, positions):
    """Oracle for ``gathered_gram``: the real Hartley form R = U G itself.

    Storage row j holds cas(2 pi l.x) / sqrt(n) = (cos + sin)(2 pi l.x) / sqrt(n)
    for the frequency l of that row, so the middle row, l = 0, is the
    constant 1/sqrt(n).
    """
    angles = 2 * np.pi * (frequency_vectors(config.M, config.d) @ positions.T)
    return (np.cos(angles) + np.sin(angles)) / np.sqrt(config.n_rows)


def whole_matrix_gram(config, positions):
    """Oracle for ``gathered_gram``: the same gather over whole n x n
    index arrays at once.  It makes the same elementwise operations on the
    same values, so the row-block gather must equal it bit for bit."""
    M, d = config.M, config.d
    L = 4 * M + 1
    zero = (L**d - 1) // 2
    s = frequency_vectors(M, d) @ L ** np.arange(d - 1, -1, -1)
    c = lag_sums(M, positions)
    scale = config.beta / config.n_rows
    C = (c.real + c.real[::-1]) * (scale / 2)
    S = (c.imag - c.imag[::-1]) * (scale / 2)
    return C[s[:, None] - s + zero] + S[s[:, None] + s + zero]


def upper(T):
    """The upper triangle of T, diagonal included: what the gather writes."""
    return T[np.triu_indices(len(T))]


def huge_pages_always():
    """Whether the kernel backs every anonymous mapping with huge pages."""
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as handle:
            return "[always]" in handle.read()
    except OSError:
        return False


@functools.lru_cache(maxsize=None)
def trial_growth(d, *trial_counts):
    """VmHWM growth in a fresh process after simulate runs each count of
    trials in turn at the criterion-9 shape of dimension d, and T.nbytes
    there.  The child reads its own VmHWM, since ru_maxrss keeps this
    process's larger peak through the exec.  The memory tests that bound
    the same runs share one child."""
    return fresh_python(
        f"""
import json
import numpy.random
from jittervan.ensemble import EnsembleConfig, resolve_shape, simulate
from jittervan.jitter import uniform01

def peak():
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith("VmHWM:"))
    return int(line.split()[1]) * 1024

simulate(EnsembleConfig(d=1, M=3, rho=10, dist=uniform01()), 1, 0)
M, rho, _ = resolve_shape(0.729, {d}, 1225)
config = EnsembleConfig(d={d}, M=M, rho=rho, dist=uniform01())
before, grown = peak(), []
for trials in {list(trial_counts)}:
    simulate(config, trials, 0)
    grown.append(peak() - before)
print(json.dumps([grown, config.n_rows**2 * 8]))
"""
    )


def looped_half_bandwidth(d, size_budget):
    """Reference half-bandwidth: M grown one step at a time to the budget."""
    M = 1
    while (2 * (M + 1) + 1) ** d <= size_budget:
        M += 1
    return M


def scanned_shape(beta_target, d, size_budget):
    """Brute-force reference for ``resolve_shape``: every vertex count from
    the grid width to just past width / beta^(1/d), fewest vertices winning
    unless another is better by 1e-15."""
    M = looped_half_bandwidth(d, size_budget)
    width = 2 * M + 1
    best = None
    rho_hi = max(width, int(np.ceil(width / beta_target ** (1.0 / d))) + 2)
    for rho in range(width, rho_hi + 1):
        err = abs((width / rho) ** d - beta_target)
        if best is None or err < best[0] - 1e-15:
            best = (err, rho)
    return M, best[1], (width / best[1]) ** d


class TestIndexMaps:
    def test_vertex_round_trip(self):
        mats = vertex_vectors(3, 2)
        assert mats.shape == (9, 2)
        for mu in range(9):
            assert mu == sum(int(q) * 3**m for m, q in enumerate(mats[mu]))


class TestConfig:
    def test_derived_quantities(self):
        config = EnsembleConfig(d=2, M=3, rho=10, dist=uniform01())
        assert config.n_rows == 49
        assert config.n_cols == 100
        assert config.beta == pytest.approx(0.49)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(d=0, M=1, rho=3, dist=uniform01())
        with pytest.raises(ValueError):
            EnsembleConfig(d=1, M=0, rho=3, dist=uniform01())
        with pytest.raises(ValueError):
            EnsembleConfig(d=1, M=2, rho=4, dist=uniform01())  # beta > 1

    @pytest.mark.parametrize("M, rho", [(1.5, 5), (1, 4.5), (1.5, 4.5), (2.0, 7)])
    def test_non_integer_shape_refused(self, M, rho):
        # M = 1.5 and rho = 4.5 once gave n_rows 4.0 and failed in simulate
        with pytest.raises(ValueError, match="integer"):
            EnsembleConfig(d=1, M=M, rho=rho, dist=uniform01())

    def test_cell_budget(self):
        # 4097 x 4097 entries, twice CELL_BUDGET
        config = EnsembleConfig(d=1, M=2048, rho=4097, dist=uniform01())
        with pytest.raises(BudgetError):
            sampling_matrix(config, sample_positions(config, 0))
        with pytest.raises(BudgetError):
            simulate(config, 1, 0)

    def test_budget_refused_before_any_draw(self, monkeypatch):
        # 9 x 4e6 entries, over the budget: refused before any of the 4e6 draws
        config = EnsembleConfig(d=2, M=1, rho=2000, dist=uniform01())

        def refuse(*args, **kwargs):
            raise AssertionError("positions drawn before the budget check")

        monkeypatch.setattr(ensemble_module, "sample_positions", refuse)
        monkeypatch.setattr(verify, "sample_positions", refuse)
        with pytest.raises(BudgetError):
            simulate(config, 1, 0)
        with pytest.raises(BudgetError):
            lmmse_demo(config, 1.0, seed=0)


class TestPositions:
    def test_half_cell_grid(self):
        config = EnsembleConfig(d=1, M=1, rho=4, dist=point_mass_half())
        positions = sample_positions(config, 0)
        assert positions[:, 0].tolist() == [0.125, 0.375, 0.625, 0.875]

    def test_each_position_stays_in_its_cell(self):
        config = EnsembleConfig(d=2, M=1, rho=5, dist=uniform01())
        positions = sample_positions(config, 3)
        cells = vertex_vectors(5, 2)
        assert np.all(positions >= cells / 5)
        assert np.all(positions < (cells + 1) / 5)

    def test_mean_offset_half_cell(self):
        config = EnsembleConfig(d=1, M=2, rho=10, dist=uniform01())
        draws = np.array(
            [sample_positions(config, seed)[0, 0] for seed in range(20000)]
        )
        # mean is half a cell, 1/(2 rho); CLT bound at five sigma
        assert abs(draws.mean() - 0.05) < 5 * (0.1 / np.sqrt(12)) / np.sqrt(len(draws))


class TestSimulate:
    def test_half_cell_spectrum_is_all_ones(self):
        assert verify.half_cell_jitter_is_identity(0)

    def test_unit_first_moment(self):
        assert verify.unit_trace(1)

    def test_reproducible_and_trial_seeded(self):
        config = EnsembleConfig(d=1, M=4, rho=12, dist=uniform01())
        a = simulate(config, 3, 5)
        b = simulate(config, 3, 5)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        # trials spawn from one seed sequence, so neighbouring seeds share
        # no trial (with seed + t, trial 1 of seed 5 was trial 0 of seed 6)
        c = simulate(config, 3, 6)
        for left in a.eigenvalues:
            assert not any(np.allclose(left, right) for right in c.eigenvalues)

    def test_trailing_zero_words_name_one_stream(self):
        # SeedSequence ignores trailing zero words of its entropy
        config = EnsembleConfig(d=1, M=2, rho=7, dist=uniform01())
        for same in ([7, [7], [7, 0]], [2**32 + 3, [3, 1]]):
            runs = [simulate(config, 2, seed).eigenvalues for seed in same]
            assert all(np.array_equal(runs[0], run) for run in runs[1:]), same

    def test_threads_match_serial(self):
        config = EnsembleConfig(d=1, M=4, rho=12, dist=uniform01())
        serial = simulate(config, 4, 2, threads=1)
        parallel = simulate(config, 4, 2, threads=3)
        assert np.array_equal(serial.eigenvalues, parallel.eigenvalues)

    def test_no_two_running_trials_share_a_buffer(self, monkeypatch):
        # more workers than cores, switching threads every microsecond: a
        # buffer that two running trials shared would garble a spectrum
        monkeypatch.setattr(parallel_module, "_usable_cpus", lambda: 6)
        config = EnsembleConfig(d=1, M=40, rho=100, dist=uniform01())
        serial = simulate(config, 24, 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            parallel = simulate(config, 24, 3, threads=6)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(serial.eigenvalues, parallel.eigenvalues)

    def test_histogram_normalized(self):
        config = EnsembleConfig(d=1, M=10, rho=25, dist=uniform01())
        sample = simulate(config, 4, 3)
        edges, density = histogram(sample, 40)
        widths = np.diff(edges)
        assert (density * widths).sum() == pytest.approx(1.0)

    def test_half_cell_histogram_concentrates_at_one(self):
        config = EnsembleConfig(d=1, M=5, rho=15, dist=point_mass_half())
        sample = simulate(config, 2, 0)
        edges, density = histogram(sample, 11)
        widths = np.diff(edges)
        mass = density * widths
        centers = (edges[:-1] + edges[1:]) / 2
        near_one = np.abs(centers - 1.0) < 1e-6
        assert mass[near_one].sum() == pytest.approx(1.0)

    def test_validation(self):
        config = EnsembleConfig(d=1, M=2, rho=8, dist=uniform01())
        with pytest.raises(ValueError):
            simulate(config, 0, 1)
        sample = simulate(config, 2, 1)
        for p in (0, -1):
            with pytest.raises(ValueError):
                empirical_moment(sample, p)
            with pytest.raises(ValueError):
                empirical_moment_std_error(sample, p)
        with pytest.raises(ValueError):
            histogram(sample, 0)

    def test_one_trial_has_no_standard_error(self):
        sample = simulate(EnsembleConfig(d=1, M=2, rho=8, dist=uniform01()), 1, 1)
        assert empirical_moment(sample, 2) > 0
        assert empirical_moment_std_error(sample, 2) == 0.0


class TestThreadCap:
    """The worker count is min(threads, items, usable CPUs); a stub pool
    records it and maps serially, so no test starts a thread."""

    @pytest.fixture
    def pools(self, monkeypatch):
        created = []

        class SerialPool:
            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        return created

    @pytest.mark.parametrize(
        "threads, items, cpus, workers",
        [(100_000, 10, 3, 3), (2, 10, 3, 2), (100_000, 2, 8, 2), (8, 1, 8, None), (1, 5, 8, None)],
    )
    def test_workers_capped(self, pools, monkeypatch, threads, items, cpus, workers):
        monkeypatch.setattr(parallel_module, "_usable_cpus", lambda: cpus)
        out = parallel_module.ordered_map(lambda x: x * x, range(items), threads)
        assert out == [x * x for x in range(items)]
        assert pools == ([] if workers is None else [workers])

    def test_simulate_capped_at_usable_cpus(self, pools):
        config = EnsembleConfig(d=1, M=4, rho=12, dist=uniform01())
        capped = simulate(config, 4, 2, threads=100_000)
        cpus = parallel_module._usable_cpus()
        assert pools == ([] if cpus == 1 else [min(4, cpus)])
        assert np.array_equal(capped.eigenvalues, simulate(config, 4, 2).eigenvalues)

    def test_usable_cpus(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert parallel_module._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert parallel_module._usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert parallel_module._usable_cpus() == 1


class TestRealForm:
    @pytest.mark.parametrize("d,M,rho", [(1, 6, 20), (2, 2, 7), (3, 1, 4)])
    @pytest.mark.parametrize(
        "factory", [uniform01, triangular01, point_mass_half, two_point]
    )
    def test_spectra_match_complex_path(self, d, M, rho, factory):
        config = EnsembleConfig(d=d, M=M, rho=rho, dist=factory())
        sample = simulate(config, 3, 17)
        for t, stream in enumerate(np.random.SeedSequence(17).spawn(3)):
            G = sampling_matrix(config, sample_positions(config, stream))
            expected = spectrum(gram_matrix(G, config.beta))
            assert np.abs(sample.eigenvalues[t] - expected).max() < 1e-12

    def test_simulate_builds_no_complex_matrix(self):
        # the complex path lives in verify only, so simulate cannot reach it
        for name in ("sampling_matrix", "gram_matrix", "real_sampling_matrix"):
            assert not hasattr(ensemble_module, name), name
        assert not hasattr(mse_module, "lmmse_demo")
        config = EnsembleConfig(d=2, M=2, rho=7, dist=uniform01())
        assert simulate(config, 2, 0).eigenvalues.shape == (2, config.n_rows)

    @pytest.mark.parametrize(
        "d,M,rho", [(1, 40, 4000), (2, 4, 80), (3, 2, 16), (5, 1, 4)]
    )
    def test_simulate_allocates_less_than_a_sampling_matrix(self, d, M, rho):
        # numpy reports its buffers to tracemalloc; a real n_rows x n_cols
        # matrix alone would take n_rows * n_cols * 8 bytes.  At d = 5, M = 1
        # a block of 256 cells would give a Khatri-Rao table larger than that
        config = EnsembleConfig(d=d, M=M, rho=rho, dist=uniform01())
        tracemalloc.start()
        try:
            simulate(config, 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < config.n_rows * config.n_cols * 8

    def test_equals_unitary_change_of_basis(self):
        config = EnsembleConfig(d=2, M=1, rho=4, dist=uniform01())
        positions = sample_positions(config, 2)
        n = config.n_rows
        freq = frequency_vectors(config.M, config.d)
        # storage row n-1-j holds the frequency of row j negated
        assert np.array_equal(freq[::-1], -freq)
        P = np.eye(n)[::-1]
        U = ((1 + 1j) * np.eye(n) + (1 - 1j) * P) / 2
        assert np.allclose(U @ U.conj().T, np.eye(n), atol=1e-15)
        G = sampling_matrix(config, positions)
        R = real_sampling_matrix(config, positions)
        assert R.dtype == np.float64
        assert np.abs(U @ G - R).max() < 1e-12

    def test_unit_columns_and_constant_row(self):
        config = EnsembleConfig(d=3, M=1, rho=5, dist=triangular01())
        R = real_sampling_matrix(config, sample_positions(config, 4))
        assert R.shape == (config.n_rows, config.n_cols)
        assert np.allclose(np.sum(R**2, axis=0), 1.0, atol=1e-12)
        assert np.all(R[config.n_rows // 2] == 1 / np.sqrt(config.n_rows))


class TestLagSums:
    @pytest.mark.parametrize(
        "d,M,rho", [(1, 1, 3), (1, 7, 20), (1, 12, 30), (2, 2, 6), (3, 1, 4)]
    )
    def test_matches_the_direct_sum(self, d, M, rho):
        # at d = 1, M = 7 has 29 lags, so the last block of the split is
        # ragged; M = 12 has 49, a perfect square
        config = EnsembleConfig(d=d, M=M, rho=rho, dist=two_point())
        positions = sample_positions(config, 8)
        axis = np.arange(-2 * M, 2 * M + 1)
        lags = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), -1).reshape(-1, d)
        direct = np.exp(2j * np.pi * lags @ positions.T).sum(axis=1)
        assert np.abs(lag_sums(M, positions) - direct).max() < 1e-12 * config.n_cols

    @pytest.mark.parametrize("d,M,rho", GRAM_SHAPES)
    @pytest.mark.parametrize(
        "factory", [uniform01, triangular01, point_mass_half, two_point]
    )
    def test_gram_equals_the_real_product(self, d, M, rho, factory):
        # point_mass_half zeroes every lag sum but c(0); two_point's cf is not
        # real, so its sine sums S keep a nonzero mean
        config = EnsembleConfig(d=d, M=M, rho=rho, dist=factory())
        positions = sample_positions(config, 21)
        T = gathered_gram(config, positions)
        R = real_sampling_matrix(config, positions)
        assert np.abs(upper(T) - upper(config.beta * (R @ R.T))).max() < 1e-12

    @pytest.mark.parametrize("d,M,rho", GRAM_SHAPES)
    @pytest.mark.parametrize(
        "factory", [uniform01, triangular01, point_mass_half, two_point]
    )
    def test_gram_equals_the_whole_matrix_gather(self, d, M, rho, factory):
        # at M = 1 a block holds h = n // 2 rows, the cap, so the last holds
        # one; at the criterion-9 shape d = 3, n = 729 rows in blocks of 5
        # leave a ragged last block
        config = EnsembleConfig(d=d, M=M, rho=rho, dist=factory())
        positions = sample_positions(config, 21)
        T = gathered_gram(config, positions)
        assert np.array_equal(upper(T), upper(whole_matrix_gram(config, positions)))

    @pytest.mark.parametrize("d,M,rho", CRITERION_9_SHAPES)
    def test_gather_holds_no_second_matrix(self, d, M, rho):
        # the whole-matrix gather peaks at about 3 T.nbytes: its index and
        # value arrays of n x n entries each hold as many as T
        config = EnsembleConfig(d=d, M=M, rho=rho, dist=uniform01())
        positions = sample_positions(config, 21)
        tracemalloc.start()
        try:
            T = gathered_gram(config, positions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * T.nbytes

    def test_lag_sums_hold_little_beyond_their_result(self):
        # at the d = 2 criterion-9 shape the result holds 69^2 complex
        # entries (76 KB); each block's tables hold about LAG_ENTRIES more
        d, M, rho = CRITERION_9_SHAPES[1]
        config = EnsembleConfig(d=d, M=M, rho=rho, dist=uniform01())
        positions = sample_positions(config, 21)
        tracemalloc.start()
        try:
            lag_sums(M, positions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6


class TestInPlaceSolve:
    """``simulate`` solves each Gram matrix in place with LAPACKE's dsyevd
    and falls back to ``spectrum`` on a NumPy build without that routine."""

    # the criterion-9 shapes are compared through simulate below
    @pytest.mark.parametrize("d,M,rho", GRAM_SHAPES[len(CRITERION_9_SHAPES) :])
    @pytest.mark.parametrize("factory", [uniform01, triangular01])
    def test_equals_spectrum_of_a_copy(self, d, M, rho, factory):
        config = EnsembleConfig(d=d, M=M, rho=rho, dist=factory())
        T = gathered_gram(config, sample_positions(config, 33))
        full = np.triu(T) + np.triu(T, 1).T
        copy = full.copy()
        expected = spectrum(full)
        assert np.array_equal(copy, full)  # spectrum leaves its argument untouched
        assert np.array_equal(ensemble_module._spectrum_in_place(T), expected)

    @pytest.mark.parametrize("d,M,rho", GRAM_SHAPES)
    @pytest.mark.parametrize("lookup", ["lapacke", "fallback"])
    def test_reads_nothing_below_the_diagonal(self, monkeypatch, d, M, rho, lookup):
        if lookup == "fallback":
            monkeypatch.setattr(ensemble_module, "_lapacke_dsyevd", lambda: None)
        config = EnsembleConfig(d=d, M=M, rho=rho, dist=triangular01())
        positions = sample_positions(config, 35)
        T = gathered_gram(config, positions)
        T[np.tril_indices(config.n_rows, -1)] = np.nan
        R = real_sampling_matrix(config, positions)
        expected = np.linalg.eigvalsh(config.beta * (R @ R.T))
        assert np.abs(ensemble_module._spectrum_in_place(T) - expected).max() < 1e-12

    @pytest.mark.parametrize("d,M,rho", GRAM_SHAPES)
    @pytest.mark.parametrize("factory", [uniform01, triangular01])
    def test_fallback_matches_the_in_place_path(self, monkeypatch, d, M, rho, factory):
        config = EnsembleConfig(d=d, M=M, rho=rho, dist=factory())
        in_place = simulate(config, 1, 34)
        monkeypatch.setattr(ensemble_module, "_lapacke_dsyevd", lambda: None)
        fallback = simulate(config, 1, 34)
        assert np.array_equal(in_place.eigenvalues, fallback.eigenvalues)

    @pytest.mark.parametrize("d,M,rho", GRAM_SHAPES)
    @pytest.mark.parametrize("lookup", ["lapacke", "fallback"])
    def test_trial_buffer_starts_every_row_on_a_page(self, monkeypatch, d, M, rho, lookup):
        if lookup == "fallback":
            monkeypatch.setattr(ensemble_module, "_lapacke_dsyevd", lambda: None)
        config = EnsembleConfig(d=d, M=M, rho=rho, dist=triangular01())
        n = config.n_rows
        # a row block of the gather writes up to this many entries left of
        # the diagonal
        lead = ensemble_module._block_rows(n) - 1
        T = ensemble_module._trial_buffer(n)
        diagonal = T.ctypes.data + (T.strides[0] + 8) * np.arange(n)
        assert T.shape == (n, n)
        assert not ((diagonal - 8 * lead) % mmap.PAGESIZE).any()
        T[...] = np.nan
        ensemble_module._gather_upper(config, sample_positions(config, 36), T)
        assert (np.isnan(T).argmin(axis=1) >= np.arange(n) - lead).all()
        copy = np.ascontiguousarray(T)
        assert copy.flags.c_contiguous and not T.flags.c_contiguous
        assert np.array_equal(
            ensemble_module._spectrum_in_place(T), ensemble_module._spectrum_in_place(copy)
        )

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("lookup", ["lapacke", "fallback"])
    def test_refuses_a_non_finite_spectrum(self, monkeypatch, value, lookup):
        # eigvalsh and LAPACKE return NaN eigenvalues on the inf matrix;
        # LAPACKE refuses the NaN matrix with info -5
        if lookup == "fallback":
            monkeypatch.setattr(ensemble_module, "_lapacke_dsyevd", lambda: None)
        T = np.array([[1.0, value], [value, 1.0]])
        with pytest.raises(NumericalError):
            spectrum(T)
        with pytest.raises(NumericalError):
            ensemble_module._spectrum_in_place(T)

    @pytest.mark.parametrize("lookup", ["lapacke", "fallback"])
    def test_refuses_an_eigenvalue_below_the_floor(self, monkeypatch, lookup):
        if lookup == "fallback":
            monkeypatch.setattr(ensemble_module, "_lapacke_dsyevd", lambda: None)
        with pytest.raises(NumericalError, match="below the PSD roundoff floor"):
            spectrum(-np.eye(2))
        with pytest.raises(NumericalError, match="below the PSD roundoff floor"):
            ensemble_module._spectrum_in_place(-np.eye(2))

    @pytest.mark.parametrize("lookup", ["lapacke", "fallback"])
    def test_clips_a_roundoff_negative_to_zero(self, monkeypatch, lookup):
        assert ensemble_module.EIG_FLOOR < -1e-12
        if lookup == "fallback":
            monkeypatch.setattr(ensemble_module, "_lapacke_dsyevd", lambda: None)
        T = np.diag([-1e-12, 1.0])
        assert spectrum(T).tolist() == [0.0, 1.0]
        eigs = ensemble_module._spectrum_in_place(T)
        assert eigs.tolist() == [0.0, 1.0] and not np.signbit(eigs).any()

    @pytest.mark.parametrize(
        "T",
        [
            np.eye(3, dtype=np.float32),
            np.eye(3, dtype=complex),
            np.zeros((2, 3)),
            np.zeros((2, 2, 2)),
            np.asfortranarray(np.arange(9.0).reshape(3, 3)),
            np.eye(4)[::2, ::2],
            np.broadcast_to(np.eye(3), (3, 3)),
            np.frombuffer(bytearray(8 * 9 + 1), offset=1).reshape(3, 3),
            np.lib.stride_tricks.as_strided(np.zeros(9), (3, 3), (8, 8)),
        ],
        ids=[
            "float32", "complex", "wide", "stacked", "fortran", "strided", "read-only",
            "unaligned", "overlapping",
        ],
    )
    def test_refuses_a_matrix_it_cannot_overwrite(self, T):
        if ensemble_module._lapacke_dsyevd() is None:
            pytest.skip("this NumPy links no LAPACKE dsyevd")
        before = T.copy()
        with pytest.raises(ValueError, match="in-place eigensolve"):
            ensemble_module._spectrum_in_place(T)
        assert np.array_equal(T, before)

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM"
    )
    def test_trial_holds_one_gram_matrix(self):
        # at the criterion-9 shapes d = 1, n = 1225 and d = 3, n = 729: with
        # eigvalsh, which copies T, the peak grew by about 2 T.nbytes; at
        # n = 729 a row is 5.8 KB, so few pages lie wholly below the
        # diagonal and the buffer reads about 1.00 T.nbytes (1.03 to 1.08
        # with rows n doubles apart); d = 1 reads 0.79
        for d in (1, 3):
            (grown,), nbytes = trial_growth(d, 1)
            assert grown <= 1.5 * nbytes, (d, grown, nbytes)

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM"
    )
    @pytest.mark.skipif(
        huge_pages_always(), reason="every mapping faults in whole huge pages"
    )
    def test_trials_map_only_the_upper_triangle(self):
        # at the criterion-9 shapes d = 1 and 2, n = 1225: the pages that
        # hold only entries below the diagonal are never touched, and the
        # three trials reuse one buffer, so both read about 0.79 T.nbytes
        # (0.90 with rows n doubles apart), where a whole matrix, or a
        # buffer advised into huge pages, reads about 1.07
        for d in (1, 2):
            grown, nbytes = trial_growth(d, 1, 3)
            assert max(grown) <= 0.95 * nbytes, (d, grown, nbytes)

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM"
    )
    @pytest.mark.skipif(
        huge_pages_always(), reason="every mapping faults in whole huge pages"
    )
    def test_trial_rows_start_on_their_own_pages(self):
        # at the criterion-9 shapes d = 1 and 2, n = 1225: each row's written
        # run starts a page, so only its last page is partly empty, and one
        # trial and three read 0.79 T.nbytes; rows n doubles apart straddle
        # partial pages at both ends and read 0.90
        for d in (1, 2):
            grown, nbytes = trial_growth(d, 1, 3)
            assert max(grown) <= 0.85 * nbytes, (d, grown, nbytes)


class TestResolveShape:
    def test_full_aspect_ratio(self):
        M, rho, beta = resolve_shape(1.0, 2, 200)
        assert rho == 2 * M + 1 and beta == 1.0

    def test_near_target_one_dimension(self):
        M, rho, beta = resolve_shape(0.55, 1, 1024)
        assert (2 * M + 1) <= 1024
        assert abs(beta - 0.55) < 0.002

    def test_exact_cube(self):
        assert resolve_shape(0.729, 3, 1000) == (4, 10, pytest.approx(0.729))

    def test_exhaustive_optimality_small_budget(self):
        target, d, budget = 0.4, 1, 64
        M, rho, beta = resolve_shape(target, d, budget)
        width = 2 * M + 1
        assert width == 63  # largest odd width within the budget
        best = min(
            (abs(width / r - target), r) for r in range(width, width * 4)
        )
        assert abs(beta - target) == pytest.approx(best[0], abs=1e-15)

    # every budget that fits the minimal grid, short of a d = 1 width whose
    # reference scan would take minutes
    @pytest.mark.parametrize(
        "d, budget",
        [
            (d, budget)
            for d in (1, 2, 3, 4)
            for budget in (30, 200, 1000, 1225, 10**5)
            if 3**d <= budget and budget ** (1 / d) <= 2000
        ],
    )
    def test_matches_the_full_scan(self, d, budget):
        # with the criterion-9 and mc-spectrum targets 0.2, 0.6 and 0.729
        targets = np.concatenate([np.geomspace(1e-3, 1, 25), [0.2, 0.6, 0.729, 0.55, 1 / 3]])
        for target in targets:
            assert resolve_shape(target, d, budget) == scanned_shape(target, d, budget)

    def test_half_bandwidth_matches_the_loop(self):
        for d in (1, 2, 3, 4):
            for budget in range(1, 2000):
                if budget < 3**d:
                    with pytest.raises(ValueError, match="minimal grid"):
                        resolve_shape(0.5, d, budget)
                else:
                    assert resolve_shape(0.5, d, budget)[0] == looped_half_bandwidth(d, budget)

    def test_huge_budget_returns_at_once(self):
        # the loop over half-bandwidths would run 5e11 steps at d = 1
        start = time.perf_counter()
        shapes = [resolve_shape(0.5, d, 10**12) for d in (1, 2, 3)]
        assert time.perf_counter() - start < 0.5
        assert [M for M, _, _ in shapes] == [499999999999, 499999, 4999]

    def test_tiny_target_returns_at_once(self):
        # the scan over vertex counts would run 1e12 steps here
        start = time.perf_counter()
        M, rho, beta = resolve_shape(1e-9, 1, 1000)
        assert time.perf_counter() - start < 0.5
        assert M == 499 and abs(rho - 999 * 10**9) <= 2
        assert beta == pytest.approx(1e-9, rel=1e-11)

    def test_target_too_small_for_a_float_vertex_count(self):
        # width / target overflows to inf at d = 1: refused like the others
        with pytest.raises(ValueError, match="vertices"):
            resolve_shape(1e-320, 1, 1000)
        # the same target at d = 2 needs about 1e160 vertices, a finite count
        M, rho, beta = resolve_shape(1e-320, 2, 1000)
        assert rho > 10**159 and beta > 0

    def test_infeasible_budget(self):
        with pytest.raises(ValueError):
            resolve_shape(0.5, 2, 8)
        with pytest.raises(ValueError):
            resolve_shape(1.5, 1, 100)


class TestAgainstTheory:
    def test_moments_converge_with_bandwidth(self):
        analytic = {
            p: moment(p, 0.5, 1, uniform01()).value for p in (2, 3)
        }
        gaps = {2: [], 3: []}
        for M in (25, 50, 100):
            config = EnsembleConfig(d=1, M=M, rho=4 * M + 2, dist=uniform01())
            sample = simulate(config, 120, 11)
            for p in (2, 3):
                gaps[p].append(abs(empirical_moment(sample, p) - analytic[p]))
        for p in (2, 3):
            assert gaps[p][-1] < gaps[p][0]
            assert gaps[p][-1] < 0.01

    def test_second_moment_matches_at_moderate_size(self):
        config = EnsembleConfig(d=1, M=100, rho=402, dist=uniform01())
        sample = simulate(config, 80, 29)
        emp = empirical_moment(sample, 2)
        err = empirical_moment_std_error(sample, 2)
        ana = moment(2, config.beta, 1, uniform01())
        assert abs(emp - ana.value) <= 3 * err + 0.02
