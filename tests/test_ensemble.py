import time

import numpy as np
import pytest

import jittervan.ensemble as ensemble_module
import jittervan.mse as mse_module
from jittervan import verify
from jittervan.ensemble import (
    EnsembleConfig,
    empirical_moment,
    empirical_moment_std_error,
    frequency_vectors,
    gram_matrix,
    histogram,
    real_sampling_matrix,
    resolve_shape,
    sample_positions,
    sampling_matrix,
    simulate,
    spectrum,
    vertex_vectors,
)
from jittervan.errors import BudgetError
from jittervan.jitter import point_mass_half, triangular01, uniform01
from jittervan.moments import moment
from jittervan.mse import lmmse_demo
from test_moments import two_point


def scanned_shape(beta_target, d, size_budget):
    """Brute-force reference for ``resolve_shape``: every vertex count from
    the grid width to just past width / beta^(1/d), fewest vertices winning
    unless another is better by 1e-15."""
    M = 1
    while (2 * (M + 1) + 1) ** d <= size_budget:
        M += 1
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

    def test_cell_budget(self):
        # 4097 x 4097 entries, twice CELL_BUDGET
        config = EnsembleConfig(d=1, M=2048, rho=4097, dist=uniform01())
        for build in (sampling_matrix, real_sampling_matrix):
            with pytest.raises(BudgetError):
                build(config, sample_positions(config, 0))
        with pytest.raises(BudgetError):
            simulate(config, 1, 0)

    def test_budget_refused_before_any_draw(self, monkeypatch):
        # 9 x 4e6 entries, over the budget: refused before any of the 4e6 draws
        config = EnsembleConfig(d=2, M=1, rho=2000, dist=uniform01())

        def refuse(*args, **kwargs):
            raise AssertionError("positions drawn before the budget check")

        monkeypatch.setattr(ensemble_module, "sample_positions", refuse)
        monkeypatch.setattr(mse_module, "sample_positions", refuse)
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


class TestMatrices:
    def test_zero_frequency_row_and_column_norms(self):
        config = EnsembleConfig(d=2, M=1, rho=4, dist=uniform01())
        G = sampling_matrix(config, sample_positions(config, 1))
        mid = (config.n_rows - 1) // 2
        assert not frequency_vectors(1, 2)[mid].any()
        assert np.allclose(G[mid], 1 / 3)
        assert np.allclose(np.sum(np.abs(G) ** 2, axis=0), 1.0, atol=1e-12)

    def test_half_cell_roots_of_unity_identity(self):
        config = EnsembleConfig(d=1, M=1, rho=3, dist=point_mass_half())
        G = sampling_matrix(config, sample_positions(config, 0))
        T = gram_matrix(G, config.beta)
        assert np.allclose(T, np.eye(3), atol=1e-12)

    def test_unit_diagonal_and_trace(self):
        config = EnsembleConfig(d=1, M=10, rho=30, dist=uniform01())
        G = sampling_matrix(config, sample_positions(config, 5))
        T = gram_matrix(G, config.beta)
        assert np.allclose(np.diag(T).real, 1.0, atol=1e-12)
        eigs = spectrum(T)
        assert eigs.sum() == pytest.approx(np.trace(T).real, rel=1e-8)
        assert eigs.min() >= 0.0

    def test_eigen_residuals(self):
        config = EnsembleConfig(d=1, M=8, rho=20, dist=uniform01())
        G = sampling_matrix(config, sample_positions(config, 9))
        T = gram_matrix(G, config.beta)
        values, vectors = np.linalg.eigh(T)
        norm = np.linalg.norm(T, 2)
        for idx in (0, len(values) // 2, len(values) - 1):
            residual = np.linalg.norm(T @ vectors[:, idx] - values[idx] * vectors[:, idx])
            assert residual <= 1e-8 * norm

    def test_global_shift_leaves_spectrum(self):
        config = EnsembleConfig(d=1, M=6, rho=20, dist=uniform01())
        positions = sample_positions(config, 7)
        base = spectrum(gram_matrix(sampling_matrix(config, positions), config.beta))
        shifted = (positions + 0.317) % 1.0
        moved = spectrum(gram_matrix(sampling_matrix(config, shifted), config.beta))
        assert np.allclose(base, moved, atol=1e-9)

    def test_positions_shape_checked(self):
        config = EnsembleConfig(d=1, M=2, rho=8, dist=uniform01())
        for build in (sampling_matrix, real_sampling_matrix):
            with pytest.raises(ValueError):
                build(config, np.zeros((3, 1)))


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

    def test_threads_match_serial(self):
        config = EnsembleConfig(d=1, M=4, rho=12, dist=uniform01())
        serial = simulate(config, 4, 2, threads=1)
        parallel = simulate(config, 4, 2, threads=3)
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

    def test_simulate_builds_no_complex_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("simulate built the complex sampling matrix")

        monkeypatch.setattr(ensemble_module, "sampling_matrix", refuse)
        config = EnsembleConfig(d=2, M=2, rho=7, dist=uniform01())
        assert simulate(config, 2, 0).eigenvalues.shape == (2, config.n_rows)

    def test_equals_unitary_change_of_basis(self):
        config = EnsembleConfig(d=2, M=1, rho=4, dist=uniform01())
        positions = sample_positions(config, 2)
        n, half = config.n_rows, config.n_rows // 2
        freq = frequency_vectors(config.M, config.d)
        # storage row n-1-j holds the frequency of row j negated
        assert np.array_equal(freq[::-1], -freq)
        QH = np.zeros((n, n), dtype=complex)
        for i, j in enumerate(range(half + 1, n)):
            QH[i, j] = QH[i, n - 1 - j] = 1 / np.sqrt(2)
            QH[half + i, j] = 1j / np.sqrt(2)
            QH[half + i, n - 1 - j] = -1j / np.sqrt(2)
        QH[n - 1, half] = 1.0
        assert np.allclose(QH @ QH.conj().T, np.eye(n), atol=1e-15)
        G = sampling_matrix(config, positions)
        R = real_sampling_matrix(config, positions)
        assert R.dtype == np.float64
        assert np.abs(QH @ G - R).max() < 1e-12

    def test_unit_columns_and_constant_row(self):
        config = EnsembleConfig(d=3, M=1, rho=5, dist=triangular01())
        R = real_sampling_matrix(config, sample_positions(config, 4))
        assert R.shape == (config.n_rows, config.n_cols)
        assert np.allclose(np.sum(R**2, axis=0), 1.0, atol=1e-12)
        assert np.all(R[-1] == 1 / np.sqrt(config.n_rows))


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
