"""Tests of the independent references in ``jittervan.verify``: the complex
sampling matrix G, its Gram matrix and the estimator demo."""

import numpy as np
import pytest

from jittervan.ensemble import EnsembleConfig, frequency_vectors, sample_positions, spectrum
from jittervan.jitter import point_mass_half, uniform01
from jittervan.verify import gram_matrix, lmmse_demo, sampling_matrix
from test_ensemble import gathered_gram


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
        for build in (sampling_matrix, gathered_gram):
            with pytest.raises(ValueError):
                build(config, np.zeros((3, 1)))


class TestLmmseDemo:
    def test_half_cell_trace_is_closed_form(self):
        config = EnsembleConfig(d=1, M=5, rho=12, dist=point_mass_half())
        result = lmmse_demo(config, 5.0, seed=0, draws=50)
        assert result.trace_mse == pytest.approx(
            config.beta / (5.0 + config.beta), abs=1e-12
        )

    def test_empirical_matches_trace(self):
        config = EnsembleConfig(d=1, M=25, rho=102, dist=uniform01())
        result = lmmse_demo(config, 10.0, seed=2, draws=500)
        assert abs(result.empirical_mse - result.trace_mse) <= 3 * result.std_error

    def test_no_information_limit(self):
        config = EnsembleConfig(d=1, M=6, rho=20, dist=uniform01())
        result = lmmse_demo(config, 1e-6, seed=1, draws=100)
        # the estimate vanishes, so the empirical error is the mean power of
        # the drawn signal, rebuilt here from the signal's stream
        rng = np.random.default_rng(np.random.SeedSequence(1).spawn(2)[0])
        shape = (config.n_rows, 100)
        a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
        assert result.empirical_mse == pytest.approx(np.mean(np.abs(a) ** 2), abs=1e-3)
        assert result.trace_mse == pytest.approx(1.0, abs=1e-3)

    def test_trace_equals_error_covariance(self):
        # direct error-covariance trace against the eigenvalue form, M=5
        from jittervan.ensemble import sample_positions

        config = EnsembleConfig(d=1, M=5, rho=16, dist=uniform01())
        snr = 7.0
        positions = sample_positions(config, np.random.SeedSequence(4).spawn(2)[1])
        G = sampling_matrix(config, positions)
        n = G.shape[0]
        covariance = np.linalg.inv(np.eye(n) + snr * (G @ G.conj().T))
        direct = float(np.trace(covariance).real) / n
        result = lmmse_demo(config, snr, seed=4, draws=10)
        assert result.trace_mse == pytest.approx(direct, rel=1e-8)

    def test_signal_and_positions_draw_separate_streams(self, monkeypatch):
        # with one seed for both, the signal generator replayed the bits
        # that placed the samples: default_rng(7).random(8) were the offsets
        config = EnsembleConfig(d=1, M=2, rho=8, dist=uniform01())
        real_rng = np.random.default_rng
        seeds = []

        def recording_rng(seed=None):
            seeds.append(seed)
            return real_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        lmmse_demo(config, 5.0, seed=7, draws=4)
        monkeypatch.undo()
        assert len(seeds) == 2
        first, second = (real_rng(seed).random(8) for seed in seeds)
        assert not np.any(first == second)
        assert not np.any(real_rng(7).random(8) == first)

    def test_validation(self):
        config = EnsembleConfig(d=1, M=3, rho=10, dist=uniform01())
        with pytest.raises(ValueError):
            lmmse_demo(config, 0.0, seed=0)
        with pytest.raises(ValueError):
            lmmse_demo(config, 1.0, seed=0, draws=1)
