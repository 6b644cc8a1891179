import csv
import math
import tracemalloc

import numpy as np
import pytest

import jittervan.mse as mse_module
from jittervan.ensemble import CELL_BUDGET, EnsembleConfig, resolve_shape, simulate
from jittervan.jitter import point_mass_half, uniform01
from jittervan.moments import mp_density, mp_support
from jittervan.mse import (
    MseCurve,
    lmmse_demo,
    mse_curve,
    mse_equally_spaced,
    mse_from_spectrum,
    mse_mp,
    snr_grid_db,
)


def mp_sample(beta: float, n: int, seed: int) -> np.ndarray:
    """Oracle sampler: inverse-CDF draws from the limiting density."""
    low, high = mp_support(beta)
    grid = np.linspace(low, high, 40001)
    pdf = mp_density(beta, grid)
    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    return np.interp(np.random.default_rng(seed).random(n), cdf, grid)


@pytest.mark.parametrize("snr", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda snr: mse_from_spectrum([0.0, 2.0], 0.5, snr),
        lambda snr: mse_equally_spaced(0.5, snr),
        lambda snr: mse_mp(1.0, snr),
        lambda snr: lmmse_demo(EnsembleConfig(1, 3, 10, uniform01()), snr, 0, draws=4),
    ],
    ids=["mse_from_spectrum", "mse_equally_spaced", "mse_mp", "lmmse_demo"],
)
def test_snr_must_be_finite_and_positive(call, snr):
    with pytest.raises(ValueError, match="signal-to-noise"):
        call(snr)


class TestSpectralAverage:
    def test_unit_spectrum(self):
        assert mse_from_spectrum(np.ones(7), 0.5, 3.0) == pytest.approx(0.5 / 3.5)

    def test_two_point_spectrum(self):
        assert mse_from_spectrum([0.0, 2.0], 1.0, 1.0) == pytest.approx(2 / 3)

    def test_vanishing_snr_limit(self):
        eigs = np.linspace(0, 3, 11)
        assert mse_from_spectrum(eigs, 0.7, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            mse_from_spectrum([], 0.5, 1.0)
        with pytest.raises(ValueError):
            mse_from_spectrum([1.0], 0.5, 0.0)

    def test_jensen_bound_on_generated_spectra(self):
        # any unit-mean spectrum does worse than the degenerate one
        config = EnsembleConfig(d=1, M=12, rho=30, dist=uniform01())
        sample = simulate(config, 5, 3)
        for snr in (0.1, 1.0, 10.0, 100.0):
            for trial in range(sample.trials):
                spectral = mse_from_spectrum(sample.eigenvalues[trial], config.beta, snr)
                assert spectral >= mse_equally_spaced(config.beta, snr) - 1e-12


class TestLimitingAverage:
    def test_vanishing_snr(self):
        assert mse_mp(0.5, 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_support_bounds(self):
        beta, snr = 0.729, 10.0
        low, high = mp_support(beta)
        value = mse_mp(beta, snr)
        assert beta / (snr * high + beta) < value < beta / (snr * low + beta)

    def test_matches_sampling_oracle(self):
        lam = mp_sample(0.2, 10**6, 0)
        oracle = np.mean(0.2 / (lam * 10.0 + 0.2))
        assert mse_mp(0.2, 10.0) == pytest.approx(oracle, abs=1e-3)

    def test_monotone_in_snr(self):
        values = [mse_mp(0.55, 10 ** (db / 10)) for db in range(-10, 31, 5)]
        assert values == sorted(values, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            mse_mp(0.5, -1.0)


class TestEquallySpaced:
    def test_reference_value(self):
        assert mse_equally_spaced(0.729, 0.001) == pytest.approx(
            0.729 / (0.001 + 0.729), abs=1e-12
        )
        assert mse_equally_spaced(0.729, 0.001) == pytest.approx(0.99863, abs=2e-5)

    def test_high_snr_limit(self):
        assert mse_equally_spaced(0.5, 1e12) < 1e-11

    def test_equals_unit_spectrum_average(self):
        for snr in (0.01, 1.0, 50.0):
            assert mse_equally_spaced(0.4, snr) == pytest.approx(
                mse_from_spectrum(np.ones(9), 0.4, snr), abs=1e-15
            )


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
        from jittervan.ensemble import sample_positions, sampling_matrix

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


@pytest.fixture(scope="module")
def small_curve() -> MseCurve:
    return mse_curve(
        0.729,
        [1, 2],
        snr_grid_db(-10, 30, 10),
        uniform01(),
        size_budget=500,
        trials=6,
        seed=3,
    )


class TestCurve:
    def test_grid_syntax(self):
        assert snr_grid_db(-10, 30, 10) == [-10, 0, 10, 20, 30]
        assert snr_grid_db(0, 1, 0.5) == [0, 0.5, 1.0]
        with pytest.raises(ValueError):
            snr_grid_db(0, 1, 0)

    @pytest.mark.parametrize(
        "parts", [(0, math.inf, 1), (-math.inf, 0, 1), (math.nan, 1, 1), (0, 1, math.inf)]
    )
    def test_grid_refuses_non_finite_parts(self, parts):
        with pytest.raises(ValueError, match="finite"):
            snr_grid_db(*parts)

    @pytest.mark.parametrize("step", [1e-300, 5e-324, 40 / CELL_BUDGET])
    def test_grid_refuses_more_points_than_the_cell_budget(self, step):
        # refused before the list is built, however small the step
        with pytest.raises(ValueError, match="points"):
            snr_grid_db(-10, 30, step)

    def test_grid_takes_the_cell_budget_in_points(self, monkeypatch):
        monkeypatch.setattr(mse_module, "CELL_BUDGET", 10)
        assert snr_grid_db(0, 9, 1) == list(range(10))
        with pytest.raises(ValueError, match="points"):
            snr_grid_db(0, 10, 1)

    def test_sources_present(self, small_curve):
        assert len(small_curve.rows("mp")) == 5
        assert len(small_curve.rows("equally_spaced")) == 5
        assert len(small_curve.rows("empirical", 1)) == 5
        assert len(small_curve.rows("empirical", 2)) == 5

    def test_values_in_unit_interval_and_monotone(self, small_curve):
        for source, d in (("empirical", 1), ("empirical", 2), ("mp", None), ("equally_spaced", None)):
            rows = small_curve.rows(source, d)
            values = [row.mse for row in rows]
            assert all(0 < v <= 1 for v in values)
            assert values == sorted(values, reverse=True)

    def test_reference_curves_bracket_empirical(self, small_curve):
        for d in (1, 2):
            for row in small_curve.rows("empirical", d):
                mp_row = [r for r in small_curve.rows("mp") if r.snr_db == row.snr_db][0]
                eq_row = [
                    r for r in small_curve.rows("equally_spaced") if r.snr_db == row.snr_db
                ][0]
                slack = 3 * row.std_err + 5e-3
                assert eq_row.mse <= row.mse + slack
                assert row.mse <= mp_row.mse + slack

    def test_low_snr_sources_agree(self, small_curve):
        lowest = min(r.snr_db for r in small_curve.points)
        values = [r.mse for r in small_curve.points if r.snr_db == lowest]
        assert max(values) - min(values) < 1e-2
        assert min(values) > 0.85

    def test_csv_round_trip(self, small_curve, tmp_path):
        path = tmp_path / "curve.csv"
        small_curve.write_csv(path)
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(small_curve.points)
        assert set(rows[0]) == {"snr_db", "source", "beta", "d", "mse", "std_err"}
        for parsed, point in zip(rows, small_curve.points):
            assert float(parsed["mse"]) == point.mse
            assert parsed["source"] == point.source

    @pytest.mark.parametrize("trials", [1, 6])
    def test_equals_per_trial_loop(self, trials):
        # the reference is the per-trial, per-SNR loop the broadcast replaced
        curve = mse_curve(0.729, [1, 2], snr_grid_db(-10, 30, 10), uniform01(), 500, trials, 3)
        for d in (1, 2):
            M, rho, beta = resolve_shape(0.729, d, 500)
            sample = simulate(EnsembleConfig(d, M, rho, uniform01()), trials, [3, d])
            for row in curve.rows("empirical", d):
                snr = 10 ** (row.snr_db / 10.0)
                per_trial = [mse_from_spectrum(e, beta, snr) for e in sample.eigenvalues]
                loop_err = np.std(per_trial, ddof=1) / np.sqrt(trials) if trials > 1 else 0.0
                assert row.beta == beta
                assert row.mse == pytest.approx(np.mean(per_trial), rel=1e-14, abs=0)
                assert row.std_err == pytest.approx(loop_err, rel=1e-14, abs=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            mse_curve(0.5, [], [0.0], uniform01())
        with pytest.raises(ValueError):
            mse_curve(0.5, [1], [], uniform01())

    @pytest.mark.parametrize("db", [4000.0, -4000.0, math.nan, math.inf])
    def test_refuses_an_snr_before_any_trial(self, monkeypatch, db):
        monkeypatch.setattr(
            mse_module, "simulate", lambda *_, **__: pytest.fail("simulate called")
        )
        with pytest.raises(ValueError, match="dB"):
            mse_curve(0.729, [1], [0.0, db], uniform01(), 100, 2)

    def test_temporaries_stay_within_the_cell_budget(self, monkeypatch):
        # one (trials x SNRs x rows) broadcast peaks at 6.4 MB here
        monkeypatch.setattr(mse_module, "CELL_BUDGET", 1 << 12)
        grid = snr_grid_db(-10, 30, 0.1)
        tracemalloc.start()
        try:
            mse_curve(0.729, [1], grid, uniform01(), 100, 10, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
