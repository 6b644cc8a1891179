import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

import jittervan.mse as mse_module
from jittervan.ensemble import CELL_BUDGET, EnsembleConfig, resolve_shape, simulate
from jittervan.jitter import uniform01
from jittervan.moments import mp_density, mp_support
from jittervan.mse import (
    MseCurve,
    mse_curve,
    mse_equally_spaced,
    mse_from_spectrum,
    mse_mp,
    snr_grid_db,
)
from jittervan.verify import lmmse_demo


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
        lambda snr: mse_from_spectrum([0.0, 2.0], 0.5, np.array([1.0, snr, 2.0])),
        lambda snr: mse_equally_spaced(0.5, snr),
        lambda snr: mse_mp(1.0, snr),
        lambda snr: lmmse_demo(EnsembleConfig(1, 3, 10, uniform01()), snr, 0, draws=4),
    ],
    ids=[
        "mse_from_spectrum",
        "mse_from_spectrum_vector",
        "mse_equally_spaced",
        "mse_mp",
        "lmmse_demo",
    ],
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

    @pytest.mark.parametrize("budget", [CELL_BUDGET, 100, 1])
    def test_vector_equals_scalar_calls(self, monkeypatch, budget):
        # a budget of 100 entries takes 3 SNRs per chunk of 33 eigenvalues
        # and 1 per chunk of 200; the reference is the plain 1-D mean
        monkeypatch.setattr(mse_module, "CELL_BUDGET", budget)
        rng = np.random.default_rng(5)
        snrs = 10 ** rng.uniform(-2, 3, 10)
        for size in (1, 33, 200):
            eigs = rng.exponential(size=size)
            vector = mse_from_spectrum(eigs, 0.6, snrs)
            scalars = [mse_from_spectrum(eigs, 0.6, snr) for snr in snrs]
            assert isinstance(vector, np.ndarray) and isinstance(scalars[0], float)
            assert vector.tolist() == scalars
            assert scalars == [float(np.mean(0.6 / (eigs * snr + 0.6))) for snr in snrs]

    def test_refuses_an_array_of_snr_arrays(self):
        with pytest.raises(ValueError, match="1-D"):
            mse_from_spectrum([1.0, 1.0], 0.5, np.ones((2, 2)))

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

    @pytest.mark.parametrize("snr", [5e-324, 1e-300, 1e-160, 1e300])
    @pytest.mark.parametrize("beta", [1e-6, 0.5, 1.0])
    def test_finite_in_unit_interval_at_extreme_snr(self, beta, snr):
        assert 0.0 <= mse_mp(beta, snr) <= 1.0

    def test_tiny_snr_leaves_no_information(self):
        assert mse_mp(0.5, 1e-160) == 1.0

    def test_matches_high_precision_closed_form(self):
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        with mpmath.workdps(30):
            for beta in [*np.geomspace(1e-6, 1, 61), 0.2, 0.55, 0.6, 0.729, 1 - 1e-9]:
                for db in range(-30, 61):
                    snr = 10.0 ** (db / 10.0)
                    exact_beta = mpmath.mpf(float(beta))
                    s = exact_beta / snr
                    b = s + 1 - exact_beta
                    exact = 2 * s / (b + mpmath.sqrt(b * b + 4 * exact_beta * s))
                    worst = max(worst, abs(mse_mp(float(beta), snr) / exact - 1))
        assert worst < 4e-16

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

    def test_array_takes_the_scalar_formula_per_entry(self):
        snrs = np.array([[1.0, 2.0], [1e-160, 1e300]])
        values = mse_mp(0.5, snrs)
        assert values.shape == snrs.shape
        assert values.tolist() == [[mse_mp(0.5, float(s)) for s in row] for row in snrs]
        pair = mse_mp(0.5, np.array([1.0, 2.0]))
        assert pair.tolist() == [mse_mp(0.5, 1.0), mse_mp(0.5, 2.0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            mse_mp(0.5, -1.0)
        with pytest.raises(ValueError):
            mse_mp(0.5, np.array([1.0, 0.0]))


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
        with pytest.raises(ValueError, match="has no points"):
            snr_grid_db(30, -10, 1)

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

    def test_sources_agree_at_vanishing_snr(self):
        curve = mse_curve(0.5, [1], [-1600.0], uniform01(), size_budget=49, trials=2)
        assert [r.mse for r in curve.points] == [1.0, 1.0, 1.0]

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

    def test_record_keeps_its_format(self, small_curve, tmp_path):
        # the explicit row and dict builders the dataclass record replaced
        path = tmp_path / "curve.csv"
        small_curve.write_csv(path)
        lines = ["snr_db,source,beta,d,mse,std_err"] + [
            f"{pt.snr_db!r},{pt.source},{pt.beta!r},{'' if pt.d is None else pt.d},"
            f"{pt.mse!r},{pt.std_err!r}"
            for pt in small_curve.points
        ]
        assert path.read_bytes() == "".join(line + "\r\n" for line in lines).encode()
        keys = ("snr_db", "source", "beta", "d", "mse", "std_err")
        dicts = [{key: getattr(pt, key) for key in keys} for pt in small_curve.points]
        assert json.dumps(small_curve.to_dicts()) == json.dumps(dicts)

    def test_numpy_inputs_write_the_same_bytes(self, tmp_path):
        grid = [-10.0, 0.0, 12.5]
        plain = mse_curve(0.729, [2, 1], grid, uniform01(), 100, 2, 3)
        scalars = mse_curve(
            np.float64(0.729), [np.int64(2), np.int64(1)], list(map(np.float64, grid)),
            uniform01(), 100, 2, 3,
        )
        arrays = mse_curve(np.float64(0.729), np.array([2, 1]), np.array(grid), uniform01(), 100, 2, 3)
        plain.write_csv(tmp_path / "plain.csv")
        for name, curve in (("scalars", scalars), ("arrays", arrays)):
            curve.write_csv(tmp_path / f"{name}.csv")
            assert (tmp_path / f"{name}.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
            assert json.dumps(curve.to_dicts()) == json.dumps(plain.to_dicts())

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

    @pytest.mark.parametrize(
        "db",
        [4000.0, -4000.0, math.nan, math.inf]
        + [pytest.param(np.float64(db), id=f"float64({db})") for db in (4000.0, -4000.0)],
    )
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
