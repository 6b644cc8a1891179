"""The library calls the scripts under bench/ make, at tiny sizes.

The benchmark worker, its tracing and the reference script call the
package with these argument shapes; the bench suite itself is not part of
the default test run, so a signature change that breaks them shows here.
"""

import importlib

import numpy as np

import jittervan as jv

#: The attributes the benchmark's tracing wraps, by submodule.  Tracing
#: skips a missing attribute, so a renamed layer would silently read 0.
TRACED_LAYERS = {
    "moments": ("moment", "term_integral", "enumerate_partitions_k"),
    "integrate": ("delta_volume", "cf_integral", "constraint_system"),
    "ensemble": ("sample_positions", "spectrum"),
    "mse": ("simulate", "mse_curve", "mse_from_spectrum", "mse_mp"),
}


def test_traced_layers_exist():
    for module, names in TRACED_LAYERS.items():
        namespace = importlib.import_module(f"jittervan.{module}")
        for name in names:
            assert callable(getattr(namespace, name, None)), f"{module}.{name}"


def test_moment_with_sampling_options():
    opts = jv.QmcOptions(points=2**8, replicates=4, seed=1, sampler="sobol")
    for law in ("uniform01", "triangular01"):
        result = jv.moments.moment(3, 0.55, 2, getattr(jv, law)(), opts, threads=1)
        assert result == jv.moment(3, 0.55, 2, getattr(jv, law)(), opts, threads=1)
        assert np.isfinite(result.value) and result.std_error >= 0


def test_law_rebuilt_through_the_constructor():
    law = jv.uniform01()
    rebuilt = jv.JitterDistribution(
        law.kind, law.cf, law.draw, symmetric_about_half=law.symmetric_about_half
    )
    assert rebuilt.kind == law.kind
    assert jv.moment(2, 0.55, 2, rebuilt).value == jv.moment(2, 0.55, 2, law).value
    # the rebuilt law takes the complex product and the built-in one the
    # real product, which agree to rounding
    for p in range(1, 6):
        gap = jv.moment(p, 0.55, 2, rebuilt).value - jv.moment(p, 0.55, 2, law).value
        assert abs(gap) <= 1e-13, p


def test_mse_curve_averages_each_trial_through_the_traced_layer(monkeypatch):
    calls = []
    average = jv.mse.mse_from_spectrum

    def counted(*args, **kwargs):
        calls.append(args)
        return average(*args, **kwargs)

    monkeypatch.setattr(jv.mse, "mse_from_spectrum", counted)
    jv.mse.mse_curve(0.729, [1, 2], [0.0, 10.0], jv.uniform01(), size_budget=49, trials=3)
    assert len(calls) == 3 * 2


def test_simulate_and_mse_curve():
    config = jv.EnsembleConfig(d=1, M=3, rho=10, dist=jv.uniform01())
    sample = jv.mse.simulate(config, 2, 5, 1)
    assert sample.trials == 2 and sample.eigenvalues.shape == (2, config.n_rows)

    snr_db = jv.snr_grid_db(-10.0, 30.0, 10.0)
    curve = jv.mse.mse_curve(
        0.729, [1, 2], snr_db, jv.uniform01(), size_budget=49, trials=2, seed=3, threads=1
    )
    for d in (1, 2):
        rows = curve.rows("empirical", d)
        assert sorted(row.snr_db for row in rows) == snr_db
        assert all(row.std_err >= 0 for row in rows)
    assert jv.mse_equally_spaced(0.5, 1.0) == 1 / 3
