"""Argument refusals: every public entry point refuses a bad count, aspect
ratio or jitter law with a ValueError that names the argument, before it
does any work."""

import math

import numpy as np
import pytest

import jittervan.ensemble as ensemble_module
import jittervan.integrate as integrate_module
import jittervan.moments as moments_module
import jittervan.mse as mse_module
import jittervan.oracle as oracle_module
import jittervan.partitions as partitions_module
from jittervan.ensemble import (
    EnsembleConfig,
    SpectrumSample,
    histogram,
    resolve_shape,
    simulate,
)
from jittervan.errors import _check_integer
from jittervan.integrate import cf_integral, finite_grid_term, term_integral
from jittervan.jitter import JitterDistribution, uniform01
from jittervan.moments import moment, mp_moment, mp_support, narayana
from jittervan.mse import (
    lmmse_demo,
    mse_curve,
    mse_equally_spaced,
    mse_from_spectrum,
    mse_mp,
)
from jittervan.oracle import PhaseSumInstance, brute_trace_moment
from jittervan.partitions import (
    Partition,
    bell,
    enumerate_partitions,
    enumerate_partitions_k,
    stirling2,
)


def _trip(*args, **kwargs):
    raise AssertionError("work started before the argument was refused")


def tripped_law() -> JitterDistribution:
    """The uniform law's cf with a sampler that fails if it is ever called."""
    return JitterDistribution("tripped", uniform01().cf, _trip, True)


def config() -> EnsembleConfig:
    return EnsembleConfig(d=1, M=3, rho=10, dist=tripped_law())


@pytest.fixture
def tripwires(monkeypatch):
    """Make every enumeration, integral and draw fail if it starts."""
    for module, name in [
        (partitions_module, "_partitions"),
        (moments_module, "_pair_classes"),
        (integrate_module, "_pair_setup"),
        (integrate_module, "_evaluate"),
        (integrate_module, "delta_volume"),
        (ensemble_module, "sample_positions"),
        (mse_module, "sample_positions"),
        (mse_module, "simulate"),
        (oracle_module, "sample_positions"),
        (np, "histogram"),
    ]:
        monkeypatch.setattr(module, name, _trip)


PAIR = (Partition((1, 2)), Partition((1, 2)))  # fully pinned
CF_PAIR = (Partition((1, 2)), Partition((1, 1)))

#: (id, call, the argument's name in the message)
REFUSALS = [
    ("enumerate_partitions", lambda: enumerate_partitions(2.5), "order"),
    ("enumerate_partitions_k", lambda: enumerate_partitions_k(2.5, 1), "order"),
    ("enumerate_partitions_k_k", lambda: enumerate_partitions_k(3, 4), "block count"),
    ("stirling2", lambda: stirling2(2.5, 1), "order"),
    ("stirling2_k", lambda: stirling2(3, 0), "block count"),
    ("bell", lambda: bell(2.5), "order"),
    ("moment", lambda: moment(2.5, 0.5, 1, tripped_law()), "moment order"),
    ("moment_threads", lambda: moment(2, 0.5, 1, tripped_law(), threads=0), "thread count"),
    ("moment_bool_d", lambda: moment(2, 0.55, True, tripped_law()), "dimension"),
    ("moment_law", lambda: moment(2, 0.5, 1, "uniform"), "jitter law"),
    ("mp_moment", lambda: mp_moment(2.5, 0.5), "moment order"),
    ("narayana", lambda: narayana(2.5, 1), "order"),
    ("narayana_k", lambda: narayana(3, 4), "block count"),
    ("simulate", lambda: simulate(config(), 2.5, 0), "trial count"),
    ("simulate_threads", lambda: simulate(config(), 2, 0, threads=0), "thread count"),
    ("simulate_bool_trials", lambda: simulate(config(), True, 0), "trial count"),
    (
        "EnsembleConfig_bool",
        lambda: EnsembleConfig(d=True, M=True, rho=3, dist=tripped_law()),
        "dimension",
    ),
    ("EnsembleConfig_law", lambda: EnsembleConfig(1, 1, 3, "uniform"), "jitter law"),
    ("lmmse_demo", lambda: lmmse_demo(config(), 1.0, 0, draws=2.5), "draw count"),
    ("lmmse_demo_one_draw", lambda: lmmse_demo(config(), 1.0, 0, draws=1), "draw count"),
    ("brute_trace_moment", lambda: brute_trace_moment(config(), 2, 2.5, 0), "trial count"),
    ("sample", lambda: uniform01().sample(2.5, 0), "sample count"),
    (
        "histogram",
        lambda: histogram(SpectrumSample(np.ones((2, 3)), config(), 0), 2.5),
        "bin count",
    ),
    (
        "phase_sum_rho",
        lambda: PhaseSumInstance(Partition((1, 2)), ((1,), (-1,)), 2.5, 1),
        "vertex count",
    ),
    (
        "phase_sum_d",
        lambda: PhaseSumInstance(Partition((1, 2)), ((1,), (-1,)), 5, 2.5),
        "dimension",
    ),
    ("mse_equally_spaced_negative", lambda: mse_equally_spaced(-1.0, 1.0), "aspect ratio"),
    ("mse_equally_spaced_above", lambda: mse_equally_spaced(7.0, 1.0), "aspect ratio"),
    ("mse_from_spectrum", lambda: mse_from_spectrum([1, 1], -1.0, 1.0), "aspect ratio"),
    (
        "term_integral_pinned",
        lambda: term_integral(*PAIR, 7.0, 0, tripped_law()),
        "aspect ratio",
    ),
    (
        "term_integral_pinned_d",
        lambda: term_integral(*PAIR, 0.5, 0, tripped_law()),
        "dimension",
    ),
    (
        "mse_curve_d",
        lambda: mse_curve(0.5, [1, 2.5], [0.0], tripped_law(), trials=2),
        "dimension",
    ),
    (
        "mse_curve_empty_array",
        lambda: mse_curve(0.5, np.array([], dtype=int), [0.0], tripped_law()),
        "dimension",
    ),
    (
        "mse_curve_law",
        lambda: mse_curve(0.5, [1], [0.0], uniform01().cf, trials=2),
        "jitter law",
    ),
    ("resolve_shape_fraction", lambda: resolve_shape(0.5, 1, 100.7), "size budget"),
    ("resolve_shape_inf", lambda: resolve_shape(0.5, 1, math.inf), "size budget"),
    ("resolve_shape_nan", lambda: resolve_shape(0.5, 1, math.nan), "size budget"),
    (
        "mse_curve_size_budget",
        lambda: mse_curve(0.5, [1], [0.0], tripped_law(), size_budget=100.7, trials=2),
        "size budget",
    ),
    (
        "mse_curve_empty_snr_array",
        lambda: mse_curve(0.5, np.array([1]), np.array([]), tripped_law()),
        "SNR",
    ),
]


@pytest.mark.parametrize("call, name", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_count_refused(tripwires, call, name):
    with pytest.raises(ValueError, match=name):
        call()


#: (id, call taking beta, the argument's name in the message)
ASPECT_RATIO_CALLS = [
    ("moment", lambda b: moment(2, b, 1, tripped_law()), "aspect ratio"),
    ("mp_moment", lambda b: mp_moment(2, b), "aspect ratio"),
    ("mp_support", mp_support, "aspect ratio"),
    ("cf_integral", lambda b: cf_integral(*CF_PAIR, b, 1, tripped_law()), "aspect ratio"),
    ("term_integral", lambda b: term_integral(*CF_PAIR, b, 1, tripped_law()), "aspect ratio"),
    ("term_integral_pinned", lambda b: term_integral(*PAIR, b, 1, tripped_law()), "aspect ratio"),
    (
        "finite_grid_term",
        lambda b: finite_grid_term(*CF_PAIR, 2, b, 1, tripped_law()),
        "aspect ratio",
    ),
    ("mse_mp", lambda b: mse_mp(b, 1.0), "aspect ratio"),
    ("mse_equally_spaced", lambda b: mse_equally_spaced(b, 1.0), "aspect ratio"),
    ("mse_from_spectrum", lambda b: mse_from_spectrum([1.0, 1.0], b, 1.0), "aspect ratio"),
    ("resolve_shape", lambda b: resolve_shape(b, 1, 100), "target aspect ratio"),
    (
        "mse_curve",
        lambda b: mse_curve(b, [1], [0.0], tripped_law(), trials=2),
        "target aspect ratio",
    ),
]


@pytest.mark.parametrize("beta", [0.0, 1.5, math.nan])
@pytest.mark.parametrize(
    "call, name", [r[1:] for r in ASPECT_RATIO_CALLS], ids=[r[0] for r in ASPECT_RATIO_CALLS]
)
def test_aspect_ratio_refused(tripwires, call, name, beta):
    with pytest.raises(ValueError, match=name):
        call(beta)


class TestHelpers:
    @pytest.mark.parametrize("value", [0, 6, 2.5, np.float64(2.0), "3", None, True])
    def test_integer_refused(self, value):
        with pytest.raises(ValueError, match=r"count must be an integer in \[1, 5\], got"):
            _check_integer(value, "count", high=5)

    def test_lower_bound(self):
        _check_integer(2, "draw count", low=2)
        with pytest.raises(ValueError, match="draw count must be an integer >= 2, got 1"):
            _check_integer(1, "draw count", low=2)
