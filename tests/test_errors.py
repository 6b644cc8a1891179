"""Argument refusals: every public entry point refuses a bad count, aspect
ratio or jitter law with a ValueError that names the argument, before it
does any work.  An accepted NumPy scalar or Fraction is computed with as the
Python int or float it equals."""

import dataclasses
import json
import math
import numbers
from fractions import Fraction

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
    check_cell_budget,
    histogram,
    resolve_shape,
    simulate,
)
from jittervan.errors import BudgetError, _check_integer
from jittervan.integrate import cf_integral, finite_grid_term, term_integral
from jittervan.jitter import JitterDistribution, uniform01
from jittervan.moments import (
    clear_term_cache,
    convergence_report,
    moment,
    mp_moment,
    mp_support,
    narayana,
)
from jittervan.mse import (
    lmmse_demo,
    mse_curve,
    mse_equally_spaced,
    mse_from_spectrum,
    mse_mp,
    snr_grid_db,
)
from jittervan.oracle import (
    PhaseSumInstance,
    brute_trace_moment,
    distinct_label_sum,
    instance_from_labels,
)
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
        (integrate_module, "constraint_system"),
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
    ("cf_integral_law", lambda: cf_integral(*CF_PAIR, 0.5, 1, "uniform"), "jitter law"),
    ("term_integral_law", lambda: term_integral(*CF_PAIR, 0.5, 1, "uniform"), "jitter law"),
    (
        "term_integral_pinned_law",
        lambda: term_integral(*PAIR, 0.5, 1, "uniform"),
        "jitter law",
    ),
    (
        "finite_grid_term_law",
        lambda: finite_grid_term(*CF_PAIR, 2, 0.5, 1, "uniform"),
        "jitter law",
    ),
    ("mp_moment", lambda: mp_moment(2.5, 0.5), "moment order"),
    ("narayana", lambda: narayana(2.5, 1), "order"),
    ("narayana_k", lambda: narayana(3, 4), "block count"),
    ("simulate", lambda: simulate(config(), 2.5, 0), "trial count"),
    ("simulate_threads", lambda: simulate(config(), 2, 0, threads=0), "thread count"),
    ("simulate_bool_trials", lambda: simulate(config(), True, 0), "trial count"),
    ("simulate_bool_seed", lambda: simulate(config(), 1, True), "seed"),
    ("simulate_string_seed", lambda: simulate(config(), 1, "a"), "seed"),
    ("simulate_negative_seed_entry", lambda: simulate(config(), 1, [1, -2]), "seed"),
    (
        "EnsembleConfig_bool",
        lambda: EnsembleConfig(d=True, M=True, rho=3, dist=tripped_law()),
        "dimension",
    ),
    ("EnsembleConfig_law", lambda: EnsembleConfig(1, 1, 3, "uniform"), "jitter law"),
    ("lmmse_demo", lambda: lmmse_demo(config(), 1.0, 0, draws=2.5), "draw count"),
    ("lmmse_demo_one_draw", lambda: lmmse_demo(config(), 1.0, 0, draws=1), "draw count"),
    ("lmmse_demo_string_seed", lambda: lmmse_demo(config(), 1.0, "x", draws=2), "seed"),
    ("brute_trace_moment", lambda: brute_trace_moment(config(), 2, 2.5, 0), "trial count"),
    ("brute_trace_moment_seed", lambda: brute_trace_moment(config(), 2, 2, -1), "seed"),
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
        "mse_curve_bool_seed",
        lambda: mse_curve(0.5, [1], [0.0], tripped_law(), 9, 2, seed=True),
        "seed",
    ),
    (
        "mse_curve_list_seed",
        lambda: mse_curve(0.5, [1], [0.0], tripped_law(), 9, 2, seed=[1, 2]),
        "seed",
    ),
    (
        "mse_curve_negative_seed",
        lambda: mse_curve(0.5, [1], [0.0], tripped_law(), 9, 2, seed=-3),
        "seed",
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
    ("mse_mp_bool_snr", lambda: mse_mp(0.5, True), "signal-to-noise ratio"),
    (
        "mse_equally_spaced_bool_snr",
        lambda: mse_equally_spaced(0.5, True),
        "signal-to-noise ratio",
    ),
    (
        "mse_from_spectrum_string_snr",
        lambda: mse_from_spectrum([1.0], 0.5, "2"),
        "signal-to-noise ratio",
    ),
    (
        "mse_from_spectrum_bool_among_snrs",
        lambda: mse_from_spectrum([1.0], 0.5, [1.0, True]),
        "signal-to-noise ratio",
    ),
    (
        "lmmse_demo_bool_snr",
        lambda: lmmse_demo(config(), True, 0, draws=2),
        "signal-to-noise ratio",
    ),
    (
        "mse_curve_string_db",
        lambda: mse_curve(0.5, [1], ["3", 0.0], tripped_law(), 9, 2),
        "dB value",
    ),
    (
        "mse_curve_bool_db",
        lambda: mse_curve(0.5, [1], [3.0, True], tripped_law(), 9, 2),
        "dB value",
    ),
    ("snr_grid_db_start", lambda: snr_grid_db(True, 2.0, 1.0), "dB grid start"),
    ("snr_grid_db_stop", lambda: snr_grid_db(0.0, "2", 1.0), "dB grid stop"),
    ("snr_grid_db_step", lambda: snr_grid_db(0.0, 2.0, True), "dB grid step"),
    (
        "phase_sum_offset",
        lambda: PhaseSumInstance(Partition((1, 2)), ((0.5,), (-0.5,)), 5, 1),
        "offset",
    ),
    (
        "phase_sum_bool_offset",
        lambda: PhaseSumInstance(Partition((1, 2)), ((True,), (-1,)), 5, 1),
        "offset",
    ),
    (
        "instance_from_labels_offset",
        lambda: instance_from_labels(Partition((1, 2)), [[0.5], [1.7]], 5),
        "offset",
    ),
    (
        "instance_from_labels_bool_offset",
        lambda: instance_from_labels(Partition((1, 2)), np.array([[True], [False]]), 5),
        "offset",
    ),
]


@pytest.mark.parametrize("call, name", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_count_refused(tripwires, call, name):
    with pytest.raises(ValueError, match=name):
        call()


#: (id, function, arguments) with every count a Python int and every aspect
#: ratio, SNR or dB value a Python float, lists included
PYTHON_NUMBER_CALLS = [
    ("moment", moment, (3, 0.55, 2, uniform01())),
    ("cf_integral", cf_integral, (*CF_PAIR, 0.55, 2, uniform01())),
    ("term_integral", term_integral, (*CF_PAIR, 0.55, 2, uniform01())),
    ("term_integral_pinned", term_integral, (*PAIR, 0.55, 2, uniform01())),
    ("finite_grid_term", finite_grid_term, (*CF_PAIR, 3, 0.55, 2, uniform01())),
    ("mp_moment", mp_moment, (70, 0.55)),
    ("narayana", narayana, (70, 35)),
    ("stirling2", stirling2, (40, 20)),
    ("bell", bell, (30,)),
    ("enumerate_partitions", enumerate_partitions, (4,)),
    ("enumerate_partitions_k", enumerate_partitions_k, (4, 2)),
    ("resolve_shape", resolve_shape, (0.55, 2, 100)),
    ("mse_mp", mse_mp, (0.55, 10.0)),
    ("mse_equally_spaced", mse_equally_spaced, (0.55, 10.0)),
    ("mse_from_spectrum", mse_from_spectrum, ([0.5, 1.5], 0.55, 10.0)),
    ("mse_from_spectrum_vector", mse_from_spectrum, ([0.5, 1.5], 0.55, [1.0, 10.0])),
    ("snr_grid_db", snr_grid_db, (-10.0, 30.0, 5.0)),
    ("PhaseSumInstance", PhaseSumInstance, (Partition((1, 2, 3)), [[2], [-1], [4]], 5, 1)),
    # beta_target, d_list, dB values, law, size_budget, trials, seed, threads
    ("mse_curve", mse_curve, (0.5, [1, 2], [0.0, 10.0], uniform01(), 9, 2, 0, 1)),
]

#: (id, type of every count, type of every ratio, SNR and dB value)
NUMBER_TYPES = [
    ("int64", np.int64, float),
    ("int32", np.int32, float),
    ("float32", int, np.float32),
    ("float64", int, np.float64),
    ("Fraction", int, Fraction),
]


def converted(value, count, ratio):
    """``value`` with each int passed through ``count`` and each float
    through ``ratio``, list items included."""
    if isinstance(value, list):
        return [converted(item, count, ratio) for item in value]
    if isinstance(value, int):
        return count(value)
    if isinstance(value, float):
        return ratio(value)
    return value


def plain(value):
    """The Python int or float that a number equals, list items included."""
    if isinstance(value, list):
        return [plain(item) for item in value]
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    return value


def assert_same(got, want, where):
    """Equal in value and in type, through records, tuples, lists and arrays."""
    assert type(got) is type(want), (where, got, want)
    if dataclasses.is_dataclass(got):
        got, want = ([getattr(r, f.name) for f in dataclasses.fields(r)] for r in (got, want))
    if isinstance(got, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want), where
    elif isinstance(got, (tuple, list)):
        assert len(got) == len(want), where
        for a, b in zip(got, want):
            assert_same(a, b, where)
    else:
        assert got == want, (where, got, want)


def clear_memos():
    """Empty the memos keyed by argument values."""
    stirling2.cache_clear()
    clear_term_cache()


@pytest.fixture
def fresh_memos():
    """Clear the memos before and after, so that a value computed from a
    wrapped NumPy integer cannot outlive its test."""
    clear_memos()
    yield
    clear_memos()


@pytest.mark.parametrize(
    "count, ratio", [t[1:] for t in NUMBER_TYPES], ids=[t[0] for t in NUMBER_TYPES]
)
def test_numbers_compute_as_the_python_number_they_equal(fresh_memos, count, ratio):
    for where, function, args in PYTHON_NUMBER_CALLS:
        given = converted(list(args), count, ratio)
        clear_memos()
        want = function(*plain(given))
        clear_memos()
        assert_same(function(*given), want, where)


def test_records_of_numpy_arguments_serialise(fresh_memos):
    law = uniform01()
    result = moment(np.int64(2), np.float32(0.55), np.int64(2), law)
    json.dumps(result.to_dict())
    curve = mse_curve(
        np.float32(0.5), [np.int64(1)], [np.float32(3.0)], law, np.int64(9), np.int64(2)
    )
    json.dumps(curve.to_dicts())
    rows = convergence_report(2, np.float32(0.55), np.arange(1, 3), law)
    json.dumps([(row.d, row.mp, row.gap, row.moment.to_dict()) for row in rows])


class TestWrappedBudgets:
    """Budgets that a product of NumPy integers would wrap around."""

    def test_finite_grid_nodes(self):
        five, one = Partition((1, 2, 3, 4, 5)), Partition((1, 1, 1, 1, 1))
        with pytest.raises(BudgetError, match="nodes"):
            finite_grid_term(five, one, np.int64(10000), 0.5, 1, uniform01())

    def test_cell_budget(self):
        # 7^5 x 8192^5 entries: only the budget check may ever see this shape
        config = EnsembleConfig(
            d=np.int64(5), M=np.int64(3), rho=np.int64(8192), dist=uniform01()
        )
        with pytest.raises(BudgetError, match="cell budget"):
            check_cell_budget(config)
        assert (config.n_rows, config.n_cols) == (7**5, 8192**5)

    def test_phase_sum_tuples(self):
        vectors = ((1, 0, 0, 0, 0), (-1, 0, 0, 0, 0))
        instance = PhaseSumInstance(Partition((1, 2)), vectors, np.int64(8192), np.int64(5))
        assert instance.r == 8192**5
        with pytest.raises(BudgetError, match="tuples"):
            distinct_label_sum(instance)


def test_stirling_memo_stays_exact(fresh_memos):
    def explicit(p, k):
        terms = ((-1) ** j * math.comb(k, j) * (k - j) ** p for j in range(k + 1))
        return sum(terms) // math.factorial(k)

    assert stirling2(np.int64(40), np.int64(20)) == explicit(40, 20)
    assert stirling2(40, 20) == explicit(40, 20)
    stirling2(np.int64(30), np.int64(12))
    assert bell(30) == 846_749_014_511_809_332_450_147


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


# Fraction(1, 10**400) is in (0, 1] but rounds to 0.0 as a float; a bool
# and a string are no ratio
@pytest.mark.parametrize("beta", [0.0, 1.5, math.nan, Fraction(1, 10**400), True, "0.5"])
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
