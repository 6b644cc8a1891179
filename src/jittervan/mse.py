"""Linear-reconstruction error from the ensemble spectrum.

The per-coefficient error of the linear minimum mean-square estimator is
the spectral average of beta / (lambda * snr + beta).  The module computes
it from empirical spectra, from the Marchenko-Pastur limit, and for the
exactly equally spaced placement (all eigenvalues one), and carries an
end-to-end estimator demo that validates the trace identity by direct
simulation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .ensemble import (
    CELL_BUDGET,
    EnsembleConfig,
    check_cell_budget,
    gram_matrix,
    resolve_shape,
    sample_positions,
    sampling_matrix,
    simulate,
    spectrum,
    write_csv,
)
from .errors import (
    NumericalError,
    _check_aspect_ratio,
    _check_integer,
    _check_law,
    _check_real,
)
from .jitter import JitterDistribution


def _check_snr(snr):
    """Return an SNR as a float, or SNRs as a float64 array, all finite and > 0;
    refuse a bool or a string, alone or among the SNRs."""
    if not (isinstance(snr, np.ndarray) and snr.dtype.kind in "iuf"):
        for value in np.asarray(snr, dtype=object).flat:
            _check_real(value, "signal-to-noise ratio")
    values = np.asarray(snr, dtype=float)
    bad = values[~((values > 0) & (values < math.inf))]
    if bad.size:
        raise ValueError(f"signal-to-noise ratio must be finite and > 0, got {bad[0]}")
    return float(values) if values.ndim == 0 else values


def mse_from_spectrum(eigenvalues, beta: float, snr):
    """Mean of beta / (lambda * snr + beta) over a nonnegative spectrum.

    ``snr`` is one SNR, which gives a float, or a 1-D array of them, which
    gives an array.  The SNRs go through in chunks whose temporaries hold
    at most CELL_BUDGET entries.
    """
    eigs = np.asarray(eigenvalues, dtype=float).ravel()
    if eigs.size == 0:
        raise ValueError("cannot average over an empty spectrum")
    beta = _check_aspect_ratio(beta)
    snrs = np.atleast_1d(_check_snr(snr))
    if snrs.ndim > 1:
        raise ValueError(f"need one SNR or a 1-D array of them, got shape {snrs.shape}")
    chunk = max(1, CELL_BUDGET // eigs.size)
    mse = np.empty(len(snrs))
    for start in range(0, len(snrs), chunk):
        part = snrs[start : start + chunk, None]
        mse[start : start + chunk] = np.mean(beta / (eigs * part + beta), axis=1)
    return float(mse[0]) if np.ndim(snr) == 0 else mse


def mse_equally_spaced(beta: float, snr: float) -> float:
    """Error for the degenerate unit spectrum: beta / (snr + beta)."""
    beta = _check_aspect_ratio(beta)
    snr = _check_snr(snr)
    return beta / (snr + beta)


def mse_mp(beta: float, snr: float) -> float:
    """Error under the Marchenko-Pastur spectrum, in closed form.

    With s = beta / snr the error is s * m(-s), where m is the Stieltjes
    transform of the limit, the root of beta z m^2 + (z - 1 + beta) m + 1 = 0
    (the eta-transform of Tulino and Verdu, Random Matrix Theory and
    Wireless Communications, 2004).  At z = -s the positive root is taken in
    its Vieta form, divided through by s: 2 / (c + hypot(c, 2 sqrt(snr))),
    c = 1 + (1 - beta) snr / beta.  It sums positive terms only, so no digits
    cancel, and no square overflows at any SNR.
    """
    beta = _check_aspect_ratio(beta)
    snr = _check_snr(snr)
    c = 1.0 + (1.0 - beta) * snr / beta
    return 2.0 / (c + math.hypot(c, 2.0 * math.sqrt(snr)))


class LmmseResult(NamedTuple):
    """Direct estimator error against the spectral trace formula."""

    empirical_mse: float
    trace_mse: float
    std_error: float
    draws: int


def lmmse_demo(
    config: EnsembleConfig, snr: float, seed: int, draws: int = 400
) -> LmmseResult:
    """Estimate harmonics from noisy samples and compare with the trace.

    Positions are drawn once; the positions and the signal come from two
    children of ``np.random.SeedSequence(seed)``.  Spectrum vectors are
    standard complex Gaussian, noise variance is 1/snr per sample
    (unit-norm matrix columns make the per-sample signal power one).
    Conditionally on the positions the trace value is the exact estimator
    error, so the empirical average converges to it as the draw count
    grows.
    """
    snr = _check_snr(snr)
    seed = _check_integer(seed, "seed", low=0)
    draws = _check_integer(draws, "draw count", low=2)
    check_cell_budget(config)
    signal_seed, positions_seed = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(signal_seed)
    positions = sample_positions(config, positions_seed)
    G = sampling_matrix(config, positions)
    n, r = G.shape
    beta = config.beta

    T = gram_matrix(G, beta)
    trace_mse = mse_from_spectrum(spectrum(T), beta, snr)

    sigma2 = 1.0 / snr
    system = T / beta + sigma2 * np.eye(n)
    shape_a = (n, draws)
    shape_n = (r, draws)
    a = (rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)) / np.sqrt(2)
    noise = (
        (rng.standard_normal(shape_n) + 1j * rng.standard_normal(shape_n))
        * np.sqrt(sigma2 / 2)
    )
    observed = G.conj().T @ a + noise
    try:
        estimate = np.linalg.solve(system, G @ observed)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"estimator solve failed: {exc}") from exc
    per_draw = np.mean(np.abs(estimate - a) ** 2, axis=0)
    empirical = float(per_draw.mean())
    std_error = float(per_draw.std(ddof=1) / np.sqrt(draws))
    return LmmseResult(empirical, trace_mse, std_error, draws)


@dataclass(frozen=True)
class MsePoint:
    snr_db: float
    source: str
    beta: float
    d: int | None
    mse: float
    std_err: float


@dataclass(frozen=True)
class MseCurve:
    """Error-versus-SNR table for empirical, limiting and ideal spectra."""

    beta_target: float
    jitter: str
    points: tuple[MsePoint, ...]

    def rows(self, source: str, d: int | None = None) -> list[MsePoint]:
        return [
            pt
            for pt in self.points
            if pt.source == source and (d is None or pt.d == d)
        ]

    def to_dicts(self) -> list[dict]:
        return [asdict(pt) for pt in self.points]

    def write_csv(self, path) -> None:
        """One row per point."""
        write_csv(path, (f.name for f in fields(MsePoint)), map(astuple, self.points))


def snr_grid_db(start: float = -10.0, stop: float = 30.0, step: float = 1.0) -> list[float]:
    """Inclusive dB grid matching the start:stop:step CLI syntax, of one to
    CELL_BUDGET points."""
    start = _check_real(start, "dB grid start")
    stop = _check_real(stop, "dB grid stop")
    step = _check_real(step, "dB grid step")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"dB grid parts must be finite, got {start}:{stop}:{step}")
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    span = (stop - start) / step + 1e-9
    if span < 0:
        raise ValueError(f"dB grid {start}:{stop}:{step} has no points")
    if span >= CELL_BUDGET:
        raise ValueError(
            f"dB grid {start}:{stop}:{step} has more than {CELL_BUDGET} points"
        )
    return [start + i * step for i in range(math.floor(span) + 1)]


def mse_curve(
    beta_target: float,
    d_list: Sequence[int],
    snr_db_values: Sequence[float],
    dist: JitterDistribution,
    size_budget: int = 1000,
    trials: int = 20,
    seed: int = 0,
    threads: int = 1,
) -> MseCurve:
    """Empirical error curves per dimension plus the two reference curves.

    Each dimension gets its own realizable shape from the budget; the
    per-SNR empirical value averages the trace formula over trials at that
    shape's achieved aspect ratio.  The limiting and equally spaced rows
    use the target ratio.  Each trial's spectrum goes through
    ``mse_from_spectrum`` once, for every SNR.  Before any draw it refuses,
    with ``ValueError``, an empty ``d_list`` or ``snr_db_values``, a
    dimension, ``size_budget``, ``trials`` or ``threads`` that is no
    integer >= 1, a ``seed`` that is no integer >= 0, a target ratio
    outside (0, 1], a ``dist`` that is no ``JitterDistribution`` and a dB
    value that is no real number or gives no finite SNR > 0.
    """
    if len(d_list) == 0:
        raise ValueError("need at least one dimension")
    if len(snr_db_values) == 0:
        raise ValueError("need at least one SNR value")
    dims = sorted({_check_integer(d, "dimension") for d in d_list})
    seed = _check_integer(seed, "seed", low=0)
    beta_target = _check_aspect_ratio(beta_target, "target aspect ratio")
    _check_law(dist)
    dbs, snrs = [_check_real(db, "dB value") for db in snr_db_values], []
    for db in dbs:
        # a float overflows with an error where a NumPy scalar warns
        try:
            snrs.append(10.0 ** (db / 10.0))
        except OverflowError:
            snrs.append(math.inf)
        if not 0 < snrs[-1] < math.inf:
            raise ValueError(f"{db} dB is no finite signal-to-noise ratio > 0")
    # an array of floats, which each trial's average takes without a type check
    column = np.array(snrs)
    points: list[MsePoint] = []
    for d in dims:
        M, rho, beta_actual = resolve_shape(beta_target, d, size_budget)
        config = EnsembleConfig(d=d, M=M, rho=rho, dist=dist)
        eigs = simulate(config, trials, [seed, d], threads).eigenvalues
        per_trial = np.array([mse_from_spectrum(e, beta_actual, column) for e in eigs])
        mse = per_trial.mean(axis=0)
        spread = per_trial.std(axis=0, ddof=1) if trials > 1 else np.zeros(len(snrs))
        std_err = spread / np.sqrt(trials)
        points.extend(
            MsePoint(db, "empirical", beta_actual, d, float(value), float(err))
            for db, value, err in zip(dbs, mse, std_err)
        )
    for source, reference in (("mp", mse_mp), ("equally_spaced", mse_equally_spaced)):
        points.extend(
            MsePoint(db, source, beta_target, None, reference(beta_target, snr), 0.0)
            for db, snr in zip(dbs, snrs)
        )
    return MseCurve(beta_target, dist.kind, tuple(points))
