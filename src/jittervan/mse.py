"""Linear-reconstruction error from the ensemble spectrum.

The per-coefficient error of the linear minimum mean-square estimator is
the spectral average of beta / (lambda * snr + beta).  The module computes
it from empirical spectra, from the Marchenko-Pastur limit, and for the
exactly equally spaced placement (all eigenvalues one), and carries an
end-to-end estimator demo that validates the trace identity by direct
simulation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
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
)
from .errors import NumericalError
from .jitter import JitterDistribution


def _check_snr(snr: float) -> None:
    if not 0 < snr < math.inf:
        raise ValueError(f"signal-to-noise ratio must be finite and > 0, got {snr}")


def mse_from_spectrum(eigenvalues, beta: float, snr: float) -> float:
    """Mean of beta / (lambda * snr + beta) over a nonnegative spectrum."""
    eigs = np.asarray(eigenvalues, dtype=float)
    if eigs.size == 0:
        raise ValueError("cannot average over an empty spectrum")
    _check_snr(snr)
    return float(np.mean(beta / (eigs * snr + beta)))


def mse_equally_spaced(beta: float, snr: float) -> float:
    """Error for the degenerate unit spectrum: beta / (snr + beta)."""
    _check_snr(snr)
    return beta / (snr + beta)


def mse_mp(beta: float, snr: float) -> float:
    """Error under the Marchenko-Pastur spectrum, in closed form.

    With s = beta / snr the error is s * m(-s), where m is the Stieltjes
    transform of the limit, the root of beta z m^2 + (z - 1 + beta) m + 1 = 0
    (the eta-transform of Tulino and Verdu, Random Matrix Theory and
    Wireless Communications, 2004).  At z = -s the positive root is taken in
    its Vieta form 2 / (b + sqrt(b^2 + 4 beta s)), b = s + (1 - beta) > 0,
    which sums positive terms only, so no digits cancel.
    """
    if not 0 < beta <= 1:
        raise ValueError(f"aspect ratio must be in (0, 1], got {beta}")
    _check_snr(snr)
    s = beta / snr
    b = s + (1.0 - beta)
    return 2.0 * s / (b + math.sqrt(b * b + 4.0 * beta * s))


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
    _check_snr(snr)
    if draws < 2:
        raise ValueError(f"need at least 2 draws, got {draws}")
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
        return [
            {
                "snr_db": pt.snr_db,
                "source": pt.source,
                "beta": pt.beta,
                "d": pt.d,
                "mse": pt.mse,
                "std_err": pt.std_err,
            }
            for pt in self.points
        ]

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["snr_db", "source", "beta", "d", "mse", "std_err"])
            for pt in self.points:
                writer.writerow(
                    [
                        f"{pt.snr_db!r}",
                        pt.source,
                        f"{pt.beta!r}",
                        "" if pt.d is None else pt.d,
                        f"{pt.mse!r}",
                        f"{pt.std_err!r}",
                    ]
                )


def snr_grid_db(start: float = -10.0, stop: float = 30.0, step: float = 1.0) -> list[float]:
    """Inclusive dB grid matching the start:stop:step CLI syntax, of at most
    CELL_BUDGET points."""
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"dB grid parts must be finite, got {start}:{stop}:{step}")
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    span = (stop - start) / step + 1e-9
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
    use the target ratio.  Every SNR is checked before any trial is drawn,
    and the average runs trial by trial over chunks of SNRs, so that no
    temporary exceeds CELL_BUDGET entries.
    """
    if not d_list:
        raise ValueError("need at least one dimension")
    if not snr_db_values:
        raise ValueError("need at least one SNR value")
    snrs = []
    for db in snr_db_values:
        try:
            snrs.append(10 ** (db / 10.0))
        except OverflowError:
            snrs.append(math.inf)
        if not 0 < snrs[-1] < math.inf:
            raise ValueError(f"{db} dB is no finite signal-to-noise ratio > 0")
    column = np.array(snrs)[:, None]
    points: list[MsePoint] = []
    for d in sorted(set(d_list)):
        M, rho, beta_actual = resolve_shape(beta_target, d, size_budget)
        config = EnsembleConfig(d=d, M=M, rho=rho, dist=dist)
        eigs = simulate(config, trials, [seed, d], threads).eigenvalues
        chunk = max(1, CELL_BUDGET // eigs.shape[1])
        per_trial = np.empty((trials, len(snrs)))
        for trial, row in enumerate(eigs):
            for start in range(0, len(snrs), chunk):
                part = column[start : start + chunk]
                per_trial[trial, start : start + chunk] = np.mean(
                    beta_actual / (row * part + beta_actual), axis=1
                )
        mse = per_trial.mean(axis=0)
        spread = per_trial.std(axis=0, ddof=1) if trials > 1 else np.zeros(len(snrs))
        std_err = spread / np.sqrt(trials)
        points.extend(
            MsePoint(db, "empirical", beta_actual, d, float(value), float(err))
            for db, value, err in zip(snr_db_values, mse, std_err)
        )
    for source, reference in (("mp", mse_mp), ("equally_spaced", mse_equally_spaced)):
        points.extend(
            MsePoint(db, source, beta_target, None, reference(beta_target, snr), 0.0)
            for db, snr in zip(snr_db_values, snrs)
        )
    return MseCurve(beta_target, dist.kind, tuple(points))
