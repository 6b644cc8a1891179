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
from scipy.integrate import quad

from .ensemble import (
    EnsembleConfig,
    gram_matrix,
    resolve_shape,
    sample_positions,
    sampling_matrix,
    simulate,
    spectrum,
)
from .errors import NumericalError
from .jitter import JitterDistribution
from .moments import mp_density, mp_support


def mse_from_spectrum(eigenvalues, beta: float, snr: float) -> float:
    """Mean of beta / (lambda * snr + beta) over a nonnegative spectrum."""
    eigs = np.asarray(eigenvalues, dtype=float)
    if eigs.size == 0:
        raise ValueError("cannot average over an empty spectrum")
    if snr <= 0:
        raise ValueError(f"signal-to-noise ratio must be > 0, got {snr}")
    return float(np.mean(beta / (eigs * snr + beta)))


def mse_equally_spaced(beta: float, snr: float) -> float:
    """Error for the degenerate unit spectrum: beta / (snr + beta)."""
    if snr <= 0:
        raise ValueError(f"signal-to-noise ratio must be > 0, got {snr}")
    return beta / (snr + beta)


def mp_average(beta: float, f) -> tuple[float, float]:
    """(integral of f(z) * mp_density(beta, z) dz, quadrature error).

    The substitution z = low + (high - low) sin^2(theta) removes the
    square-root edge singularities, so the integrand is smooth on [0, pi/2].
    """
    low, high = mp_support(beta)
    span = high - low

    def integrand(theta: float) -> float:
        s = math.sin(theta)
        z = low + span * s * s
        jac = 2 * span * s * math.cos(theta)
        return f(z) * mp_density(beta, z) * jac

    return quad(integrand, 0.0, math.pi / 2, epsabs=1e-12, epsrel=1e-12)


def mse_mp(beta: float, snr: float) -> float:
    """Error under the Marchenko-Pastur spectrum, by adaptive quadrature."""
    if snr <= 0:
        raise ValueError(f"signal-to-noise ratio must be > 0, got {snr}")
    value, abserr = mp_average(beta, lambda z: beta / (z * snr + beta))
    if abserr > 1e-9:
        raise NumericalError(
            f"spectral-average quadrature did not converge: abserr={abserr:.2e}"
        )
    return value


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
    if snr <= 0:
        raise ValueError(f"signal-to-noise ratio must be > 0, got {snr}")
    if draws < 2:
        raise ValueError(f"need at least 2 draws, got {draws}")
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
    """Inclusive dB grid matching the start:stop:step CLI syntax."""
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


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
    use the target ratio.
    """
    if not d_list:
        raise ValueError("need at least one dimension")
    if not snr_db_values:
        raise ValueError("need at least one SNR value")
    snrs = [10 ** (db / 10.0) for db in snr_db_values]
    points: list[MsePoint] = []
    for d in sorted(set(d_list)):
        M, rho, beta_actual = resolve_shape(beta_target, d, size_budget)
        config = EnsembleConfig(d=d, M=M, rho=rho, dist=dist)
        sample = simulate(config, trials, [seed, d], threads)
        for db, snr in zip(snr_db_values, snrs):
            per_trial = [
                mse_from_spectrum(sample.eigenvalues[t], beta_actual, snr)
                for t in range(sample.trials)
            ]
            points.append(
                MsePoint(
                    snr_db=db,
                    source="empirical",
                    beta=beta_actual,
                    d=d,
                    mse=float(np.mean(per_trial)),
                    std_err=float(
                        np.std(per_trial, ddof=1) / np.sqrt(len(per_trial))
                        if len(per_trial) > 1
                        else 0.0
                    ),
                )
            )
    for db, snr in zip(snr_db_values, snrs):
        points.append(
            MsePoint(db, "mp", beta_target, None, mse_mp(beta_target, snr), 0.0)
        )
    for db, snr in zip(snr_db_values, snrs):
        points.append(
            MsePoint(
                db,
                "equally_spaced",
                beta_target,
                None,
                mse_equally_spaced(beta_target, snr),
                0.0,
            )
        )
    return MseCurve(beta_target, dist.kind, tuple(points))
