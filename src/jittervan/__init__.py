"""Spectral moments and reconstruction error of jittered-grid Vandermonde ensembles.

The package computes the asymptotic eigenvalue-distribution moments of
random complex-exponential matrices whose sample positions sit on a
jittered regular grid, cross-validates them against direct Monte-Carlo
simulation and the Marchenko-Pastur limit, and applies the spectra to
linear-reconstruction error estimates for irregularly sampled bandlimited
signals.
"""

from .ensemble import (
    EnsembleConfig,
    SpectrumSample,
    empirical_moment,
    empirical_moment_std_error,
    histogram,
    resolve_shape,
    sample_positions,
    simulate,
    spectrum,
)
from .errors import BudgetError, NumericalError
from .integrate import (
    IntegralValue,
    QmcOptions,
    cf_integral,
    delta_volume,
    term_integral,
)
from .jitter import (
    JitterDistribution,
    from_name,
    point_mass_half,
    triangular01,
    uniform01,
)
from .moments import (
    MomentResult,
    MomentTerm,
    convergence_report,
    moment,
    mp_density,
    mp_moment,
    mp_support,
    narayana,
)
from .mse import (
    MseCurve,
    mse_curve,
    mse_equally_spaced,
    mse_from_spectrum,
    mse_mp,
    snr_grid_db,
)
from .partitions import (
    Partition,
    enumerate_partitions,
    enumerate_partitions_k,
    mobius_coefficient,
    partition_of,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "EnsembleConfig",
    "IntegralValue",
    "JitterDistribution",
    "MomentResult",
    "MomentTerm",
    "MseCurve",
    "NumericalError",
    "Partition",
    "QmcOptions",
    "SpectrumSample",
    "cf_integral",
    "convergence_report",
    "delta_volume",
    "empirical_moment",
    "empirical_moment_std_error",
    "enumerate_partitions",
    "enumerate_partitions_k",
    "from_name",
    "histogram",
    "mobius_coefficient",
    "moment",
    "mp_density",
    "mp_moment",
    "mp_support",
    "mse_curve",
    "mse_equally_spaced",
    "mse_from_spectrum",
    "mse_mp",
    "narayana",
    "partition_of",
    "point_mass_half",
    "resolve_shape",
    "sample_positions",
    "simulate",
    "snr_grid_db",
    "spectrum",
    "term_integral",
    "triangular01",
    "uniform01",
]
