"""Workload definitions shared by the benchmark worker and the reference script.

Every size the library would otherwise default (QMC points, replicates,
sampler, trials, worker threads) is spelled out here, so a change to a
library default cannot shrink the measured work unseen.  ``smoke`` selects
tiny sizes that exercise every workload, metric and check in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("analytic-cold", "analytic-sweep", "mc-spectrum")

#: Nominal seconds of one worker (set-up, cold list, warm replays) at full
#: sizes on a 2-core x86-64 host with one BLAS thread.  A run of S seconds
#: makes max(1, S // WORKER_S) workers, a count that does not depend on
#: the code measured, so both sides of a comparison do the same work.
WORKER_S = {"analytic-cold": 34.0, "analytic-sweep": 14.0, "mc-spectrum": 6.0}

#: Workloads whose operations fill caches, so a warm replay differs from
#: the cold pass; the Monte-Carlo path has no cache to replay against.
CACHED = ("analytic-cold", "analytic-sweep")

ANALYTIC_BETA = 0.55
MC_BETA = 0.729
MC_DIMS = (1, 2, 3)


@dataclass(frozen=True)
class MomentCase:
    """One analytic moment evaluation: order, aspect ratio, dimension, law."""

    p: int
    beta: float
    d: int
    law: str  # name of a jittervan law factory, e.g. "uniform01"

    @property
    def key(self) -> str:
        return f"{self.law}|beta={self.beta!r}|d={self.d}|p={self.p}"

    @property
    def label(self) -> str:
        return f"p{self.p}_d{self.d}"


@dataclass(frozen=True)
class QmcSizes:
    points: int
    replicates: int


@dataclass(frozen=True)
class McParams:
    beta_target: float
    dims: tuple[int, ...]
    snr_db: tuple[float, float, float]  # start, stop, step of snr_grid_db
    size_budget: int
    trials: int


def moment_cases(workload: str, smoke: bool = False) -> list[MomentCase]:
    """The ordered moment list of an analytic workload."""
    if workload == "analytic-cold":
        orders = range(1, 4) if smoke else range(1, 6)
        return [MomentCase(p, ANALYTIC_BETA, 2, "uniform01") for p in orders]
    if workload == "analytic-sweep":
        orders = range(2, 4) if smoke else range(2, 5)
        dims = range(1, 3) if smoke else range(1, 5)
        return [
            MomentCase(p, ANALYTIC_BETA, d, "triangular01") for p in orders for d in dims
        ]
    raise ValueError(f"{workload!r} is not an analytic workload")


def qmc_sizes(smoke: bool = False) -> QmcSizes:
    return QmcSizes(points=2**8, replicates=4) if smoke else QmcSizes(points=2**14, replicates=16)


def mc_params(smoke: bool = False) -> McParams:
    if smoke:
        return McParams(MC_BETA, MC_DIMS, (-10.0, 30.0, 10.0), size_budget=49, trials=2)
    # the criterion-9 shapes: 1225 x 1680, 1225 x 1681 and 729 x 1000
    return McParams(MC_BETA, MC_DIMS, (-10.0, 30.0, 2.0), size_budget=1225, trials=2)


def worker_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds // WORKER_S[workload]))
