"""Asymptotic spectral moments of the jittered-grid ensemble.

The p-th moment is assembled as a double sum over a fine partition of the
p trace indices and a coarse partition of its blocks; each pair carries a
signed combinatorial weight, an aspect-ratio power and an integral factor
raised to the grid dimension.  The limiting moments for growing dimension
are the Narayana polynomials, i.e. the Marchenko-Pastur moments, which are
provided alongside for comparison.

Rotating or reversing the p trace indices maps a pair onto another pair
with the same integral, signed weight and aspect-ratio power: a rotation
permutes the cube coordinates, and a reversal negates every column of the
walk, which y -> -y on the centred cube undoes, for asymmetric laws too.
So the pairs are grouped by dihedral orbit and one representative per
orbit is integrated; every member term carries its value.

Each integral's error is the deterministic difference between two
cubature orders.  It exceeds the actual error, by 25 times or more on
every orbit of order at most 5 checked against a higher order, so the
linear sum of the term errors through the d-th power bounds the moment's
error.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._parallel import ordered_map
from .integrate import IntegralValue, QmcOptions, term_integral
from .jitter import JitterDistribution
from .partitions import (
    Partition,
    dihedral_representative,
    enumerate_partitions_k,
    mobius_coefficient,
)

DEFAULT_MOMENT_CAP = 5

_term_cache: dict[tuple, IntegralValue] = {}
_term_cache_lock = threading.Lock()


@dataclass(frozen=True)
class MomentTerm:
    """One (fine, coarse) partition pair of the moment expansion."""

    k: int
    h: int
    omega: Partition
    omega_prime: Partition
    u: int
    v: IntegralValue
    contribution: float
    std_error: float

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "h": self.h,
            "omega": list(self.omega.omega),
            "omega_prime": list(self.omega_prime.omega),
            "u": self.u,
            "v": self.v.value,
            "v_err": self.v.std_error,
            "method": self.v.method,
            "contribution": self.contribution,
        }


@dataclass(frozen=True)
class MomentResult:
    """Value of one asymptotic moment with its full term breakdown."""

    p: int
    beta: float
    d: int
    jitter: str
    value: float
    std_error: float
    terms: tuple[MomentTerm, ...]

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "beta": self.beta,
            "d": self.d,
            "jitter": self.jitter,
            "value": self.value,
            "std_error": self.std_error,
            "terms": [term.to_dict() for term in self.terms],
        }


def clear_term_cache() -> None:
    with _term_cache_lock:
        _term_cache.clear()


def _evaluate_pair(
    omega: Partition,
    omega_prime: Partition,
    beta: float,
    d: int,
    dist: JitterDistribution,
) -> IntegralValue:
    key = (omega.omega, omega_prime.omega, repr(beta), d, dist.identity)
    with _term_cache_lock:
        hit = _term_cache.get(key)
    if hit is not None:
        return hit
    value = term_integral(omega, omega_prime, beta, d, dist)
    with _term_cache_lock:
        _term_cache[key] = value
    return value


@lru_cache(maxsize=None)
def _pair_orbits(p: int) -> tuple[tuple[tuple[Partition, Partition, int], ...], tuple]:
    """Every (fine, coarse) pair of order p, grouped by dihedral orbit.

    Returns the pairs in enumeration order, each tagged with the index of
    its orbit, and the orbit representatives in order of first member.
    Memoised on p: rebuilding the p = 5 table costs about ten times a whole
    cache-warm replay of the moments p = 1..5.
    """
    pairs = []
    orbits: dict[tuple[Partition, Partition], int] = {}
    for k in range(1, p + 1):
        for omega in enumerate_partitions_k(p, k, order_cap=max(p, 7)):
            for h in range(1, k + 1):
                for omega_prime in enumerate_partitions_k(k, h):
                    rep = dihedral_representative(omega, omega_prime)
                    orbit = orbits.setdefault(rep, len(orbits))
                    pairs.append((omega, omega_prime, orbit))
    return tuple(pairs), tuple(orbits)


def moment(
    p: int,
    beta: float,
    d: int,
    dist: JitterDistribution,
    opts: QmcOptions | None = None,
    moment_cap: int = DEFAULT_MOMENT_CAP,
    threads: int = 1,
) -> MomentResult:
    """p-th asymptotic eigenvalue moment of the jittered-grid ensemble.

    Dispatches one partition pair per dihedral orbit to its integral
    regime; every pair of the orbit then takes that value, weighted by its
    signed block coefficient and the aspect-ratio power.  The cubature
    error estimates are propagated linearly through the d-th power and
    summed over the terms, a bound on the moment's error.  The terms keep
    the enumeration order.  The first moment is exactly 1 by construction.

    ``opts`` is accepted for existing callers and ignored: the integrals
    are deterministic and take no sampling options.
    """
    if not 1 <= p <= moment_cap:
        raise ValueError(f"moment order must satisfy 1 <= p <= {moment_cap}, got {p}")
    if not 0 < beta <= 1:
        raise ValueError(f"aspect ratio must be in (0, 1], got {beta}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")

    pairs, representatives = _pair_orbits(p)
    values = ordered_map(
        lambda rep: _evaluate_pair(*rep, beta, d, dist), representatives, threads
    )

    def build(omega: Partition, omega_prime: Partition, orbit: int) -> MomentTerm:
        k, h = omega.k, omega_prime.k
        u = mobius_coefficient(omega_prime)
        v = values[orbit]
        weight = beta ** (p - h)
        contribution = weight * u * v.value**d
        err = weight * abs(u) * d * abs(v.value) ** (d - 1) * v.std_error
        return MomentTerm(k, h, omega, omega_prime, u, v, contribution, err)

    terms = [build(*pair) for pair in pairs]
    value = sum(term.contribution for term in terms)
    std_error = sum(term.std_error for term in terms)
    return MomentResult(p, beta, d, dist.kind, value, std_error, tuple(terms))


# ---------------------------------------------------------------------------
# Marchenko-Pastur limit
# ---------------------------------------------------------------------------


def narayana(p: int, k: int) -> int:
    """Narayana number: binom(p,k) * binom(p,k-1) / p, exact."""
    if p < 1 or not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p with p >= 1, got p={p}, k={k}")
    return math.comb(p, k) * math.comb(p, k - 1) // p


def mp_moment(p: int, beta: float) -> float:
    """p-th Marchenko-Pastur moment: the Narayana polynomial in beta."""
    if p < 1:
        raise ValueError(f"moment order must be >= 1, got {p}")
    if not 0 < beta <= 1:
        raise ValueError(f"aspect ratio must be in (0, 1], got {beta}")
    return float(sum(beta ** (p - k) * narayana(p, k) for k in range(1, p + 1)))


def mp_support(beta: float) -> tuple[float, float]:
    """Support edges ((1-sqrt(beta))^2, (1+sqrt(beta))^2)."""
    if not 0 < beta <= 1:
        raise ValueError(f"aspect ratio must be in (0, 1], got {beta}")
    root = math.sqrt(beta)
    return ((1 - root) ** 2, (1 + root) ** 2)


def mp_density(beta: float, z):
    """Marchenko-Pastur density at z (scalar or array); zero off support."""
    low, high = mp_support(beta)
    arr = np.asarray(z, dtype=float)
    inside = (arr >= low) & (arr <= high)
    out = np.zeros_like(arr)
    safe = np.where(inside, arr, 1.0)
    radicand = np.clip((high - safe) * (safe - low), 0.0, None)
    out = np.where(inside, np.sqrt(radicand) / (2 * np.pi * safe * beta), 0.0)
    if np.isscalar(z) or arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ConvergenceRow:
    d: int
    moment: MomentResult
    mp: float
    gap: float


def convergence_report(
    p: int,
    beta: float,
    d_list,
    dist: JitterDistribution,
    moment_cap: int = DEFAULT_MOMENT_CAP,
    threads: int = 1,
) -> list[ConvergenceRow]:
    """Moments against the Marchenko-Pastur limit along a dimension list."""
    limit = mp_moment(p, beta)
    rows = []
    for d in d_list:
        result = moment(p, beta, d, dist, moment_cap=moment_cap, threads=threads)
        rows.append(ConvergenceRow(d, result, limit, abs(result.value - limit)))
    return rows
