"""Asymptotic spectral moments of the jittered-grid ensemble.

The p-th moment is assembled as a double sum over a fine partition of the
p trace indices and a coarse partition of its blocks; each pair carries a
signed combinatorial weight, an aspect-ratio power and an integral factor
raised to the grid dimension.  The limiting moments for growing dimension
are the Narayana polynomials, i.e. the Marchenko-Pastur moments, which are
provided alongside for comparison.

The integral factor reads the pair as a closed walk through the blocks:
coordinate y_i sits on the edge from the block of element i - 1 to the
block of element i, each block's form is its net inflow, and the net
inflows of each group sum to zero.  So the factor depends only on the
directed block multigraph and the grouping, not on the walk's order, and
three moves keep its value:

* dropping a loop: a repeated consecutive label gives a zero column, whose
  coordinate integrates to 1;
* series contraction: a block met once by the walk and alone in its group
  has its net inflow pinned to zero, so its in-edge and out-edge carry one
  coordinate, with unit Jacobian, and its cf factor is cf(0) = 1;
* relabelling the blocks consistently with the grouping, and reversing
  every edge: the reversal negates every form, which y -> -y on the
  centred cube undoes, for asymmetric laws too.

The characteristic-function pairs are therefore grouped into classes:
each is reduced by the first two moves and keyed by the least labelling
under the third, and one pair per class, of the lowest order, is
integrated; every member term carries its value.  Rotations and
reversals of the trace indices, the dihedral symmetry of the trace, are
among these moves.

Each value is memoised by what it depends on.  A fully pinned pair's
exact volume depends on the pair alone and sits in the per-order table of
pairs; a class integral also depends on beta, d and the law.

Each integral's error is the deterministic difference between two
cubature orders.  It exceeded the actual error, by 25 times or more, on
every orbit of order at most 5 checked against a higher order, so the
linear sum of the term errors through the d-th power estimates the
moment's error.  It is an estimate, not a bound: on the cones the
difference follows the triangulation, not the error.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, permutations, product

import numpy as np

from . import integrate
from ._parallel import ordered_map
from .errors import _check_dimension
from .integrate import IntegralValue, QmcOptions, term_integral
from .jitter import JitterDistribution
from .partitions import (
    Partition,
    enumerate_partitions_k,
    mobius_coefficient,
    partition_of,
)

#: Highest moment order evaluated.
MOMENT_CAP = 5


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


@lru_cache(maxsize=None)
def _evaluate_pair(
    omega: Partition,
    omega_prime: Partition,
    beta: float,
    d: int,
    dist: JitterDistribution,
) -> IntegralValue:
    """A class integral, memoised; laws compare by their ``identity``."""
    return term_integral(omega, omega_prime, beta, d, dist)


clear_term_cache = _evaluate_pair.cache_clear


def _class_representative(
    partition: Partition, grouping: Partition
) -> tuple[Partition, Partition]:
    """The pair integrated for a characteristic-function pair's class.

    The walk drops its loops and contracts every block met once and alone
    in its group, until neither applies; a group of two or more blocks
    loses none, so the reduced pair keeps fewer groups than blocks.
    """
    group = grouping.omega
    members = Counter(group)
    walk = list(partition.omega)
    while True:
        kept = [b for i, b in enumerate(walk) if b != walk[i - 1]]
        met = Counter(kept)
        kept = [b for b in kept if met[b] > 1 or members[group[b - 1]] > 1]
        if kept == walk:
            break
        walk = kept
    coarse = partition_of([group[b - 1] for b in dict.fromkeys(walk)])
    return _least_labelling(partition_of(walk).omega, coarse.omega)


@lru_cache(maxsize=None)
def _least_labelling(
    walk: tuple[int, ...], grouping: tuple[int, ...]
) -> tuple[Partition, Partition]:
    """Representative of a reduced pair's class, keyed by its least labelling.

    The blocks take every labelling that lists them by (group size,
    degree), and every edge may be reversed; the least (grouping, sorted
    edge list) over these is the class key.  Its edges are walked as an
    Euler circuit from block 0, taking the least unused edge at each block
    (Hierholzer), so the representative depends on the key alone.
    """
    degree = Counter(walk)
    members = Counter(grouping)

    def invariant(block: int) -> tuple[int, int]:
        return members[grouping[block - 1]], degree[block]

    edges = [(walk[i - 1], walk[i]) for i in range(len(walk))]
    runs = [
        list(run) for _, run in groupby(sorted(degree, key=invariant), key=invariant)
    ]
    keys = []
    for choice in product(*map(permutations, runs)):
        order = [block for run in choice for block in run]
        label = {block: new for new, block in enumerate(order)}
        coarse = partition_of([grouping[block - 1] for block in order]).omega
        forward = sorted((label[a], label[b]) for a, b in edges)
        keys.append((coarse, forward))
        keys.append((coarse, sorted((b, a) for a, b in forward)))
    coarse, key_edges = min(keys)
    after: dict[int, list[int]] = {}
    for a, b in sorted(key_edges, reverse=True):
        after.setdefault(a, []).append(b)  # pop() yields the least block
    stack, circuit = [0], []
    while stack:
        if after.get(stack[-1]):
            stack.append(after[stack[-1]].pop())
        else:
            circuit.append(stack.pop())
    circuit = circuit[::-1][:-1]
    return partition_of(circuit), partition_of(
        [coarse[block] for block in dict.fromkeys(circuit)]
    )


@lru_cache(maxsize=None)
def _pair_classes(p: int) -> tuple[tuple, tuple]:
    """Every (fine, coarse) pair of order p with its signed weight and factor:
    a fully pinned pair's exact volume, or the index of a characteristic-
    function pair's class representative.  Returns the rows in enumeration
    order and the representatives in order of first member.  Memoised on p,
    as rebuilding costs more than a warm replay; ``delta_volume`` is read
    through its module, so a wrapper installed there sees each call."""
    rows = []
    integrated: dict[tuple[Partition, Partition], int] = {}
    for k in range(1, p + 1):
        for omega in enumerate_partitions_k(p, k):
            for h in range(1, k + 1):
                for omega_prime in enumerate_partitions_k(k, h):
                    if h < k:
                        rep = _class_representative(omega, omega_prime)
                        factor = integrated.setdefault(rep, len(integrated))
                    else:
                        factor = integrate.delta_volume(omega)
                    u = mobius_coefficient(omega_prime)
                    rows.append((omega, omega_prime, u, factor))
    return tuple(rows), tuple(integrated)


def moment(
    p: int,
    beta: float,
    d: int,
    dist: JitterDistribution,
    opts: QmcOptions | None = None,
    threads: int = 1,
) -> MomentResult:
    """p-th asymptotic eigenvalue moment of the jittered-grid ensemble.

    Dispatches one partition pair per class to its integral regime, and
    every pair of a class takes that value; each fully pinned pair takes
    its exact volume from the per-order table.  Each value is weighted by
    the pair's signed block coefficient and the aspect-ratio power.  The
    cubature error estimates are propagated linearly through the d-th
    power and summed over the terms, an estimate of the moment's error.  The
    terms keep the enumeration order.  The first moment is exactly 1 by
    construction: its only pair is the one-block partition, of volume 1.

    ``p`` runs from 1 to ``MOMENT_CAP``.  ``opts`` is accepted for the
    benchmark scripts, which build it, and ignored: the integrals are
    deterministic and take no sampling options.  ``threads`` spreads the
    class integrals over worker threads.
    """
    if not 1 <= p <= MOMENT_CAP:
        raise ValueError(f"moment order must satisfy 1 <= p <= {MOMENT_CAP}, got {p}")
    if not 0 < beta <= 1:
        raise ValueError(f"aspect ratio must be in (0, 1], got {beta}")
    _check_dimension(d)

    rows, integrated = _pair_classes(p)
    # a NumPy scalar keys and integrates as the Python float it equals
    key = float(beta)
    values = ordered_map(
        lambda rep: _evaluate_pair(*rep, key, d, dist), integrated, threads
    )

    terms = []
    for omega, omega_prime, u, factor in rows:
        k, h = omega.k, omega_prime.k
        v = factor if isinstance(factor, IntegralValue) else values[factor]
        weight = beta ** (p - h)
        contribution = weight * u * v.value**d
        err = weight * abs(u) * d * abs(v.value) ** (d - 1) * v.std_error
        terms.append(MomentTerm(k, h, omega, omega_prime, u, v, contribution, err))
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
    """Marchenko-Pastur density at z (scalar or array); zero off support.
    At beta = 1 it is +inf at z = 0, its limit there."""
    low, high = mp_support(beta)
    arr = np.asarray(z, dtype=float)
    inside = (arr >= low) & (arr <= high)
    safe = np.where(inside & (arr != 0), arr, 1.0)
    radicand = np.clip((high - safe) * (safe - low), 0.0, None)
    out = np.where(inside, np.sqrt(radicand) / (2 * np.pi * safe * beta), 0.0)
    out = np.where(inside & (arr == 0), np.inf, out)
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
) -> list[ConvergenceRow]:
    """Moments against the Marchenko-Pastur limit along a dimension list."""
    limit = mp_moment(p, beta)
    rows = []
    for d in d_list:
        result = moment(p, beta, d, dist)
        rows.append(ConvergenceRow(d, result, limit, abs(result.value - limit)))
    return rows
