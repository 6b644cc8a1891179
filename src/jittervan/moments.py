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

Every pair is therefore grouped into a class: it is reduced by the first
two moves and keyed by the least labelling under the third, and one pair
per class, of the lowest order, is integrated; every member takes its
value.  A fully pinned pair has every block alone in its group, so
the reduction leaves the blocks its walk meets twice or more, and a walk
whose blocks all contract away is the one-block pair, of volume 1.
Rotations and reversals of the trace indices, the dihedral symmetry of
the trace, are among these moves.

The per-order table of pairs holds each pair's class, from
``constraints.class_representative``: one memo on label tuples, where a
pair one move from any pair already keyed reads its class, and a reduced
pair is read at the least of its rotations and reversals, so the least
labelling is searched once per such orbit.  Each class value,
exact pinned volumes included, is memoised on (class, beta, d, law).

The moment is assembled from the classes, not from the pairs: summed by
their power p - h of beta, the members' weights u make an integer
polynomial W_c(beta) per class, so the moment is sum_c W_c(beta) v_c^d,
summed exactly from the float beta and v_c and rounded once.  The rows
of pairs are built from the class values only when ``terms`` is read.

Each integral's error is the deterministic difference between two
cubature orders.  It exceeded the actual error, by 25 times or more, on
every orbit of order at most 5 checked against a higher order, so the
linear sum of the term errors through the d-th power estimates the
moment's error.  It is an estimate, not a bound: on the cones the
difference follows the triangulation, not the error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._parallel import ordered_map
from .constraints import class_representative
from .errors import _check_aspect_ratio, _check_integer, _check_law
from .integrate import IntegralValue, QmcOptions, term_integral
from .jitter import JitterDistribution
from .partitions import Partition, enumerate_partitions_k, mobius_coefficient

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
    """Value of one asymptotic moment, with the class values its terms take."""

    p: int
    beta: float
    d: int
    jitter: str
    value: float
    std_error: float
    _values: tuple[IntegralValue, ...]

    @property
    def terms(self) -> tuple[MomentTerm, ...]:
        """One term per (fine, coarse) pair, in enumeration order, built
        from the class values on each read."""
        p, beta, d = self.p, self.beta, self.d
        terms = []
        for omega, omega_prime, u, index in _pair_classes(p)[0]:
            k, h = omega.k, omega_prime.k
            v = self._values[index]
            weight = beta ** (p - h)
            contribution = weight * u * v.value**d
            err = weight * abs(u) * d * abs(v.value) ** (d - 1) * v.std_error
            terms.append(MomentTerm(k, h, omega, omega_prime, u, v, contribution, err))
        return tuple(terms)

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
    """A class value, memoised; laws compare by their ``identity``."""
    return term_integral(omega, omega_prime, beta, d, dist)


clear_term_cache = _evaluate_pair.cache_clear


@lru_cache(maxsize=None)
def _pair_classes(p: int) -> tuple[tuple, tuple]:
    """Every (fine, coarse) pair of order p with its signed weight and the
    index of its class representative.  Returns the rows in enumeration
    order and the representatives in order of first member.  Memoised on
    p, as rebuilding costs more than a warm replay."""
    rows = []
    classes: dict[tuple[Partition, Partition], int] = {}
    for k in range(1, p + 1):
        groupings = [
            (grouping, mobius_coefficient(grouping))
            for h in range(1, k + 1)
            for grouping in enumerate_partitions_k(k, h)
        ]
        for omega in enumerate_partitions_k(p, k):
            for grouping, u in groupings:
                rep = class_representative(omega, grouping)
                rows.append((omega, grouping, u, classes.setdefault(rep, len(classes))))
    return tuple(rows), tuple(classes)


@lru_cache(maxsize=None)
def _class_weights(p: int) -> np.ndarray:
    """W and A per class and power p - h of beta: the sums of u and of |u|
    over the class's rows, as Python integers.  Memoised on p."""
    rows, classes = _pair_classes(p)
    weights = np.zeros((2, len(classes), p), dtype=object)
    for _, grouping, u, index in rows:
        weights[0, index, p - grouping.k] += u
        weights[1, index, p - grouping.k] += abs(u)
    return weights


def _class_sums(p, beta, d, values, keep=lambda v: True) -> tuple[float, float]:
    """The moment sum_c W_c(beta) v_c^d over the kept classes, summed
    exactly from the float beta and v_c and rounded once, and its error
    estimate sum_c A_c(beta) d |v_c|^(d-1) err_c."""
    b, s = beta.as_integer_ratio()
    scale = s ** (p - 1)
    # scale * W_c(beta) and scale * A_c(beta), exact integers
    signed, absolute = _class_weights(p) @ [b**j * s ** (p - 1 - j) for j in range(p)]
    num, den, error = 0, 1, []  # the moment is num / (den * scale)
    for v, w, a in zip(values, signed, absolute):
        if keep(v):
            n, m = v.value.as_integer_ratio()
            lcm = math.lcm(den, m**d)
            num = num * (lcm // den) + w * n**d * (lcm // m**d)
            den = lcm
            error.append(a / scale * d * abs(v.value) ** (d - 1) * v.std_error)
    return num / (den * scale), math.fsum(error)


def moment(
    p: int,
    beta: float,
    d: int,
    dist: JitterDistribution,
    opts: QmcOptions | None = None,
    threads: int = 1,
) -> MomentResult:
    """p-th asymptotic eigenvalue moment of the jittered-grid ensemble.

    Dispatches one partition pair per class to its integral regime, the
    exact volume for a fully pinned class, and every pair of a class takes
    that value v_c.  The moment is sum_c W_c(beta) v_c^d, where W_c sums
    the class's signed block coefficients by their aspect-ratio power.
    The cubature error estimates are propagated linearly through the d-th
    power and summed with the weights |u|, an estimate of the moment's
    error.  The terms, one per pair in enumeration order, are built only
    when read.  The first moment is exactly 1 by construction: its only
    pair is the one-block partition, of volume 1.

    ``opts`` is accepted for the benchmark scripts, which build it, and
    ignored: the integrals are deterministic and take no sampling options.
    ``threads`` spreads the class values over worker threads.

    Before any enumeration or integral it refuses, with ``ValueError``, a
    ``p`` that is no integer in [1, MOMENT_CAP], a ``beta`` outside (0, 1],
    a ``d`` or ``threads`` that is no integer >= 1 and a ``dist`` that is
    no ``JitterDistribution``.
    """
    p = _check_integer(p, "moment order", high=MOMENT_CAP)
    beta = _check_aspect_ratio(beta)
    d = _check_integer(d, "dimension")
    threads = _check_integer(threads, "thread count")
    _check_law(dist)

    classes = _pair_classes(p)[1]
    values = tuple(ordered_map(lambda rep: _evaluate_pair(*rep, beta, d, dist), classes, threads))
    return MomentResult(p, beta, d, dist.kind, *_class_sums(p, beta, d, values), values)


# ---------------------------------------------------------------------------
# Marchenko-Pastur limit
# ---------------------------------------------------------------------------


def narayana(p: int, k: int) -> int:
    """Narayana number: binom(p,k) * binom(p,k-1) / p, exact."""
    p = _check_integer(p, "order")
    k = _check_integer(k, "block count", high=p)
    return math.comb(p, k) * math.comb(p, k - 1) // p


def _narayana_row(p: int) -> list[int]:
    """N(p, 1), ..., N(p, p), each from the one before in exact integers:
    N(p, k + 1) = N(p, k) (p - k)(p - k + 1) / (k (k + 1))."""
    row = [1]
    for k in range(1, p):
        row.append(row[-1] * (p - k) * (p - k + 1) // (k * (k + 1)))
    return row


def mp_moment(p: int, beta: float) -> float:
    """p-th Marchenko-Pastur moment: the Narayana polynomial in beta, summed
    exactly by Horner's rule and rounded once.  A moment beyond the float
    range is refused with ``ValueError``."""
    p = _check_integer(p, "moment order")
    beta = _check_aspect_ratio(beta)
    exact, ratio = Fraction(0), Fraction(beta)
    for entry in _narayana_row(p):
        exact = exact * ratio + entry
    try:
        return float(exact)
    except OverflowError:
        raise ValueError(
            f"Marchenko-Pastur moment of order {p} at beta {beta} exceeds the float range"
        ) from None


def mp_support(beta: float) -> tuple[float, float]:
    """Support edges ((1-sqrt(beta))^2, (1+sqrt(beta))^2)."""
    beta = _check_aspect_ratio(beta)
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
    """Moments against the Marchenko-Pastur limit along a dimension list.
    ``gap``, |value - limit|, sums the terms off the one-block class, which
    carries the limit exactly, so it does not cancel to rounding at large d.
    Before any moment it refuses, with ``ValueError``, what ``mp_moment``
    refuses, a ``dist`` that is no ``JitterDistribution``, a dimension that
    is no integer >= 1 and an empty ``d_list``."""
    limit = mp_moment(p, beta)
    _check_law(dist)
    dims = [_check_integer(d, "dimension") for d in d_list]
    if not dims:
        raise ValueError("need at least one dimension")
    rows = []
    for d in dims:
        result = moment(p, beta, d, dist)
        rows.append(ConvergenceRow(result.d, result, limit, _mp_gap(result)))
    return rows


def _mp_gap(result: MomentResult) -> float:
    """|value - MP limit| summed over the classes off the one-block class."""
    value, _ = _class_sums(result.p, result.beta, result.d, result._values, lambda v: v.exact != 1)
    return abs(value)
