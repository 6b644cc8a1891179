"""Partition-pair integral factors of the moment expansion.

Every moment term carries a factor v attached to a partition pair: the
fine partition fixes the difference forms, the coarse one fixes which sums
of them are pinned to zero.  Three regimes are evaluated here.

* All forms pinned (coarse partition all singletons): the factor is the
  normalized volume of the zero set inside the centered unit cube.  The
  difference forms are the incidence matrix of a graph on the blocks, so
  the volume is a box-spline value, computed exactly in rationals by the
  box-spline recurrence.
* No pinning (single coarse block): a plain randomized quasi Monte Carlo
  average of the characteristic-function product over the cube.
* Partial pinning: the pinned sums are solved on a spanning tree of the
  walk through the groups, which writes the pivot coordinates as integer
  combinations of the free ones; the integrand is averaged over the free
  coordinates with an indicator keeping the pivots inside the cube.  The
  tree coordinates are unimodular, so the free coordinates carry unit
  weight.

A finite-grid evaluator of the same quantity at finite half-bandwidth M is
provided as an independent cross-check; it converges to the integral as M
grows.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.stats import qmc

from .constraints import (
    constraint_system,
    difference_matrix,
    merged_difference_rows,
    spanning_tree,
    tree_flows,
)
from .errors import BudgetError, NumericalError, RealnessError
from .jitter import JitterDistribution
from .partitions import Partition


@dataclass(frozen=True)
class QmcOptions:
    """Tuning knobs for the stochastic evaluation paths."""

    points: int = 2**14
    replicates: int = 16
    seed: int = 0
    sampler: str = "sobol"  # "sobol" (scrambled) or "mc" for cross-checks
    realness_factor: float = 10.0

    def __post_init__(self) -> None:
        if self.points < 2:
            raise ValueError("need at least 2 integration points")
        if self.replicates < 2:
            raise ValueError("need at least 2 replicates for an error estimate")
        if self.sampler not in ("sobol", "mc"):
            raise ValueError(f"unknown sampler {self.sampler!r}")

    def with_seed(self, seed: int) -> "QmcOptions":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class IntegralValue:
    """One evaluated integral factor with its error bookkeeping.

    ``imag_residual`` records the magnitude of the imaginary part of the
    raw complex estimate before it was discarded; exact paths store the
    value additionally as a Fraction.
    """

    value: float
    std_error: float
    method: str
    imag_residual: float = 0.0
    exact: Fraction | None = None


def unity() -> IntegralValue:
    """The trivial factor for a single-block fine partition."""
    return IntegralValue(1.0, 0.0, "exact_unity")


def term_seed(
    partition: Partition,
    grouping: Partition,
    beta: float,
    d: int,
    kind: str,
    base_seed: int,
) -> int:
    """Stable per-term seed: a checksum of the canonical term key."""
    key = f"{partition}|{grouping}|{beta!r}|{d}|{kind}"
    return zlib.crc32(key.encode()) ^ (base_seed & 0xFFFFFFFF)


# ---------------------------------------------------------------------------
# exact pinned volumes
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _box_spline(
    edges: tuple[tuple[int, int], ...], doubled: tuple[int, ...]
) -> Fraction:
    """Box spline M(E, x) of the edge vectors v_e = e_b - e_a, in rationals.

    E is a connected graph on k = len(doubled) nodes and x = doubled / 2.

    Recurrence of de Boor and Hoellig, with n = |E|, s = k - 1 and t the
    spanning-tree flow of x: (n - s) M(E, x) = sum over non-bridges e of
    t_e M(E - e, x) + (1 - t_e) M(E - e, x - v_e);
    a bridge has the same flow in every expansion, so it is checked once
    the graph is a spanning tree, whose spline is the indicator of
    0 < t < 1.  Points on a face of that box are taken at x + eps z with
    z = (1, ..., 1, -(k-1)).  z sums to zero and has a nonzero total on
    every proper subset of the nodes, so its flow is nonzero on every edge
    of any spanning tree.
    """
    k = len(doubled)
    tree = spanning_tree(edges, k)
    flows = tree_flows(edges, tree, doubled)
    cycles = len(edges) - (k - 1)
    if cycles == 0:
        ties = tree_flows(edges, tree, (1,) * (k - 1) + (1 - k,))
        # (flow, tie) is flow + eps * tie in (0, 2), ordered lexicographically
        inside = all((0, 0) < flow_tie < (2, 0) for flow_tie in zip(flows, ties))
        return Fraction(int(inside))
    flow_of = {edges[index]: flow for index, flow in zip(tree, flows)}
    total = Fraction(0)
    for edge in dict.fromkeys(edges):
        rest = list(edges)
        rest.remove(edge)
        rest = tuple(rest)
        if edge not in rest and len(spanning_tree(rest, k)) < k - 1:
            continue
        flow = Fraction(flow_of.get(edge, 0), 2)
        if flow:
            total += flow * _box_spline(rest, doubled)
        a, b = edge
        shifted = list(doubled)
        shifted[a] += 2
        shifted[b] -= 2
        total += (edges.count(edge) - flow) * _box_spline(rest, tuple(shifted))
    return total / cycles


def delta_volume(partition: Partition) -> IntegralValue:
    """Normalized volume of the fully pinned zero set, computed exactly.

    Element i contributes the difference-matrix column e_{block of i} -
    e_{block of i-1}: an edge of the graph on the blocks, dropped when it
    is a loop.  The columns form a totally unimodular incidence matrix, so
    the volume is the density of sum_e v_e Y_e at zero for Y uniform on
    the centred cube: the box spline of the edge vectors at their
    half-sum (de Boor, Hoellig and Riemenschneider, Box Splines, 1993).
    Edge orientation does not change that density, so each edge is stored
    from its lower to its higher block.
    """
    omega = partition.omega
    edges = tuple(
        sorted(
            (min(a, b) - 1, max(a, b) - 1)
            for a, b in zip(omega[-1:] + omega[:-1], omega)
            if a != b
        )
    )
    doubled = [0] * partition.k
    for a, b in edges:
        doubled[a] -= 1
        doubled[b] += 1
    volume = _box_spline(edges, tuple(doubled))
    if not 0 < volume <= 1:
        raise NumericalError(
            f"pinned volume {volume} for {partition} is outside (0, 1]"
        )
    return IntegralValue(float(volume), 0.0, "exact_volume", exact=volume)


# ---------------------------------------------------------------------------
# randomized QMC for the characteristic-function regimes
# ---------------------------------------------------------------------------


def cf_integral(
    partition: Partition,
    grouping: Partition,
    beta: float,
    d: int,
    dist: JitterDistribution,
    opts: QmcOptions | None = None,
) -> IntegralValue:
    """Characteristic-function integral for a partially pinned pair.

    For a single coarse block nothing is pinned and the average runs over
    the whole cube; otherwise the pivot coordinates follow from the free
    ones through the integer solution map of ``constraint_system``.
    The estimate and its standard error come from independent scrambled
    replicates; the imaginary part must stay within the realness tolerance
    and is then discarded.
    """
    opts = opts or QmcOptions()
    p, k = partition.p, partition.k
    if grouping.p != k:
        raise ValueError(f"grouping must partition {{1,...,{k}}}")
    h = grouping.k
    if k == 1:
        raise ValueError("single-block fine partition is the exact-unity case")
    if h >= k:
        raise ValueError("fully pinned pairs are handled by delta_volume")
    if not 0 < beta <= 1:
        raise ValueError(f"aspect ratio must be in (0, 1], got {beta}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")

    system = constraint_system(partition, grouping)
    free_cols = list(system.free_columns)
    pivot_cols = list(system.pivot_columns)
    n_free = len(free_cols)
    solution = np.array(system.solution, dtype=float).reshape(system.rank, n_free)
    forms = difference_matrix(partition).astype(float)
    scale = beta ** (1.0 / d)

    estimates = np.empty(opts.replicates, dtype=complex)
    for rep in range(opts.replicates):
        rng = np.random.default_rng([opts.seed & 0xFFFFFFFF, rep])
        if opts.sampler == "sobol":
            points = qmc.Sobol(d=n_free, scramble=True, seed=rng).random(opts.points)
        else:
            points = rng.random((opts.points, n_free))
        y_free = points - 0.5
        y = np.empty((opts.points, p))
        y[:, free_cols] = y_free
        if system.rank:
            y_pivot = y_free @ solution.T
            y[:, pivot_cols] = y_pivot
            inside = np.all(np.abs(y_pivot) <= 0.5, axis=1)
        else:
            inside = None
        values = np.prod(dist.cf(scale * (y @ forms.T)), axis=1)
        if inside is not None:
            values = np.where(inside, values, 0.0)
        estimates[rep] = values.mean()

    real = estimates.real
    value = float(real.mean())
    std_error = float(real.std(ddof=1) / np.sqrt(opts.replicates))
    imag_residual = float(abs(estimates.imag.mean()))
    if imag_residual > opts.realness_factor * max(std_error, 1e-9):
        raise RealnessError(
            f"imaginary residual {imag_residual:.3e} exceeds the tolerance for "
            f"pair ({partition}, {grouping}) with jitter {dist.kind}; the "
            "integrand is not real enough to discard its imaginary part"
        )
    method = "plain_qmc" if h == 1 else "qmc_constrained"
    return IntegralValue(value, std_error, method, imag_residual)


def term_integral(
    partition: Partition,
    grouping: Partition,
    beta: float,
    d: int,
    dist: JitterDistribution,
    opts: QmcOptions | None = None,
) -> IntegralValue:
    """Dispatch a partition pair to its evaluation regime."""
    if grouping.p != partition.k:
        raise ValueError(f"grouping must partition {{1,...,{partition.k}}}")
    if partition.k == 1:
        return unity()
    if grouping.k == partition.k:
        return delta_volume(partition)
    return cf_integral(partition, grouping, beta, d, dist, opts)


# ---------------------------------------------------------------------------
# finite-grid cross-check
# ---------------------------------------------------------------------------


def finite_grid_term(
    partition: Partition,
    grouping: Partition,
    box: int,
    beta: float,
    d: int,
    dist: JitterDistribution,
    budget: int = 10**8,
) -> float:
    """Exact finite half-bandwidth evaluation of an integral factor.

    Sums the characteristic-function product over integer label offsets in
    [-box, box]^p satisfying the pinned-sum constraints, normalized by
    (2*box+1)^(p-h+1); deterministic, and converges to the corresponding
    integral as the box grows.  The p-h+1 free labels run over
    [-box, box] and the pivot labels follow from the integer solution map,
    so the enumeration meets every lattice point once; each point is
    checked against the merged rows in integers.
    """
    if box < 1:
        raise ValueError(f"half-bandwidth must be >= 1, got {box}")
    if grouping.p != partition.k:
        raise ValueError(f"grouping must partition {{1,...,{partition.k}}}")
    if not 0 < beta <= 1:
        raise ValueError(f"aspect ratio must be in (0, 1], got {beta}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    p = partition.p
    pinned = merged_difference_rows(partition, grouping)
    system = constraint_system(partition, grouping)
    free_cols = list(system.free_columns)
    pivot_cols = list(system.pivot_columns)
    solution = np.array(system.solution, dtype=np.int64)
    solution = solution.reshape(len(pivot_cols), len(free_cols))
    width = 2 * box + 1
    shape = (width,) * len(free_cols)
    nodes = width ** len(free_cols)
    if nodes > budget:
        raise BudgetError(
            f"finite-grid enumeration needs {nodes:.2e} nodes, over the "
            f"budget {budget}"
        )
    forms = difference_matrix(partition)
    scale = beta ** (1.0 / d) / width
    chunk = 1 << 18
    total = 0.0 + 0.0j
    for start in range(0, nodes, chunk):
        flat = np.arange(start, min(start + chunk, nodes), dtype=np.int64)
        free = np.stack(np.unravel_index(flat, shape), axis=1) - box
        y = np.empty((len(flat), p), dtype=np.int64)
        y[:, free_cols] = free
        y[:, pivot_cols] = free @ solution.T
        y = y[np.all(np.abs(y) <= box, axis=1)]
        if (y @ pinned.T).any():
            raise NumericalError(
                f"solution map of ({partition}, {grouping}) leaves the kernel"
            )
        total += np.prod(dist.cf(scale * (y @ forms.T)), axis=1).sum()
    return float(total.real / nodes)
