"""Partition-pair integral factors of the moment expansion.

Every moment term carries a factor v attached to a partition pair: the
fine partition fixes the difference forms, the coarse one fixes which sums
of them are pinned to zero.  Three regimes are evaluated here.

* All forms pinned (coarse partition all singletons): the factor is the
  normalized volume of the zero set inside the centered unit cube.  The
  difference forms are the incidence matrix of a graph on the blocks, so
  the volume is a box-spline value, computed exactly in rationals by the
  box-spline recurrence.  A one-block fine partition is this case with no
  edges, whose box spline is 1.
* No pinning (single coarse block): the characteristic-function product
  integrated over the whole cube by tensor Gauss-Legendre.
* Partial pinning: the pinned sums are solved on a spanning tree of the
  walk through the groups, which writes the pivot coordinates as integer
  combinations of the free ones.  The tree coordinates are unimodular, so
  the free coordinates carry unit weight and the domain is the polytope P
  of free coordinates whose pivots stay inside the cube.  Its constraint
  matrix is totally unimodular, so its vertices are half-integers; its
  boundary is triangulated, each boundary simplex is coned from the
  origin, and each cone takes Stroud's collapsed Gauss-Jacobi rule.

The integrand is entire (every law has compact support), so both rules
converge geometrically in the nodes per axis.  The domain is centrally
symmetric and the integrand takes conjugate values at x and -x, for any
law, so half the nodes suffice and the integral is twice the real part of
their sum: real by construction.  The error is the deterministic
difference between the value at VALUE_ORDER nodes per axis and the rule
at CHECK_ORDER.

A finite-grid evaluator of the same quantity at finite half-bandwidth M is
provided as an independent cross-check; it converges to the integral as M
grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.spatial import ConvexHull, HalfspaceIntersection
from scipy.special import roots_jacobi, roots_legendre

from .constraints import (
    constraint_system,
    difference_matrix,
    merged_difference_rows,
    spanning_tree,
    tree_flows,
)
from .errors import BudgetError, NumericalError
from .jitter import JitterDistribution
from .partitions import Partition

#: Gauss nodes per axis of the reported value, and of the lower-order rule
#: whose difference from it is the reported error.
VALUE_ORDER = 8
CHECK_ORDER = 6
#: Nodes evaluated per batch, which bounds the temporary arrays: the
#: moments p = 1..5 peak at about 91 MB resident this way, 121 MB unbatched.
_BATCH = 1 << 12


@dataclass(frozen=True)
class QmcOptions:
    """Sampling options that the analytic path accepts and ignores.

    The cf regimes are evaluated by deterministic cubature at fixed
    orders, so no field changes a value; callers that build options keep
    working.
    """

    points: int = 2**14
    replicates: int = 16
    seed: int = 0
    sampler: str = "sobol"


@dataclass(frozen=True)
class IntegralValue:
    """One evaluated integral factor with its error bookkeeping.

    ``std_error`` is the error estimate: zero on the exact paths, the
    difference between two cubature orders on the cf paths.  Exact paths
    store the value additionally as a Fraction.
    """

    value: float
    std_error: float
    method: str
    exact: Fraction | None = None


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
# Gauss cubature for the characteristic-function regimes
# ---------------------------------------------------------------------------


def _tensor(axes) -> tuple[np.ndarray, np.ndarray]:
    """Product rule of one (nodes, weights) pair per axis."""
    nodes = np.stack(np.meshgrid(*[x for x, _ in axes], indexing="ij"), axis=-1)
    weights = np.ones(())
    for _, w in axes:
        weights = np.multiply.outer(weights, w)
    return nodes.reshape(-1, len(axes)), weights.ravel()


def _cube_half_rule(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre on [-1/2, 1/2]^n, nodes with x_1 > 0 only.

    ``order`` is even, so no node lies on x_1 = 0 and the rule is the
    disjoint union of this half and its mirror image.
    """
    x, w = roots_legendre(order)
    axes = [(x / 2, w / 2)] * n
    axes[0] = (x[x > 0] / 2, w[x > 0] / 2)
    return _tensor(axes)


def _simplex_rule(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed Gauss-Jacobi rule on the simplex {l >= 0, sum l <= 1}.

    Stroud's conical product: l_j = u_j * prod_{i<j} (1 - u_i) maps the
    unit cube onto the simplex with Jacobian prod_i (1 - u_i)^(n-i), and
    axis i takes the Gauss-Jacobi rule of that weight.  Exact for
    polynomials of total degree 2 * order - 1; the weights sum to 1/n!.
    """
    axes = []
    for i in range(1, n + 1):
        x, w = roots_jacobi(order, n - i, 0)
        axes.append(((1 + x) / 2, w / 2 ** (n - i + 1)))
    u, weights = _tensor(axes)
    lam = u.copy()
    lam[:, 1:] *= np.cumprod(1 - u[:, :-1], axis=1)
    return lam, weights


def _half_cones(solution: np.ndarray) -> np.ndarray:
    """Cones from the origin over half the boundary of P, as vertex rows.

    P = {x in [-1/2, 1/2]^n : |solution @ x| <= 1/2} is centrally
    symmetric, so the facets whose outward normal is lexicographically
    positive and their mirror images tile its boundary.  The constraint
    matrix is totally unimodular, so the vertices found by the halfspace
    intersection are rounded to their exact half-integer values before the
    boundary is triangulated.
    """
    n = solution.shape[1]
    rows = np.vstack([np.eye(n), solution])
    rows = np.unique(np.vstack([rows, -rows]), axis=0)
    halfspaces = np.hstack([rows, np.full((len(rows), 1), -0.5)])
    vertices = HalfspaceIntersection(halfspaces, np.zeros(n)).intersections
    vertices = np.unique(np.round(2 * vertices) / 2, axis=0)
    hull = ConvexHull(vertices, qhull_options="Qt")
    normals = hull.equations[:, :-1]
    lead = normals[np.arange(len(normals)), np.argmax(np.abs(normals) > 1e-9, axis=1)]
    return vertices[hull.simplices[lead > 0]]


def _cone_half_rule(cones: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The simplex rule mapped onto every cone: x = l @ vertex rows."""
    lam, weights = _simplex_rule(cones.shape[1], order)
    nodes = (lam @ cones).reshape(-1, cones.shape[1])
    volumes = np.abs(np.linalg.det(cones))
    return nodes, np.multiply.outer(volumes, weights).ravel()


def _evaluate(
    nodes: np.ndarray, weights: np.ndarray, forms: np.ndarray, dist: JitterDistribution
) -> float:
    """2 Re sum of w * prod_j cf((forms @ x)_j) over a half rule.

    The mirror half contributes the complex conjugate: forms @ (-x) =
    -(forms @ x) and cf(-t) = conj cf(t).
    """
    total = 0.0 + 0.0j
    for start in range(0, len(nodes), _BATCH):
        batch = nodes[start : start + _BATCH]
        values = np.prod(dist.cf(batch @ forms.T), axis=1)
        total += weights[start : start + _BATCH] @ values
    return 2.0 * float(total.real)


def cf_integral(
    partition: Partition,
    grouping: Partition,
    beta: float,
    d: int,
    dist: JitterDistribution,
) -> IntegralValue:
    """Characteristic-function integral for a partially pinned pair.

    For a single coarse block nothing is pinned and the rule is tensor
    Gauss-Legendre on the whole cube; otherwise the pivot coordinates
    follow from the free ones through the integer solution map of
    ``constraint_system`` and the rule is the conical product over the
    free-coordinate polytope.  The value is the rule at VALUE_ORDER nodes
    per axis and the error its difference from the rule at CHECK_ORDER.
    """
    p, k = partition.p, partition.k
    if grouping.p != k:
        raise ValueError(f"grouping must partition {{1,...,{k}}}")
    h = grouping.k
    if h >= k:
        raise ValueError("fully pinned pairs are handled by delta_volume")
    if not 0 < beta <= 1:
        raise ValueError(f"aspect ratio must be in (0, 1], got {beta}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")

    system = constraint_system(partition, grouping)
    free_cols = list(system.free_columns)
    pivot_cols = list(system.pivot_columns)
    solution = np.array(system.solution, dtype=float).reshape(system.rank, len(free_cols))
    forms = difference_matrix(partition).astype(float)
    # the forms as functions of the free coordinates, scaled
    forms = beta ** (1.0 / d) * (forms[:, free_cols] + forms[:, pivot_cols] @ solution)
    if h == 1:
        method = "gauss_cube"
        rules = [_cube_half_rule(p, order) for order in (VALUE_ORDER, CHECK_ORDER)]
    else:
        method = "gauss_cones"
        cones = _half_cones(solution)
        rules = [_cone_half_rule(cones, order) for order in (VALUE_ORDER, CHECK_ORDER)]
    value, check = (_evaluate(nodes, weights, forms, dist) for nodes, weights in rules)
    return IntegralValue(value, abs(value - check), method)


def term_integral(
    partition: Partition,
    grouping: Partition,
    beta: float,
    d: int,
    dist: JitterDistribution,
) -> IntegralValue:
    """Dispatch a pair: fully pinned (one-block fine partitions included)
    to the exact volume, every other pair to the cf cubature."""
    if grouping.p != partition.k:
        raise ValueError(f"grouping must partition {{1,...,{partition.k}}}")
    if grouping.k == partition.k:
        return delta_volume(partition)
    return cf_integral(partition, grouping, beta, d, dist)


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
