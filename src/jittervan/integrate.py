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
* Partial pinning: the zero set of the pinned sums is y = B @ x, with B
  the integer basis of ``constraint_system``: the fundamental cycles of a
  spanning tree of the walk through the groups.  B's rows at the free
  coordinates are the identity, so x carries unit weight and the domain
  is the polytope P = {x : |B @ x| <= 1/2}.  B is totally unimodular, so
  the doubled vertices of P lie in {-1, 0, 1}^n and are found in integers;
  its boundary is triangulated by pulling, each boundary simplex is coned
  from the origin, and each cone takes Stroud's collapsed Gauss-Jacobi
  rule, whose roots come from the Golub-Welsch eigenproblem.

The integrand is entire (every law has compact support), so both rules
converge geometrically in the nodes per axis.  The domain is centrally
symmetric and the integrand takes conjugate values at x and -x, for any
law, so half the nodes suffice and the integral is twice the real part of
their sum: real by construction.  The same two identities, cf(0) = 1 and
cf(-t) = conj cf(t), fold the forms: zero rows drop out and rows that repeat
another up to sign share one cf evaluation.  The error is the deterministic
difference between the value at VALUE_ORDER nodes per axis and the rule
at CHECK_ORDER.

Each set-up is memoised by what it depends on: the folded forms and cells
(the half cones, or the half cube's identity cell) by the pair, the cones
by B, the base rules by dimension and order.  One loop maps a base rule
onto a group of cells at a time, so no call holds a whole mapped rule.

A finite-grid evaluator of the same quantity at finite half-bandwidth M is
provided as an independent cross-check; it converges to the integral as M
grows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .constraints import (
    constraint_system,
    difference_matrix,
    merged_difference_rows,
    spanning_tree,
    tree_flows,
)
from .errors import BudgetError, NumericalError, _check_dimension
from .jitter import JitterDistribution
from .partitions import Partition

#: Gauss nodes per axis of the reported value, and of the lower-order rule
#: whose difference from it is the reported error.
VALUE_ORDER = 8
CHECK_ORDER = 6
#: Nodes evaluated per batch, which bounds the temporary arrays: the moments
#: p = 1..5 at (0.55, 2) peak at about 42 MB resident this way, 66 MB unbatched.
_BATCH = 1 << 12
#: Lattice nodes the finite-grid cross-check may enumerate.
GRID_BUDGET = 10**8


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


def _golub_welsch(order: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights of weight (1 - x)^alpha on [-1, 1].

    Golub and Welsch (Math. Comp., 1969): the nodes are the eigenvalues of
    the Jacobi matrix of the orthonormal recurrence, and the weights are
    mu_0 v_0^2 for the unit eigenvectors v, mu_0 = 2^(alpha+1) / (alpha+1).
    The eigenvector of node x is (p_0(x), ..., p_{order-1}(x)) for the
    orthonormal polynomials p_k, so mu_0 v_0^2 = 1 / sum_k p_k(x)^2: a sum
    of positive terms, accurate relative to the smallest weight where the
    first component of a computed eigenvector is not.  One Newton step on
    p_order polishes the nodes first.  For alpha = 0 nodes and weights are
    made exactly mirror-symmetric.
    """
    a = float(alpha)
    k = np.arange(1, order + 1)
    s = 2 * k + a
    # the Jacobi matrix: diagonal diag[0..order-1], off-diagonal off[0..order-2];
    # off[order-1] closes the recurrence for p_order
    diag = np.r_[-a / (a + 2), -a * a / (s[:-1] * (s[:-1] + 2))]
    off = 2 * k * (k + a) / (s * np.sqrt((s + 1) * (s - 1)))

    def recurrence(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """p_order and its derivative at x, and sum_{k < order} p_k(x)^2."""
        # p_0 = mu_0^(-1/2)
        p_prev, p = 0.0, np.full_like(x, (a + 1) ** 0.5 / 2 ** ((a + 1) / 2))
        dp_prev, dp = 0.0, np.zeros_like(x)
        squares = np.zeros_like(x)
        for j in range(order):
            back = off[j - 1] if j else 0.0
            squares += p * p
            p_prev, p, dp_prev, dp = (
                p,
                ((x - diag[j]) * p - back * p_prev) / off[j],
                dp,
                (p + (x - diag[j]) * dp - back * dp_prev) / off[j],
            )
        return p, dp, squares

    band = off[:-1]
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(band, 1) + np.diag(band, -1))
    p, dp, _ = recurrence(x)
    x = x - p / dp
    w = 1.0 / recurrence(x)[2]
    if alpha == 0:
        x, w = (x - x[::-1]) / 2, (w + w[::-1]) / 2
    return x, w


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _gauss_jacobi(order: int, alpha: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only memo of ``_golub_welsch``; alpha = 0 is Gauss-Legendre."""
    return _read_only(*_golub_welsch(order, alpha))


def _tensor(axes) -> tuple[np.ndarray, np.ndarray]:
    """Product rule of one (nodes, weights) pair per axis."""
    nodes = np.stack(np.meshgrid(*[x for x, _ in axes], indexing="ij"), axis=-1)
    weights = np.ones(())
    for _, w in axes:
        weights = np.multiply.outer(weights, w)
    return nodes.reshape(-1, len(axes)), weights.ravel()


@lru_cache(maxsize=None)
def _cube_half_rule(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre on [-1/2, 1/2]^n, nodes with x_1 > 0 only.

    ``order`` is even, so no node lies on x_1 = 0 and the rule is the
    disjoint union of this half and its mirror image.  A read-only memo.
    """
    x, w = _gauss_jacobi(order, 0)
    axes = [(x / 2, w / 2)] * n
    axes[0] = (x[x > 0] / 2, w[x > 0] / 2)
    return _read_only(*_tensor(axes))


@lru_cache(maxsize=None)
def _simplex_rule(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed Gauss-Jacobi rule on the simplex {l >= 0, sum l <= 1}.

    Stroud's conical product: l_j = u_j * prod_{i<j} (1 - u_i) maps the
    unit cube onto the simplex with Jacobian prod_i (1 - u_i)^(n-i), and
    axis i takes the Gauss-Jacobi rule of that weight.  Exact for
    polynomials of total degree 2 * order - 1; the weights sum to 1/n!.
    A read-only memo.
    """
    axes = []
    for i in range(1, n + 1):
        x, w = _gauss_jacobi(order, n - i)
        axes.append(((1 + x) / 2, w / 2 ** (n - i + 1)))
    u, weights = _tensor(axes)
    lam = u.copy()
    lam[:, 1:] *= np.cumprod(1 - u[:, :-1], axis=1)
    return _read_only(lam, weights)


def _maximal(faces: list[int]) -> list[int]:
    """The distinct nonzero vertex bitmasks in ``faces`` that no other holds."""
    return [
        f for f in dict.fromkeys(faces) if f and not any(f & g == f != g for g in faces)
    ]


@lru_cache(maxsize=None)
def _half_cones(data: bytes, shape: tuple[int, int]) -> np.ndarray:
    """Cones from the origin over half the boundary of P, as vertex rows.

    The int64 basis B arrives as its bytes and shape, the memo key.
    P = {x : |B @ x| <= 1/2} is centrally symmetric, so the facets whose
    outward normal leads with a positive entry and their mirror images tile
    its boundary.  B is totally unimodular and holds the identity rows, so
    every doubled vertex 2x lies in {-1, 0, 1}^n.  The vertices are the
    feasible candidates there whose tight rows have rank n: the face those
    rows cut out is integral too, so it is the point alone exactly when no
    other candidate is tight on all of them.  A facet is a signed row whose
    set of tight vertices is maximal.  Each facet is triangulated by
    pulling (De Loera, Rambau and Santos, Triangulations, 2010, 4.3): a
    face is coned from its least vertex over the triangulations of its
    sub-faces that miss that vertex, the sub-faces being its maximal proper
    intersections with the facets.  Faces are vertex bitmasks, each
    triangulated once, and everything before the final halving is integer
    arithmetic.  Returns a read-only array of shape (cones, n, n).
    """
    basis = np.frombuffer(data, dtype=np.int64).reshape(shape)
    candidates = np.array(list(itertools.product((-1, 0, 1), repeat=shape[1])))
    values = candidates @ basis.T
    feasible = (np.abs(values) <= 1).all(axis=1)
    candidates, values = candidates[feasible], values[feasible]
    tight = np.hstack([values == 1, values == -1])
    covered = (tight[:, None, :] <= tight[None, :, :]).all(axis=2).sum(axis=1)
    vertices = candidates[covered == 1]

    rows = np.vstack([basis, -basis])
    masks = [
        sum(1 << int(i) for i in np.flatnonzero(column))
        for column in (vertices @ rows.T == 1).T
    ]
    facets = _maximal(masks)
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    positive = dict.fromkeys(
        m for m, sign in zip(masks, lead) if sign > 0 and m in facets
    )
    simplices: dict[int, list[int]] = {}

    def pull(face: int) -> list[int]:
        if face not in simplices:
            apex = face & -face
            subs = _maximal([face & f for f in facets if face & f != face])
            simplices[face] = [
                s | apex for sub in subs if not sub & apex for s in pull(sub)
            ] or [face]
        return simplices[face]

    cones = [
        [i for i in range(len(vertices)) if simplex >> i & 1]
        for facet in positive
        for simplex in pull(facet)
    ]
    return _read_only(vertices[np.array(cones)] / 2)[0]


def _fold(forms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct nonzero rows of an integer form matrix, up to sign.

    Returns the distinct rows, each led by a positive entry, and for every
    nonzero row of ``forms`` its index into them and whether it was negated.
    """
    forms = forms[forms.any(axis=1)]
    lead = forms[np.arange(len(forms)), np.argmax(forms != 0, axis=1)]
    flip = lead < 0
    distinct, index = np.unique(
        np.where(flip[:, None], -forms, forms), axis=0, return_inverse=True
    )
    return distinct, index.ravel(), flip


def _product(
    x: np.ndarray,
    folded: tuple[np.ndarray, np.ndarray, np.ndarray],
    dist: JitterDistribution,
) -> np.ndarray:
    """prod_j cf((forms @ x)_j) at each row of x, from the folded forms.

    ``folded`` is ``_fold`` of the forms with the distinct rows scaled.
    The law's cf is evaluated once per distinct row: a dropped zero row
    contributes cf(0) = 1, and a negated row cf(-t) = conj cf(t).
    """
    distinct, index, flip = folded
    values = dist.cf(x @ distinct.T)[:, index]
    np.conjugate(values, out=values, where=flip)
    return np.prod(values, axis=1)


def _evaluate(
    rule: tuple[np.ndarray, np.ndarray],
    cells: np.ndarray,
    folded: tuple[np.ndarray, np.ndarray, np.ndarray],
    dist: JitterDistribution,
) -> float:
    """2 Re sum of w * prod_j cf((forms @ x)_j) over a half rule.

    The base rule (l, w) maps onto each cell of vertex rows as x = l @ cell,
    weights |det cell| * w, a group of cells of about 8 * _BATCH nodes at a
    time, summed in _BATCH slices.  ``_product`` relies on cf(0) = 1 and
    cf(-t) = conj cf(t), so the mirror half, at -x, adds the conjugate.
    """
    base, weights = rule
    per_group = max(1, 8 * _BATCH // len(base))
    total = 0.0 + 0.0j
    for start in range(0, len(cells), per_group):
        group = cells[start : start + per_group]
        # the half cube's identity cell keeps l: a copy slows a fresh process
        nodes, scaled = base, weights
        if not (group == np.eye(group.shape[1])).all():
            nodes = (base @ group).reshape(-1, group.shape[1])
            scaled = np.multiply.outer(np.abs(np.linalg.det(group)), weights).ravel()
        for first in range(0, len(nodes), _BATCH):
            batch = slice(first, first + _BATCH)
            total += scaled[batch] @ _product(nodes[batch], folded, dist)
    return 2.0 * float(total.real)


@lru_cache(maxsize=None)
def _pair_setup(partition: Partition, grouping: Partition) -> tuple:
    """Read-only memo of a pair's folded forms ``difference_matrix @ B``, its
    cells and its base rule's memo: the half cones and the simplex rule, or
    for one coarse block the half cube's identity cell and tensor rule."""
    basis = constraint_system(partition, grouping)
    folded = _read_only(*_fold(difference_matrix(partition) @ basis))
    if grouping.k == 1:
        return folded, _read_only(np.eye(partition.p)[None])[0], _cube_half_rule
    return folded, _half_cones(basis.tobytes(), basis.shape), _simplex_rule


def cf_integral(
    partition: Partition,
    grouping: Partition,
    beta: float,
    d: int,
    dist: JitterDistribution,
) -> IntegralValue:
    """Characteristic-function integral for a partially pinned pair.

    The forms are taken on the zero set y = B @ x, B the integer basis of
    ``constraint_system``.  For a single coarse block B is the identity and
    the rule is tensor Gauss-Legendre on the whole cube; otherwise it is
    the conical product over P = {x : |B @ x| <= 1/2}, both mapped onto the
    pair's cells by one loop.  The value is the rule at VALUE_ORDER nodes
    per axis and the error its difference from the rule at CHECK_ORDER.
    """
    if grouping.p != partition.k:
        raise ValueError(f"grouping must partition {{1,...,{partition.k}}}")
    if grouping.k >= partition.k:
        raise ValueError("fully pinned pairs are handled by delta_volume")
    if not 0 < beta <= 1:
        raise ValueError(f"aspect ratio must be in (0, 1], got {beta}")
    _check_dimension(d)

    (distinct, index, flip), cells, rule = _pair_setup(partition, grouping)
    folded = (beta ** (1.0 / d) * distinct, index, flip)
    method = "gauss_cube" if grouping.k == 1 else "gauss_cones"
    value, check = (
        _evaluate(rule(cells.shape[1], order), cells, folded, dist)
        for order in (VALUE_ORDER, CHECK_ORDER)
    )
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
) -> float:
    """Exact finite half-bandwidth evaluation of an integral factor.

    Sums the characteristic-function product over integer label offsets in
    [-box, box]^p satisfying the pinned-sum constraints, normalized by
    (2*box+1)^(p-h+1); deterministic, and converges to the corresponding
    integral as the box grows.  The p-h+1 free labels x run over
    [-box, box] and the labels are y = B @ x, B the integer basis of
    ``constraint_system``, so the enumeration meets every lattice point
    once.  B is checked against the merged rows in integers, and the node
    count against GRID_BUDGET, before any node is enumerated.
    """
    if box < 1:
        raise ValueError(f"half-bandwidth must be >= 1, got {box}")
    if not 0 < beta <= 1:
        raise ValueError(f"aspect ratio must be in (0, 1], got {beta}")
    _check_dimension(d)
    basis = constraint_system(partition, grouping)
    if (merged_difference_rows(partition, grouping) @ basis).any():
        raise NumericalError(f"basis of ({partition}, {grouping}) leaves the kernel")
    width = 2 * box + 1
    shape = (width,) * basis.shape[1]
    nodes = width ** basis.shape[1]
    if nodes > GRID_BUDGET:
        raise BudgetError(
            f"finite-grid enumeration needs {nodes:.2e} nodes, over the "
            f"budget {GRID_BUDGET}"
        )
    forms = difference_matrix(partition)
    scale = beta ** (1.0 / d) / width
    chunk = 1 << 18
    total = 0.0 + 0.0j
    for start in range(0, nodes, chunk):
        flat = np.arange(start, min(start + chunk, nodes), dtype=np.int64)
        y = (np.stack(np.unravel_index(flat, shape), axis=1) - box) @ basis.T
        y = y[np.all(np.abs(y) <= box, axis=1)]
        total += np.prod(dist.cf(scale * (y @ forms.T)), axis=1).sum()
    return float(total.real / nodes)
