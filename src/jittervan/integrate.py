"""Partition-pair integral factors of the moment expansion.

Every moment term carries a factor v attached to a partition pair: the
fine partition fixes the difference forms, the coarse one fixes which sums
of them are pinned to zero.  Three regimes are evaluated here.

* All forms pinned (coarse partition all singletons): the factor is the
  normalized volume of the zero set inside the centered unit cube, the
  polytope P of the partial case below for the walk itself.  It is read
  exactly off the cones that triangulate P: their doubled vertices are
  integers, so each cone's volume is an integer over 2^n n!.  A one-block
  fine partition leaves the whole cube, of volume 1.
* No pinning (single coarse block): the characteristic-function product
  integrated over the whole cube by tensor Gauss-Legendre.
* Partial pinning: the zero set of the pinned sums is y = B @ x, with B
  the integer basis of ``constraint_system`` of the walk through the
  groups: the fundamental cycles of a spanning tree of that walk.  B's
  rows at the free coordinates are the identity, so x carries unit weight
  and the domain is the polytope P = {x : |B @ x| <= 1/2}.  B is totally
  unimodular, so the doubled vertices of P lie in {-1, 0, 1}^n and are
  found in integers; its boundary is triangulated by pulling, each
  boundary simplex is coned from the origin, and each cone takes Stroud's
  collapsed Gauss-Jacobi rule, whose roots come from the Golub-Welsch
  eigenproblem.

The integrand is entire (every law has compact support), so both rules
converge geometrically in the nodes per axis.  The forms' columns sum to
zero, so the phase of cf(t) = e^{-i pi t} phi(t) cancels and the
integrand is the product of the law's centred cf phi.  The domain is
centrally symmetric and the integrand takes conjugate values at x and -x,
for any law, so half the nodes suffice and the integral is twice the real
part of their sum: real by construction.  The same two identities,
phi(0) = 1 and phi(-t) = conj phi(t), fold the forms: zero rows drop out
and rows that repeat another up to sign share one evaluation.  One path
serves every law; a built-in law is symmetric about 1/2, so its phi and
integrand are real.  The error is the deterministic difference between
the value at VALUE_ORDER nodes per axis and the rule at CHECK_ORDER.

Each set-up is memoised by what it depends on: the geometry (B, cells,
volumes, rule) by the walk through the groups, which the exact pinned
volume reads as well, the forms on those cells by the pair, the base
rules by dimension, order and batch size.  A base rule is held as its
leading axes and one batch of its trailing axes, generated a batch at a
time in row order; one loop evaluates each batch on a group of cells of
at most _BATCH nodes, so a call holds about one batch of nodes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .constraints import constraint_system, difference_matrix, group_walk
from .errors import NumericalError
from .errors import _check_aspect_ratio, _check_integer, _check_law
from .jitter import JitterDistribution
from .partitions import Partition

#: Gauss nodes per axis of the reported value, and of the lower-order rule
#: whose difference from it is the reported error.
VALUE_ORDER = 8
CHECK_ORDER = 6
#: Nodes evaluated and held per batch, which bounds the temporary arrays and
#: the base rules: the moments p = 1..5 at (0.55, 2), uniform law, peak at
#: about 33 MB resident in a fresh process this way, 49 MB unbatched.
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


def delta_volume(partition: Partition) -> IntegralValue:
    """Normalized volume of the fully pinned zero set of a walk, read
    exactly off the walk's ``_walk_cells``.

    One group leaves the whole cube, of volume 1, and builds no cells.
    Otherwise the cells are the cones from the origin over half the boundary
    of P = {x : |B @ x| <= 1/2}, and the cones and their mirrors tile P.  Each
    cone's doubled vertex rows 2V are integers, so |det 2V| = 2^n |det V| is
    an integer and vol P = 2 sum |det 2V| / (2^n n!), n = B.shape[1]
    (De Loera, Rambau and Santos, Triangulations, 2010, 4.3).
    """
    if partition.k == 1:
        volume = Fraction(1)
    else:
        basis, _, volumes, _, _ = _walk_cells(partition)
        n = basis.shape[1]
        dets = volumes * 2.0**n
        whole = np.round(dets)
        if np.abs(dets - whole).max() > 1e-9:
            raise NumericalError(f"cone determinants of {partition} are not integers")
        volume = Fraction(2 * int(whole.sum()), 2**n * math.factorial(n))
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


def _prepend(
    axis, nodes: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The product rule of one axis followed by the rule (nodes, weights).

    ``axis`` holds the axis's nodes u, its weights and, per node, the scale
    that the later coordinates take: 1 on the cube, 1 - u under Stroud's
    collapsed map.  Rows run over the axis's nodes first, so prepending
    the axes from the last to the first builds the tensor rule in row
    order, and every row takes the same products whichever axes were
    prepended before.
    """
    u, w, scale = axis
    out = np.empty((len(u), len(nodes), nodes.shape[1] + 1))
    out[:, :, 0] = u[:, None]
    np.multiply(scale[:, None, None], nodes, out=out[:, :, 1:])
    return out.reshape(-1, nodes.shape[1] + 1), np.multiply.outer(w, weights).ravel()


def _split_rule(axes: list, batch: int) -> tuple:
    """A tensor rule held as its leading axes and the product of its
    trailing axes, the most of them whose product has at most ``batch``
    nodes.  Read-only."""
    lead, nodes, weights = list(axes), np.ones((1, 0)), np.ones(1)
    while lead and len(lead[-1][0]) * len(nodes) <= batch:
        nodes, weights = _prepend(lead.pop(), nodes, weights)
    return (tuple(_read_only(*axis) for axis in lead), *_read_only(nodes, weights))


def _batches(rule: tuple):
    """The rule's (nodes, weights), one batch per node of its leading axes,
    in row order; a rule with no leading axes is its one batch."""
    lead, nodes, weights = rule
    for point in itertools.product(*(range(len(axis[0])) for axis in lead)):
        batch = nodes, weights
        for axis, i in zip(lead[::-1], point[::-1]):
            batch = _prepend([a[i : i + 1] for a in axis], *batch)
        yield batch


@lru_cache(maxsize=None)
def _cube_half_rule(n: int, order: int, batch: int) -> tuple:
    """Tensor Gauss-Legendre on [-1/2, 1/2]^n, nodes with x_1 > 0 only.

    ``order`` is even, so no node lies on x_1 = 0 and the rule is the
    disjoint union of this half and its mirror image.  A read-only memo
    of ``_split_rule``.
    """
    x, w = _gauss_jacobi(order, 0)
    half, ones = x > 0, np.ones(order)
    axes = [(x / 2, w / 2, ones)] * n
    axes[0] = (x[half] / 2, w[half] / 2, ones[half])
    return _split_rule(axes, batch)


@lru_cache(maxsize=None)
def _simplex_rule(n: int, order: int, batch: int) -> tuple:
    """Collapsed Gauss-Jacobi rule on the simplex {l >= 0, sum l <= 1}.

    Stroud's conical product: l_j = u_j * prod_{i<j} (1 - u_i) maps the
    unit cube onto the simplex with Jacobian prod_i (1 - u_i)^(n-i), and
    axis i takes the Gauss-Jacobi rule of that weight.  Exact for
    polynomials of total degree 2 * order - 1; the weights sum to 1/n!.
    Each l_j is taken as (1 - u_1)((1 - u_2)(... u_j)), so once the
    leading u are fixed the map only scales the trailing coordinates.  A
    read-only memo of ``_split_rule``.
    """
    axes = []
    for i in range(1, n + 1):
        x, w = _gauss_jacobi(order, n - i)
        u = (1 + x) / 2
        axes.append((u, w / 2 ** (n - i + 1), 1 - u))
    return _split_rule(axes, batch)


def _maximal(faces: list[int]) -> list[int]:
    """The distinct nonzero vertex bitmasks in ``faces`` that no other holds."""
    return [
        f for f in dict.fromkeys(faces) if f and not any(f & g == f != g for g in faces)
    ]


@lru_cache(maxsize=None)
def _walk_cells(walk: Partition) -> tuple:
    """Read-only memo of a walk through the groups' geometry: its basis
    B = ``constraint_system(walk)``, the vertex rows V of the cells of half
    its domain, their volumes |det V|, and the base rule with its method.

    One group leaves the cube, whose half x_1 > 0 is one identity cell under
    the tensor rule.  Otherwise the cells are cones from the origin over
    half the boundary of P = {x : |B @ x| <= 1/2}, under the simplex rule.
    P is centrally symmetric, so the facets whose outward normal leads with
    a positive entry and their mirrors tile its boundary.  B is totally
    unimodular and holds the identity rows, so every doubled vertex 2x lies
    in {-1, 0, 1}^n.  The vertices are the feasible candidates there whose
    tight rows have rank n: the face those rows cut out is integral too, so
    it is the point alone exactly when no other candidate is tight on all of
    them.  A facet is a signed row whose set of tight vertices is maximal.
    Each facet is triangulated by pulling (De Loera, Rambau and Santos,
    Triangulations, 2010, 4.3): a face is coned from its least vertex over
    the triangulations of its sub-faces that miss that vertex, the sub-faces
    being its maximal proper intersections with the facets.  Faces are
    vertex bitmasks, each triangulated once, and everything before the final
    halving is integer arithmetic.
    """
    basis = constraint_system(walk)
    if walk.k == 1:
        cells = np.eye(walk.p)[None]
        return (*_read_only(basis, cells, np.ones(1)), _cube_half_rule, "gauss_cube")
    candidates = np.array(list(itertools.product((-1, 0, 1), repeat=basis.shape[1])))
    values = candidates @ basis.T
    feasible = (np.abs(values) <= 1).all(axis=1)
    candidates, values = candidates[feasible], values[feasible]
    tight = np.hstack([values == 1, values == -1])
    covered = (tight[:, None, :] <= tight[None, :, :]).all(axis=2).sum(axis=1)
    vertices, tight = candidates[covered == 1], tight[covered == 1]

    masks = [sum(1 << int(i) for i in np.flatnonzero(column)) for column in tight.T]
    facets = _maximal(masks)
    lead = basis[np.arange(len(basis)), np.argmax(basis != 0, axis=1)]
    positive = dict.fromkeys(
        m for m, sign in zip(masks, np.r_[lead, -lead]) if sign > 0 and m in facets
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
    cells = vertices[np.array(cones)] / 2
    volumes = np.abs(np.linalg.det(cells))
    return (*_read_only(basis, cells, volumes), _simplex_rule, "gauss_cones")


def _fold(forms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct nonzero rows of an integer form matrix up to sign, read-only.

    Returns the distinct rows, each led by a positive entry, and for every
    nonzero row of ``forms`` its index into them and whether it was negated.
    """
    forms = forms[forms.any(axis=1)]
    lead = forms[np.arange(len(forms)), np.argmax(forms != 0, axis=1)]
    flip = lead < 0
    distinct, index = np.unique(
        np.where(flip[:, None], -forms, forms), axis=0, return_inverse=True
    )
    return _read_only(distinct, index.ravel(), flip)


def _product(
    t: np.ndarray, index: np.ndarray, flip: np.ndarray, dist: JitterDistribution
) -> np.ndarray:
    """prod_j cf((forms @ x)_j) over the last axis of t, the values at x of
    the distinct forms of ``_fold``, through its index and flip.

    The phases of cf(t) = e^{-i pi t} phi(t) cancel, so the product is that
    of the law's centred cf phi, which may overwrite t.  A dropped zero row
    contributes phi(0) = 1, and a negated row takes phi(-t) = conj phi(t),
    which a real phi skips.  The rows multiply into one accumulator in
    ``index`` order, as ``np.prod`` over the gathered rows would.
    """
    values = dist._centred(t)
    rows = (
        np.conjugate(values[..., j]) if negated else values[..., j]
        for j, negated in zip(index, flip & np.iscomplexobj(values))
    )
    out = next(rows).copy()
    for row in rows:
        out *= row
    return out


def _evaluate(
    rule: tuple,
    cells: tuple[np.ndarray, np.ndarray],
    fold: tuple[np.ndarray, np.ndarray],
    dist: JitterDistribution,
) -> float:
    """2 Re sum of w * prod_j cf((forms @ x)_j) over a half rule.

    A cell of vertex rows V maps a node l to x = l @ V, so each batch (l, w)
    of the base rule takes the values l @ (V @ distinct.T) of the forms,
    weights |det V| * w, a group of cells of at most _BATCH nodes at a time.
    The group sums are added exactly, so splitting the nodes finer adds
    no rounding.  The integrand takes conjugate values at x and -x,
    so the mirror half adds the conjugate of this half's sum.
    """
    forms, volumes = cells
    # glibc hands the free top of its heap back to the system once it
    # exceeds twice the largest block freed by unmapping.  In a fresh
    # process a batch's temporaries exceed that, and every batch would
    # fault its pages in anew; freeing one untouched block of 32 doubles
    # per node of a batch raises the mark above them and costs no page.
    np.empty((_BATCH, 32))
    sums = []
    for nodes, weights in _batches(rule):
        per_group = max(1, _BATCH // len(nodes))
        for start in range(0, len(forms), per_group):
            group = slice(start, start + per_group)
            values = _product(nodes @ forms[group], *fold, dist).ravel()
            scaled = np.multiply.outer(volumes[group], weights).ravel()
            sums.append((scaled @ values).real)
    return 2.0 * math.fsum(sums)


@lru_cache(maxsize=None)
def _pair_setup(partition: Partition, grouping: Partition) -> tuple:
    """Read-only memo of a pair's forms ``difference_matrix @ B`` on its
    walk's ``_walk_cells``: each cell's forms V @ distinct.T (exact: 2V and
    the forms are integers) and |det V|, ``_fold``'s index and flip, the
    rule and the method."""
    walk = group_walk(partition, grouping)
    if walk.k == partition.k:
        raise ValueError("fully pinned pairs are handled by delta_volume")
    basis, vertices, volumes, rule, method = _walk_cells(walk)
    distinct, index, flip = _fold(difference_matrix(partition) @ basis)
    return _read_only(vertices @ distinct.T, volumes), (index, flip), rule, method


def cf_integral(
    partition: Partition,
    grouping: Partition,
    beta: float,
    d: int,
    dist: JitterDistribution,
) -> IntegralValue:
    """Characteristic-function integral for a partially pinned pair.

    The forms on the zero set y = B @ x of the walk through the groups are
    integrated over that walk's ``_walk_cells`` by one loop.  The value is
    the rule at VALUE_ORDER nodes per axis and the error its difference
    from the rule at CHECK_ORDER.
    """
    beta = _check_aspect_ratio(beta)
    d = _check_integer(d, "dimension")
    _check_law(dist)

    (forms, volumes), fold, rule, method = _pair_setup(partition, grouping)
    cells = beta ** (1.0 / d) * forms, volumes
    value, check = (
        _evaluate(rule(forms.shape[1], order, _BATCH), cells, fold, dist)
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
    """Dispatch a pair: fewer groups than blocks to the cf cubature, any
    other to the exact volume of its walk through the groups."""
    _check_law(dist)
    if grouping.k < partition.k:
        return cf_integral(partition, grouping, beta, d, dist)
    beta = _check_aspect_ratio(beta)
    d = _check_integer(d, "dimension")
    return delta_volume(group_walk(partition, grouping))
