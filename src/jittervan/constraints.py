"""Integer linear forms attached to a partition and their zero-sum systems.

A partition of {1,...,p} is a closed walk through its blocks, its edge i
(``walk_edges``) leading from the block of element i-1 (cyclically) to
that of element i.  The matrix built here is the walk's incidence matrix,
row by block the sums of cyclic forward differences

    row_j . y  =  sum over i in block j of (y_i - y_{i+1 cyclic}),

so columns sum to zero and so do the rows, which is why every derived
constraint system loses exactly one rank.

Grouping the blocks gives the walk through the groups (``group_walk``),
whose matrix is the block rows merged along the groups: the constraint
system whose zero set carries the delta-constrained integrals.  The
fundamental cycles of a spanning tree of that walk span the zero set, and
the walk lists one: the edges that first reach a label.  The integer basis
B has one column per non-tree column, with a unit on that column and the
cycle's tree flows, in {-1, 0, 1}, on the tree columns; the tree's
incidence matrix is triangular in discovery order, so one integer pass
from the leaves gives every flow.  Its rows at the non-tree columns are
the identity, so y = B @ x meets every integer point of the zero set once
and the free coordinates carry unit Jacobian (network matrices;
Schrijver, Theory of Linear and Integer Programming, 1986, ch. 19).

The forms' integral depends only on the block multigraph and the
grouping, so pairs fall into classes (the moves that keep it are set out
in ``moments``); ``class_representative`` names each class by one pair.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import groupby, permutations, product

import numpy as np

from .partitions import Partition, partition_of

Edge = tuple[int, int]


def walk_edges(walk: Partition) -> list[Edge]:
    """Edge i of the closed walk, from the label at position i - 1 (cyclic,
    so edge 0 leaves the last position) to the label at position i; labels
    and positions counted from 0."""
    omega = walk.omega
    return [(omega[i - 1] - 1, omega[i] - 1) for i in range(walk.p)]


def _check_grouping(partition: Partition, grouping: Partition) -> None:
    """Refuse a grouping that does not partition the partition's blocks."""
    if grouping.p != partition.k:
        raise ValueError(
            f"grouping must partition {{1,...,{partition.k}}}, got one of "
            f"{grouping.p} elements"
        )


def group_walk(partition: Partition, grouping: Partition) -> Partition:
    """The walk through the groups: element i carries the group of its block.

    ``grouping`` must partition the k blocks of ``partition``.  Blocks are
    numbered by first use along the walk and groups by first use along the
    blocks, so the labels are already a restricted-growth string.
    """
    _check_grouping(partition, grouping)
    return Partition(tuple(grouping.omega[b - 1] for b in partition.omega))


def difference_matrix(walk: Partition) -> np.ndarray:
    """k x p integer incidence matrix of the walk's edges, one row per label:
    the per-block cyclic-difference sums."""
    mat = np.zeros((walk.k, walk.p), dtype=np.int64)
    for i, (a, b) in enumerate(walk_edges(walk)):
        mat[b, i] += 1
        mat[a, i] -= 1
    return mat


def constraint_system(walk: Partition) -> np.ndarray:
    """Integer basis B of the zero set of ``difference_matrix(walk)``,
    y = B @ x.

    B is p x (p - h + 1) for a walk through h labels.  The tree is the walk's
    discovery tree, rooted at the last position's label: the edges that
    first reach each other label, which are the first columns that raise
    the rank.  Each other column gets a basis column with a unit on itself
    and its fundamental cycle's flows on the tree, found leaves first: in
    reverse discovery order, the tree edge into label b carries minus the
    imbalance left on b's subtree, which then passes to b's parent.
    """
    edges, omega = walk_edges(walk), walk.omega
    tree = [omega.index(label) for label in range(1, walk.k + 1) if label != omega[-1]]
    free = [c for c in range(walk.p) if c not in tree]
    basis = np.zeros((walk.p, len(free)), dtype=np.int64)
    basis[free, range(len(free))] = 1
    unbalanced = difference_matrix(walk)[:, free]
    for i in reversed(tree):
        a, b = edges[i]
        basis[i] = -unbalanced[b]
        unbalanced[a] += unbalanced[b]
    return basis


def _drop(labels: tuple[int, ...], i: int) -> tuple[int, ...]:
    """A restricted-growth string without position i.  A label used there
    alone goes, and the later labels move down; any other label must be
    used before i, so the rest stay in place."""
    label, rest = labels[i], labels[:i] + labels[i + 1 :]
    if label in rest:
        return rest
    return tuple([x - (x > label) for x in rest])


def _loop(walk: tuple[int, ...]) -> int | None:
    """A position of a loop that ``_drop`` can take, the wrap-around loop
    by its last position, or None if the walk has no loop."""
    for i in range(1, len(walk)):
        if walk[i] == walk[i - 1]:
            return i
    return len(walk) - 1 if walk[0] == walk[-1] else None


def _renumber(labels) -> tuple[int, ...]:
    """Labels renumbered 1, 2, ... by first use."""
    new: dict[int, int] = {}
    return tuple([new.setdefault(x, len(new) + 1) for x in labels])


def _turns(
    walk: tuple[int, ...], grouping: tuple[int, ...]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every rotation and reversal of a pair, renumbered by first use."""
    images = []
    for turned in (walk, walk[::-1]):
        for start in range(len(walk)):
            image = turned[start:] + turned[:start]
            groups = [grouping[block - 1] for block in dict.fromkeys(image)]
            images.append((_renumber(image), _renumber(groups)))
    return images


def class_representative(
    partition: Partition, grouping: Partition
) -> tuple[Partition, Partition]:
    """The pair integrated for a (fine, coarse) pair's class, memoised on
    label tuples by ``_class_of``.  ``grouping`` must partition the blocks,
    as in ``group_walk``."""
    _check_grouping(partition, grouping)
    return _class_of(partition.omega, grouping.omega)


@lru_cache(maxsize=None)
def _class_of(
    walk: tuple[int, ...], grouping: tuple[int, ...]
) -> tuple[Partition, Partition]:
    """The class of a pair of label tuples.  The walk drops a loop, or else
    the first block met once and alone in its group goes with its group,
    and the smaller pair's class is read, so a pair one move from any pair
    already keyed reads the memo.  A group of two or more blocks loses
    none, so a characteristic-function pair keeps fewer groups than
    blocks, and a walk with no block left is the one-block pair.  A
    reduced pair takes the class of the least of its rotations and
    reversals, which alone is keyed by ``_least_labelling``."""
    if not walk:
        return Partition((1,)), Partition((1,))
    i = _loop(walk)
    if i is None:
        lone = [
            i
            for i, b in enumerate(walk)
            if walk.count(b) == 1 and grouping.count(grouping[b - 1]) == 1
        ]
        if not lone:
            turn = min(_turns(walk, grouping))
            if turn != (walk, grouping):
                return _class_of(*turn)
            return _least_labelling(walk, grouping)
        i = lone[0]
        grouping = _drop(grouping, walk[i] - 1)
    return _class_of(_drop(walk, i), grouping)


def _least_labelling(
    walk: tuple[int, ...], grouping: tuple[int, ...]
) -> tuple[Partition, Partition]:
    """Representative of a reduced pair's class, keyed by its least labelling.

    The blocks of ``walk_edges`` take every labelling that lists them by
    (group size, degree), and every edge may be reversed; the least
    (grouping, sorted edge list) over these is the class key.  Its edges are
    walked as an Euler circuit from block 0, taking the least unused edge at
    each block (Hierholzer), so the representative depends on the key alone.
    """
    edges = walk_edges(Partition(walk))
    degree = Counter(b for _, b in edges)
    members = Counter(grouping)

    def invariant(block: int) -> tuple[int, int]:
        return members[grouping[block]], degree[block]

    runs = [
        list(run) for _, run in groupby(sorted(degree, key=invariant), key=invariant)
    ]
    keys = []
    for choice in product(*map(permutations, runs)):
        order = [block for run in choice for block in run]
        label = {block: new for new, block in enumerate(order)}
        coarse = _renumber([grouping[block] for block in order])
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
