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
fundamental cycles of a spanning tree of that walk span the zero set: the
integer basis B has one column per non-tree column, with a unit on that
column and the cycle's tree flows, in {-1, 0, 1}, on the tree columns.
Its rows at the non-tree columns are the identity, so y = B @ x meets
every integer point of the zero set once and the free coordinates carry
unit Jacobian (network matrices; Schrijver, Theory of Linear and Integer
Programming, 1986, ch. 19).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .partitions import Partition

Edge = tuple[int, int]


def walk_edges(walk: Partition) -> list[Edge]:
    """Edge i of the closed walk, from the label at position i - 1 (cyclic,
    so edge 0 leaves the last position) to the label at position i; labels
    and positions counted from 0."""
    omega = walk.omega
    return [(omega[i - 1] - 1, omega[i] - 1) for i in range(walk.p)]


def group_walk(partition: Partition, grouping: Partition) -> Partition:
    """The walk through the groups: element i carries the group of its block.

    ``grouping`` must partition the k blocks of ``partition``.  Blocks are
    numbered by first use along the walk and groups by first use along the
    blocks, so the labels are already a restricted-growth string.
    """
    if grouping.p != partition.k:
        raise ValueError(
            f"grouping must partition {{1,...,{partition.k}}}, got one of "
            f"{grouping.p} elements"
        )
    return Partition(tuple(grouping.omega[b - 1] for b in partition.omega))


def difference_matrix(walk: Partition) -> np.ndarray:
    """k x p integer incidence matrix of the walk's edges, one row per label:
    the per-block cyclic-difference sums."""
    mat = np.zeros((walk.k, walk.p), dtype=np.int64)
    for i, (a, b) in enumerate(walk_edges(walk)):
        mat[b, i] += 1
        mat[a, i] -= 1
    return mat


def spanning_tree(edges: Sequence[Edge], k: int) -> tuple[int, ...]:
    """Indices of a spanning forest of ``edges`` on the nodes 0..k-1.

    Edges are kept greedily in the order given (union-find), so for an
    incidence matrix these are its first linearly independent columns.
    Loops are never kept.
    """
    root = list(range(k))

    def find(node: int) -> int:
        while root[node] != node:
            root[node] = root[root[node]]
            node = root[node]
        return node

    kept = []
    for index, (a, b) in enumerate(edges):
        top_a, top_b = find(a), find(b)
        if top_a != top_b:
            root[top_a] = top_b
            kept.append(index)
    return tuple(kept)


def tree_flows(
    edges: Sequence[Edge], tree: Sequence[int], vector: Sequence[int]
) -> tuple[int, ...]:
    """Coefficients t, one per tree edge, with sum_e t_e (e_b - e_a) = vector.

    ``tree`` indexes a spanning tree of the edges (a, b) on the
    len(vector) nodes and ``vector`` sums to zero.  Cutting a tree edge
    splits the nodes in two; the edge carries the total of ``vector`` over
    the part it points into.
    """
    links: list[list[tuple[int, int, int]]] = [[] for _ in vector]
    for slot, index in enumerate(tree):
        a, b = edges[index]
        links[a].append((b, slot, 1))
        links[b].append((a, slot, -1))
    parent: dict[int, tuple[int, int, int]] = {}
    order = [0]
    for node in order:
        for there, slot, sign in links[node]:
            if there != 0 and there not in parent:
                parent[there] = (node, slot, sign)
                order.append(there)
    below = list(vector)
    flows = [0] * len(tree)
    for child in reversed(order[1:]):
        up, slot, sign = parent[child]
        flows[slot] = sign * below[child]
        below[up] += below[child]
    return tuple(flows)


def constraint_system(walk: Partition) -> np.ndarray:
    """Integer basis B of the zero set of ``difference_matrix(walk)``,
    y = B @ x.

    B is p x (p - h + 1) for a walk through h labels.  The tree is the
    first columns that raise the rank, kept greedily; each other column
    gets a basis column with a unit on itself and its fundamental cycle's
    tree flows.
    """
    edges = walk_edges(walk)
    tree = spanning_tree(edges, walk.k)
    free = [c for c in range(walk.p) if c not in tree]
    basis = np.zeros((walk.p, len(free)), dtype=np.int64)
    for j, c in enumerate(free):
        a, b = edges[c]
        closing = [0] * walk.k  # minus the free column e_b - e_a
        closing[a] += 1
        closing[b] -= 1
        basis[c, j] = 1
        basis[tree, j] = tree_flows(edges, tree, closing)
    return basis
