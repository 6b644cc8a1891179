"""Integer linear forms attached to a partition and their zero-sum systems.

For a partition of {1,...,p} the matrix built here evaluates, row by block,
the sums of cyclic forward differences

    row_j . y  =  sum over i in block j of (y_i - y_{i+1 cyclic}),

so every column holds one +1 (the element's own block) and one -1 (the
block of its cyclic predecessor), or zero when the two coincide.  Columns
then sum to zero and so do the rows, which is why every derived constraint
system loses exactly one rank.

Merging rows along a coarser partition of the blocks gives the constraint
system whose zero set carries the delta-constrained integrals.  Its matrix
is the incidence matrix of the cyclic walk through the groups: column i is
the edge from the group of element i-1 to the group of element i.  The
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


def difference_matrix(partition: Partition) -> np.ndarray:
    """k x p integer matrix of per-block cyclic-difference sums."""
    p, k = partition.p, partition.k
    omega = partition.omega
    mat = np.zeros((k, p), dtype=np.int64)
    for i in range(p):  # element i+1, cyclic predecessor at index i-1
        mat[omega[i] - 1, i] += 1
        mat[omega[i - 1] - 1, i] -= 1
    return mat


def _check_grouping(partition: Partition, grouping: Partition) -> None:
    if grouping.p != partition.k:
        raise ValueError(
            f"grouping must partition {{1,...,{partition.k}}}, got one of "
            f"{grouping.p} elements"
        )


def merged_difference_rows(partition: Partition, grouping: Partition) -> np.ndarray:
    """Sum the difference-matrix rows along the blocks of ``grouping``.

    ``grouping`` must partition {1,...,k} where k is the block count of
    ``partition``; the result has one row per group.
    """
    _check_grouping(partition, grouping)
    base = difference_matrix(partition)
    rows = np.zeros((grouping.k, partition.p), dtype=np.int64)
    for j, block in enumerate(grouping.blocks):
        for i in sorted(block):
            rows[j] += base[i - 1]
    return rows


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


def constraint_system(partition: Partition, grouping: Partition) -> np.ndarray:
    """Integer basis B of the zero set of the merged rows, y = B @ x.

    B is p x (p - h + 1) for h groups.  The tree is the first columns that
    raise the rank, kept greedily; each other column gets a basis column
    with a unit on itself and its fundamental cycle's tree flows.
    """
    _check_grouping(partition, grouping)
    group = [grouping.omega[b - 1] - 1 for b in partition.omega]
    edges = [(group[i - 1], group[i]) for i in range(partition.p)]
    tree = spanning_tree(edges, grouping.k)
    free = [c for c in range(partition.p) if c not in tree]
    basis = np.zeros((partition.p, len(free)), dtype=np.int64)
    for j, c in enumerate(free):
        a, b = edges[c]
        closing = [0] * grouping.k  # minus the free column e_b - e_a
        closing[a] += 1
        closing[b] -= 1
        basis[c, j] = 1
        basis[tree, j] = tree_flows(edges, tree, closing)
    return basis
