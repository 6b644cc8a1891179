"""Integer linear forms attached to a partition and their zero-sum systems.

For a partition of {1,...,p} the matrix built here evaluates, row by block,
the sums of cyclic forward differences

    row_j . y  =  sum over i in block j of (y_i - y_{i+1 cyclic}),

so every column holds one +1 (the element's own block) and one -1 (the
block of its cyclic predecessor), or zero when the two coincide.  Columns
then sum to zero and so do the rows, which is why every derived constraint
system loses exactly one rank.

Merging rows along a coarser partition of the blocks gives the constraint
system whose zero set carries the delta-constrained integrals.  Elimination
is done in exact rational arithmetic: the Jacobian factor weights the
constrained integrals downstream and must not carry rounding error.  The
matrix is the incidence matrix of the walk through the blocks, hence
totally unimodular, so on these systems the solution map is integral and
the Jacobian factor is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .partitions import Partition


def difference_matrix(partition: Partition) -> np.ndarray:
    """k x p integer matrix of per-block cyclic-difference sums."""
    p, k = partition.p, partition.k
    omega = partition.omega
    mat = np.zeros((k, p), dtype=np.int64)
    for i in range(p):  # element i+1, cyclic predecessor at index i-1
        mat[omega[i] - 1, i] += 1
        mat[omega[i - 1] - 1, i] -= 1
    return mat


def merged_difference_rows(partition: Partition, grouping: Partition) -> np.ndarray:
    """Sum the difference-matrix rows along the blocks of ``grouping``.

    ``grouping`` must partition {1,...,k} where k is the block count of
    ``partition``; the result has one row per group.
    """
    if grouping.p != partition.k:
        raise ValueError(
            f"grouping must partition {{1,...,{partition.k}}}, got one of "
            f"{grouping.p} elements"
        )
    base = difference_matrix(partition)
    rows = np.zeros((grouping.k, partition.p), dtype=np.int64)
    for j, block in enumerate(grouping.blocks):
        for i in sorted(block):
            rows[j] += base[i - 1]
    return rows


@dataclass(frozen=True)
class ConstraintSystem:
    """An exact row-reduced linear system D y = 0 over the rationals.

    ``solution`` expresses the pivot variables as linear functions of the
    free variables: y[pivot_columns] = solution @ y[free_columns].  The
    ``jacobian_factor`` is 1/|det| of the pivot submatrix taken on the
    independent rows, the weight a delta constraint contributes once the
    pivot variables are integrated out.
    """

    matrix: tuple[tuple[int, ...], ...]
    rank: int
    pivot_rows: tuple[int, ...]
    pivot_columns: tuple[int, ...]
    free_columns: tuple[int, ...]
    solution: tuple[tuple[Fraction, ...], ...]
    jacobian_factor: Fraction

    @property
    def n_rows(self) -> int:
        return len(self.matrix)

    @property
    def n_cols(self) -> int:
        return len(self.matrix[0])

    def solution_array(self) -> np.ndarray:
        """Float copy of the pivot-from-free solution map (rank x n_free)."""
        if self.rank == 0:
            return np.zeros((0, len(self.free_columns)))
        return np.array([[float(v) for v in row] for row in self.solution])

    def substitute(self, free_values) -> list[Fraction]:
        """Full exact solution vector for given free-variable values."""
        free = [Fraction(v) for v in free_values]
        if len(free) != len(self.free_columns):
            raise ValueError(
                f"expected {len(self.free_columns)} free values, got {len(free)}"
            )
        y: list[Fraction] = [Fraction(0)] * self.n_cols
        for col, value in zip(self.free_columns, free):
            y[col] = value
        for row, col in enumerate(self.pivot_columns):
            y[col] = sum(
                (self.solution[row][t] * free[t] for t in range(len(free))),
                Fraction(0),
            )
        return y


def reduce_system(rows: np.ndarray) -> ConstraintSystem:
    """Row-reduce an integer system D y = 0 exactly.

    Pivots are chosen left to right, preferring entries of magnitude one so
    the Jacobian factor stays 1 whenever the system allows it.  Elimination
    turns the pivot submatrix into the identity through row additions and
    one division per pivot, so its |det| is the product of the pivot
    magnitudes met on the way.
    """
    n_rows, n_cols = rows.shape
    work = [[Fraction(int(v)) for v in row] for row in rows]
    pivot_rows: list[int] = []
    pivot_cols: list[int] = []
    used_rows: set[int] = set()
    det = Fraction(1)
    for col in range(n_cols):
        candidates = [r for r in range(n_rows) if r not in used_rows and work[r][col] != 0]
        if not candidates:
            continue
        unit = [r for r in candidates if abs(work[r][col]) == 1]
        row = unit[0] if unit else min(candidates, key=lambda r: (abs(work[r][col]), r))
        det *= abs(work[row][col])
        inv = Fraction(1) / work[row][col]
        work[row] = [v * inv for v in work[row]]
        for r in range(n_rows):
            if r != row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[row])]
        used_rows.add(row)
        pivot_rows.append(row)
        pivot_cols.append(col)
    rank = len(pivot_cols)
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    solution = tuple(
        tuple(-work[pivot_rows[j]][f] for f in free_cols) for j in range(rank)
    )
    return ConstraintSystem(
        matrix=tuple(tuple(int(v) for v in row) for row in rows),
        rank=rank,
        pivot_rows=tuple(pivot_rows),
        pivot_columns=tuple(pivot_cols),
        free_columns=tuple(free_cols),
        solution=solution,
        jacobian_factor=1 / det,
    )


def constraint_system(partition: Partition, grouping: Partition) -> ConstraintSystem:
    """Zero-sum constraint system for a partition pair (reduced exactly)."""
    return reduce_system(merged_difference_rows(partition, grouping))
