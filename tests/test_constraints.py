import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jittervan.constraints import (
    constraint_system,
    difference_matrix,
    merged_difference_rows,
)
from jittervan.integrate import finite_grid_term
from jittervan.jitter import point_mass_half
from jittervan.partitions import (
    Partition,
    enumerate_partitions,
    enumerate_partitions_k,
    partition_of,
)


def all_pairs(p_max):
    for p in range(2, p_max + 1):
        for w in enumerate_partitions(p):
            for h in range(1, w.k + 1):
                for g in enumerate_partitions_k(w.k, h):
                    yield w, g


def kernel_basis(system):
    """Integer kernel basis read off the solution map: one column per free
    coordinate, a unit there and the solution map's column on the pivots."""
    n_cols = len(system.pivot_columns) + len(system.free_columns)
    basis = np.zeros((n_cols, len(system.free_columns)), dtype=np.int64)
    for j, col in enumerate(system.free_columns):
        basis[col, j] = 1
        for row, pivot in enumerate(system.pivot_columns):
            entry = system.solution[row][j]
            assert isinstance(entry, int)
            basis[pivot, j] = entry
    return basis


class TestDifferenceMatrix:
    def test_two_singletons(self):
        assert difference_matrix(Partition((1, 2))).tolist() == [[1, -1], [-1, 1]]

    def test_single_block_cancels(self):
        for p in range(1, 6):
            mat = difference_matrix(Partition((1,) * p))
            assert mat.shape == (1, p)
            assert not mat.any()

    def test_alternating_pattern(self):
        # hand expansion over blocks {1,3} and {2,4}
        assert difference_matrix(Partition((1, 2, 1, 2))).tolist() == [
            [1, -1, 1, -1],
            [-1, 1, -1, 1],
        ]

    @pytest.mark.parametrize("p", range(2, 6))
    def test_rows_and_columns_sum_to_zero(self, p):
        for w in enumerate_partitions(p):
            mat = difference_matrix(w)
            assert not mat.sum(axis=0).any()
            assert not mat.sum(axis=1).any()
            assert set(np.unique(mat)) <= {-1, 0, 1}

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=12))
    def test_zero_sums_and_unit_entries_for_any_labels(self, labels):
        mat = difference_matrix(partition_of(labels))
        assert not mat.sum(axis=0).any()
        assert not mat.sum(axis=1).any()
        assert set(np.unique(mat)) <= {-1, 0, 1}

    @pytest.mark.parametrize("p", range(2, 6))
    def test_evaluates_block_sums(self, p):
        rng = np.random.default_rng(p)
        for w in enumerate_partitions(p):
            mat = difference_matrix(w)
            y = rng.integers(-5, 6, size=p)
            for j, block in enumerate(w.blocks):
                direct = sum(y[i - 1] - y[i % p] for i in sorted(block))
                assert mat[j] @ y == direct


class TestConstraintSystem:
    def test_fully_pinned_pair(self):
        w = Partition((1, 2))
        assert merged_difference_rows(w, w).tolist() == [[1, -1], [-1, 1]]
        system = constraint_system(w, w)
        assert system.rank == 1
        # y1 = y2: the first column is the tree, the second closes the cycle
        assert (system.pivot_columns, system.free_columns) == ((0,), (1,))
        assert system.solution == ((1,),)

    def test_single_group_has_no_constraints(self):
        for omega in [Partition((1, 2)), Partition((1, 2, 3)), Partition((1, 2, 1, 3))]:
            system = constraint_system(omega, Partition((1,) * omega.k))
            assert system.rank == 0
            assert system.pivot_columns == ()
            assert len(system.free_columns) == omega.p

    def test_mixed_pair_by_hand(self):
        # merging the first two blocks leaves y1 - y3 = 0 and its negation
        w, g = Partition((1, 2, 3)), Partition((1, 1, 2))
        assert merged_difference_rows(w, g).tolist() == [[1, 0, -1], [-1, 0, 1]]
        system = constraint_system(w, g)
        assert system.rank == 1
        # the middle column is a loop inside the merged group: free, no flow
        assert system.solution == ((0, 1),)

    @pytest.mark.parametrize("p", range(2, 5))
    def test_rank_is_group_count_minus_one(self, p):
        for w in enumerate_partitions(p):
            for h in range(1, w.k + 1):
                for g in enumerate_partitions_k(w.k, h):
                    system = constraint_system(w, g)
                    assert system.rank == h - 1
                    assert len(system.pivot_columns) == system.rank
                    assert len(system.free_columns) == p - system.rank

    @pytest.mark.parametrize("p", [4, 5])
    def test_fully_pinned_rank(self, p):
        for w in enumerate_partitions(p):
            system = constraint_system(w, Partition(tuple(range(1, w.k + 1))))
            assert system.rank == w.k - 1

    def test_substitution_solves_exactly(self):
        # rational free labels through the integer solution map land exactly
        # in the kernel of the merged rows
        import random

        rng = random.Random(0)
        for w, g in all_pairs(4):
            rows = merged_difference_rows(w, g).tolist()
            system = constraint_system(w, g)
            for _ in range(3):
                free = [
                    Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
                    for _ in system.free_columns
                ]
                y = [Fraction(0)] * w.p
                for col, value in zip(system.free_columns, free):
                    y[col] = value
                for pivot, coeffs in zip(system.pivot_columns, system.solution):
                    y[pivot] = sum(c * v for c, v in zip(coeffs, free))
                for row in rows:
                    assert sum(c * v for c, v in zip(row, y)) == 0

    def test_jacobian_factor_is_one_on_these_systems(self):
        # tree coordinates of an incidence matrix are unimodular: the
        # solution map stays in {-1, 0, 1} and parametrizes the kernel
        for w, g in all_pairs(6):
            system = constraint_system(w, g)
            assert all(v in (-1, 0, 1) for row in system.solution for v in row)
            assert not (merged_difference_rows(w, g) @ kernel_basis(system)).any()

    def test_random_pairs_past_the_enumeration_cap(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p = int(rng.integers(2, 11))
            w = partition_of(rng.integers(0, p, size=p).tolist())
            g = partition_of(rng.integers(0, w.k, size=w.k).tolist())
            rows = merged_difference_rows(w, g)
            system = constraint_system(w, g)
            assert system.rank == g.k - 1
            assert all(v in (-1, 0, 1) for row in system.solution for v in row)
            assert not (rows @ kernel_basis(system)).any()
            # pivots are the first columns that raise the rank of the prefix
            ranks = [np.linalg.matrix_rank(rows[:, :c]) for c in range(p + 1)]
            first = tuple(c for c in range(p) if ranks[c + 1] > ranks[c])
            assert system.pivot_columns == first, (w.omega, g.omega)

    def test_grouping_size_mismatch(self):
        with pytest.raises(ValueError):
            merged_difference_rows(Partition((1, 2)), Partition((1, 2, 3)))


class TestIntegerKernel:
    @pytest.mark.parametrize("p", range(1, 6))
    def test_basis_annihilated(self, p):
        for w in enumerate_partitions(p):
            mat = difference_matrix(w)
            pinned = Partition(tuple(range(1, w.k + 1)))
            basis = kernel_basis(constraint_system(w, pinned))
            assert basis.shape == (p, p - w.k + 1)
            assert not (mat @ basis).any()

    def test_generates_full_integer_kernel(self):
        # every integer kernel point in a small box is met once: with the
        # point-mass law the phases cancel, so the finite-grid sum times the
        # normalization is the count, compared against brute force
        box = 3
        width = 2 * box + 1
        for w, g in all_pairs(4):
            cube = np.array(list(itertools.product(range(-box, box + 1), repeat=w.p)))
            rows = merged_difference_rows(w, g)
            brute = int((~(cube @ rows.T).any(axis=1)).sum())
            grid = finite_grid_term(w, g, box, 0.5, 1, point_mass_half())
            assert round(grid * width ** (w.p - g.k + 1)) == brute, (w.omega, g.omega)

    def test_merged_rows_kernel(self):
        for w, g in all_pairs(4):
            rows = merged_difference_rows(w, g)
            basis = kernel_basis(constraint_system(w, g))
            assert basis.shape[1] == w.p - (g.k - 1)
            assert not (rows @ basis).any()
