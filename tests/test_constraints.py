import itertools
from fractions import Fraction

import numpy as np
import pytest

from jittervan.constraints import (
    constraint_system,
    difference_matrix,
    merged_difference_rows,
    reduce_system,
)
from jittervan.integrate import finite_grid_term
from jittervan.jitter import point_mass_half
from jittervan.partitions import (
    Partition,
    enumerate_partitions,
    enumerate_partitions_k,
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
    basis = np.zeros((system.n_cols, len(system.free_columns)), dtype=np.int64)
    for j, col in enumerate(system.free_columns):
        basis[col, j] = 1
        for row, pivot in enumerate(system.pivot_columns):
            entry = system.solution[row][j]
            assert entry.denominator == 1
            basis[pivot, j] = int(entry)
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
        system = constraint_system(Partition((1, 2)), Partition((1, 2)))
        assert system.matrix == ((1, -1), (-1, 1))
        assert system.rank == 1
        assert system.jacobian_factor == Fraction(1)

    def test_single_group_has_no_constraints(self):
        for omega in [Partition((1, 2)), Partition((1, 2, 3)), Partition((1, 2, 1, 3))]:
            system = constraint_system(omega, Partition((1,) * omega.k))
            assert system.rank == 0
            assert system.pivot_columns == ()
            assert len(system.free_columns) == omega.p

    def test_mixed_pair_by_hand(self):
        # merging the first two blocks leaves y1 - y3 = 0 and its negation
        system = constraint_system(Partition((1, 2, 3)), Partition((1, 1, 2)))
        assert system.matrix == ((1, 0, -1), (-1, 0, 1))
        assert system.rank == 1

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
        import random

        rng = random.Random(0)
        pairs = list(all_pairs(4))
        for w, g in pairs:
            system = constraint_system(w, g)
            for _ in range(3):
                free = [
                    Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
                    for _ in system.free_columns
                ]
                y = system.substitute(free)
                for row in system.matrix:
                    assert sum(c * v for c, v in zip(row, y)) == 0

    def test_jacobian_factor_is_one_on_these_systems(self):
        # every pivot submatrix here is unimodular (incidence structure), so
        # the solution map stays in {-1, 0, 1}
        for w, g in all_pairs(6):
            system = constraint_system(w, g)
            assert system.jacobian_factor == Fraction(1)
            assert all(v in (-1, 0, 1) for row in system.solution for v in row)

    def test_unit_pivot_preferred_within_column(self):
        # two candidate rows in the first column: the unit entry wins
        system = reduce_system(np.array([[2, 1, 0], [1, 0, -1]]))
        assert system.pivot_columns[0] == 0
        assert system.matrix[system.pivot_rows[0]][0] in (-1, 1)

    def test_jacobian_without_unit_entries(self):
        system = reduce_system(np.array([[2, -4]]))
        assert system.rank == 1
        assert system.jacobian_factor == Fraction(1, 2)

    def test_non_unit_pivot_still_consistent(self):
        # leading coefficient 2: the eliminated weight must be 1/2
        system = reduce_system(np.array([[2, -1, 0], [0, 0, 0]]))
        assert system.rank == 1
        assert system.jacobian_factor == Fraction(1, 2)
        y = system.substitute([Fraction(3), Fraction(5)])
        assert 2 * y[0] - y[1] == 0

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
