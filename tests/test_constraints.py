import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jittervan import verify
from jittervan.constraints import (
    class_representative,
    constraint_system,
    difference_matrix,
    group_walk,
    walk_edges,
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


def merged_rows(w, g):
    """R built in the test: the difference-matrix rows of ``w`` summed over
    each group of ``g``, sharing nothing with ``group_walk``."""
    base = difference_matrix(w)
    return np.array([sum(base[b - 1] for b in sorted(block)) for block in g.blocks])


def basis_of(w, g):
    return constraint_system(group_walk(w, g))


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
        assert verify.rows_and_columns_sum_zero(p)

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


class TestGroupWalk:
    def test_edges_lead_from_the_previous_label(self):
        # edge 0 closes the walk from the last position to the first
        assert walk_edges(Partition((1, 2, 1, 3))) == [(2, 0), (0, 1), (1, 0), (0, 2)]

    def test_labels_are_the_groups_of_the_blocks(self):
        walk = group_walk(Partition((1, 2, 3, 1, 4)), Partition((1, 2, 1, 2)))
        assert walk == Partition((1, 2, 1, 1, 2))
        assert group_walk(Partition((1, 2, 3)), Partition((1, 1, 1))) == Partition((1,) * 3)

    def test_fully_pinned_walk_is_the_partition(self):
        for w in enumerate_partitions(5):
            assert group_walk(w, Partition(tuple(range(1, w.k + 1)))) == w

    def test_walk_matrix_is_the_merged_rows_to_order_six(self):
        for w, g in all_pairs(6):
            walk = group_walk(w, g)
            assert walk.k == g.k
            assert np.array_equal(difference_matrix(walk), merged_rows(w, g)), (w, g)


class TestConstraintSystem:
    def test_fully_pinned_pair(self):
        w = Partition((1, 2))
        assert merged_rows(w, w).tolist() == [[1, -1], [-1, 1]]
        basis = basis_of(w, w)
        assert basis.dtype == np.int64
        # y1 = y2: the first column is the tree, the second closes the cycle
        assert basis.tolist() == [[1], [1]]

    def test_single_group_has_no_constraints(self):
        for omega in [Partition((1, 2)), Partition((1, 2, 3)), Partition((1, 2, 1, 3))]:
            basis = basis_of(omega, Partition((1,) * omega.k))
            assert np.array_equal(basis, np.eye(omega.p, dtype=np.int64))

    def test_mixed_pair_by_hand(self):
        # merging the first two blocks leaves y1 - y3 = 0 and its negation
        w, g = Partition((1, 2, 3)), Partition((1, 1, 2))
        assert merged_rows(w, g).tolist() == [[1, 0, -1], [-1, 0, 1]]
        # the middle column is a loop inside the merged group: free, no flow
        assert basis_of(w, g).tolist() == [[0, 1], [1, 0], [0, 1]]

    @pytest.mark.parametrize("p", range(2, 5))
    def test_rank_is_group_count_minus_one(self, p):
        assert verify.rank_is_groups_minus_one(p)

    @pytest.mark.parametrize("p", [4, 5])
    def test_fully_pinned_rank(self, p):
        for w in enumerate_partitions(p):
            basis = basis_of(w, Partition(tuple(range(1, w.k + 1))))
            assert basis.shape == (p, p - w.k + 1)

    def test_substitution_solves_exactly(self):
        # rational coordinates through the integer basis land exactly in
        # the kernel of the merged rows
        import random

        rng = random.Random(0)
        for w, g in all_pairs(4):
            rows = merged_rows(w, g).tolist()
            basis = basis_of(w, g).tolist()
            for _ in range(3):
                x = [
                    Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
                    for _ in basis[0]
                ]
                y = [sum(c * v for c, v in zip(coeffs, x)) for coeffs in basis]
                for row in rows:
                    assert sum(c * v for c, v in zip(row, y)) == 0

    @staticmethod
    def check_basis(w, g):
        """B is p x (p - h + 1) in {-1, 0, 1}, in the kernel, and its rows at
        the columns that do not raise the prefix rank are the identity: the
        unit Jacobian the cubature weights assume."""
        rows = merged_rows(w, g)
        basis = basis_of(w, g)
        assert basis.dtype == np.int64
        assert basis.shape == (w.p, w.p - g.k + 1)
        assert set(np.unique(basis)) <= {-1, 0, 1}
        assert not (rows @ basis).any()
        ranks = [np.linalg.matrix_rank(rows[:, :c]) for c in range(w.p + 1)]
        free = [c for c in range(w.p) if ranks[c + 1] == ranks[c]]
        assert np.array_equal(basis[free], np.eye(len(free))), (w.omega, g.omega)

    def test_jacobian_factor_is_one_on_these_systems(self):
        for w, g in all_pairs(6):
            self.check_basis(w, g)

    def test_jacobian_is_the_spanning_tree_count_to_order_seven(self):
        # det(B^T B) is the squared volume of the cycle lattice's cell, the
        # graph's spanning-tree count: det of the reduced Laplacian R R^T
        # (Kirchhoff), and 1 for one label
        walks = [w for p in range(1, 8) for w in enumerate_partitions(p)]
        assert len(walks) == 1155
        for w in walks:
            basis, rows = constraint_system(w), difference_matrix(w)
            trees = round(np.linalg.det((rows @ rows.T)[1:, 1:]))
            assert round(np.linalg.det(basis.T @ basis)) == trees, w.omega

    def test_random_pairs_past_the_enumeration_cap(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p = int(rng.integers(2, 11))
            w = partition_of(rng.integers(0, p, size=p).tolist())
            g = partition_of(rng.integers(0, w.k, size=w.k).tolist())
            self.check_basis(w, g)

    def test_grouping_size_mismatch(self):
        with pytest.raises(ValueError, match="grouping must partition"):
            group_walk(Partition((1, 2)), Partition((1, 2, 3)))
        with pytest.raises(ValueError, match="grouping must partition"):
            pair = Partition((1, 2)), Partition((1, 2, 2))
            finite_grid_term(*pair, 2, 0.5, 1, point_mass_half())

    @pytest.mark.parametrize(
        "fine, coarse",
        [
            ((1, 2, 3), (1, 2, 2, 1)),  # longer than the block count
            ((1, 2), (1, 2, 3)),
            ((1, 2, 1, 2), (1,)),  # shorter than the block count
            ((1, 2, 3, 1), (1, 2)),
        ],
    )
    def test_class_representative_refuses_a_grouping_of_other_size(
        self, fine, coarse
    ):
        with pytest.raises(ValueError, match="grouping must partition"):
            class_representative(Partition(fine), Partition(coarse))


class TestIntegerKernel:
    @pytest.mark.parametrize("p", range(1, 6))
    def test_basis_annihilated(self, p):
        for w in enumerate_partitions(p):
            mat = difference_matrix(w)
            pinned = Partition(tuple(range(1, w.k + 1)))
            basis = basis_of(w, pinned)
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
            rows = merged_rows(w, g)
            brute = int((~(cube @ rows.T).any(axis=1)).sum())
            grid = finite_grid_term(w, g, box, 0.5, 1, point_mass_half())
            assert round(grid * width ** (w.p - g.k + 1)) == brute, (w.omega, g.omega)

    def test_merged_rows_kernel(self):
        for w, g in all_pairs(4):
            rows = merged_rows(w, g)
            basis = basis_of(w, g)
            assert basis.shape[1] == w.p - (g.k - 1)
            assert not (rows @ basis).any()
