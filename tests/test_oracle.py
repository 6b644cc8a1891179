import cmath

import numpy as np
import pytest

from jittervan import verify
from jittervan.ensemble import EnsembleConfig
from jittervan.errors import BudgetError
from jittervan.jitter import point_mass_half, uniform01
from jittervan.moments import moment
from jittervan.oracle import (
    BLOCK_CAP,
    TUPLE_BUDGET,
    PhaseSumInstance,
    brute_trace_moment,
    distinct_label_sum,
    instance_from_labels,
    partition_delta_sum,
    residual_scan,
    surviving_groupings,
)
from jittervan.partitions import Partition


def reference_phase_sum(instance: PhaseSumInstance) -> complex:
    """Second oracle: literal complex product enumeration (no residues)."""
    import itertools

    zeta = cmath.exp(-2j * cmath.pi / instance.rho)
    total = 0j
    k = instance.omega.k
    for labels in itertools.permutations(range(instance.r), k):
        product = 1 + 0j
        for j, vec in enumerate(instance.block_vectors):
            grid = [labels[j] // instance.rho**m % instance.rho for m in range(instance.d)]
            product *= zeta ** sum(g * v for g, v in zip(grid, vec))
        total += product
    return total


class TestInstances:
    def test_zero_sum_enforced(self):
        with pytest.raises(ValueError):
            PhaseSumInstance(Partition((1, 2)), ((1,), (1,)), 5, 1)
        with pytest.raises(ValueError):
            PhaseSumInstance(Partition((1, 2)), ((1,),), 5, 1)
        with pytest.raises(ValueError):
            PhaseSumInstance(Partition((1, 2)), ((1, 0), (-1, 0)), 5, 1)

    def test_from_labels_always_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            omega = Partition((1, 2, 1, 3))
            offsets = rng.integers(-3, 4, size=(4, 2))
            instance = instance_from_labels(omega, offsets, 4)
            sums = np.array(instance.block_vectors).sum(axis=0)
            assert not sums.any()
            assert instance.r == 16


class TestDistinctLabelSum:
    def test_single_block_zero_vector(self):
        assert verify.single_block_counts_labels()

    def test_single_block_full_root_sum(self):
        # nonzero offset on a single block: a full sum of unit roots
        instance = PhaseSumInstance(
            Partition((1, 1)), ((1,),), 5, 1, enforce_zero_sum=False
        )
        assert abs(distinct_label_sum(instance)) < 1e-12
        assert partition_delta_sum(instance) == 0

    def test_two_blocks_closed_form(self):
        assert verify.two_block_closed_form()

    def test_matches_reference_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            omega = Partition((1, 2, 3))
            offsets = rng.integers(-2, 3, size=(3, 1))
            instance = instance_from_labels(omega, offsets, 6)
            assert distinct_label_sum(instance) == pytest.approx(
                reference_phase_sum(instance), abs=1e-9
            )

    def test_two_dimensional_grid(self):
        instance = PhaseSumInstance(Partition((1, 1)), ((0, 0),), 3, 2)
        assert distinct_label_sum(instance) == pytest.approx(9)
        assert partition_delta_sum(instance) == 9

    def test_not_enough_labels(self):
        instance = PhaseSumInstance(Partition((1, 2)), ((0,), (0,)), 1, 1)
        assert distinct_label_sum(instance) == 0j

    def test_budget(self):
        # 448 * 447 ordered label pairs, refused before the first is listed
        assert 448 * 447 > TUPLE_BUDGET
        with pytest.raises(BudgetError):
            distinct_label_sum(PhaseSumInstance(Partition((1, 2)), ((1,), (-1,)), 448, 1))
        five = PhaseSumInstance(Partition((1, 2, 3, 4, 5)), ((0,),) * 5, 6, 1)
        assert five.omega.k > BLOCK_CAP
        with pytest.raises(BudgetError):
            distinct_label_sum(five)


class TestPartitionDeltaSum:
    def test_only_full_merge_survives(self):
        # every proper subset sum is nonzero, so only one grouping is left
        instance = PhaseSumInstance(Partition((1, 2, 3)), ((1,), (2,), (-3,)), 5, 1)
        assert [g.omega for g in surviving_groupings(instance)] == [(1, 1, 1)]
        assert partition_delta_sum(instance) == 2 * 5

    def test_vanishes_when_no_grouping_survives(self):
        instance = PhaseSumInstance(
            Partition((1, 2, 3)), ((1,), (2,), (4,)), 5, 1, enforce_zero_sum=False
        )
        assert partition_delta_sum(instance) == 0
        assert surviving_groupings(instance) == []

    def test_survivor_structure(self):
        instance = PhaseSumInstance(Partition((1, 2, 3)), ((1,), (-1,), (0,)), 5, 1)
        survivors = {g.omega for g in surviving_groupings(instance)}
        assert survivors == {(1, 1, 1), (1, 1, 2)}
        # r^1 * u([1,1,1]) + r^2 * u([1,1,2]) = 2*5 - 25
        assert partition_delta_sum(instance) == 2 * 5 - 25


class TestResidualScan:
    def test_all_zero_offsets_exact(self):
        rows = residual_scan(Partition((1, 2, 3)), ((0,), (0,), (0,)), [4, 6, 8, 10])
        assert all(row.residual < 1e-9 for row in rows)

    def test_single_block_exact(self):
        rows = residual_scan(Partition((1, 1, 1)), ((0,),), [4, 6, 8, 10])
        assert all(row.residual == pytest.approx(0.0, abs=1e-9) for row in rows)

    def test_opposite_pair_exact(self):
        rows = residual_scan(Partition((1, 2)), ((1,), (-1,)), [4, 6, 8, 10])
        assert all(row.residual < 1e-9 for row in rows)

    def test_mixed_instance_decays(self):
        # alias-free offsets: nonzero subset sums avoid every scanned r
        instance_vectors = ((-1,), (1,), (0,))
        scan = residual_scan(Partition((1, 2, 1, 3)), instance_vectors, [5, 7, 9, 11])
        assert scan.h_max == 2
        assert scan.decays

    def test_rejects_non_power_counts(self):
        with pytest.raises(ValueError):
            residual_scan(Partition((1, 1)), ((0, 0),), [5], d=2)


class TestBruteTrace:
    def test_first_power_is_unit(self):
        config = EnsembleConfig(d=1, M=5, rho=20, dist=uniform01())
        value, _ = brute_trace_moment(config, 1, 4, 0)
        assert value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_half_cell_is_unit_for_every_power(self, p):
        config = EnsembleConfig(d=1, M=4, rho=12, dist=point_mass_half())
        value, err = brute_trace_moment(config, p, 3, 0)
        assert value == pytest.approx(1.0, abs=1e-10)
        assert err < 1e-10

    def test_matrix_powers_match_eigensolver(self):
        assert verify.matrix_power_matches_eigensolver(13)

    def test_matches_analytic_moment(self):
        config = EnsembleConfig(d=1, M=25, rho=102, dist=uniform01())
        estimate, err = brute_trace_moment(config, 2, 200, 17)
        analytic = moment(2, config.beta, 1, uniform01())
        assert abs(estimate - analytic.value) <= 3 * err + 0.02

    def test_size_cap(self):
        config = EnsembleConfig(d=1, M=300, rho=1000, dist=uniform01())
        with pytest.raises(BudgetError):
            brute_trace_moment(config, 2, 1, 0)
