import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jittervan import verify
from jittervan.constraints import constraint_system, group_walk
from jittervan.integrate import term_integral
from jittervan.jitter import uniform01
from jittervan.moments import _evaluate_pair, clear_term_cache
from jittervan.partitions import (
    Partition,
    bell,
    enumerate_partitions,
    enumerate_partitions_k,
    label_vector_count,
    label_vectors,
    mobius_coefficient,
    partition_of,
    stirling2,
)


def brute_force_partitions(p: int) -> set[tuple[int, ...]]:
    """Oracle: canonical strings of every label vector of length p."""
    out = set()
    for labels in itertools.product(range(p), repeat=p):
        out.add(partition_of(labels).omega)
    return out


class TestPartitionOf:
    def test_reference_example(self):
        assert verify.first_appearance_labeling()

    def test_all_equal(self):
        assert partition_of([7, 7, 7]).omega == (1, 1, 1)
        assert partition_of([7, 7, 7]).k == 1

    def test_all_distinct(self):
        assert partition_of([0, 1, 2]).omega == (1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            partition_of([])

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_invariant_under_relabeling(self, p):
        import random

        rng = random.Random(p)
        for _ in range(50):
            mu = [rng.randrange(4) for _ in range(p)]
            symbols = list(set(mu))
            mapping = dict(zip(symbols, rng.sample(range(100, 200), len(symbols))))
            relabeled = [mapping[v] for v in mu]
            assert partition_of(relabeled) == partition_of(mu)


class TestEnumeration:
    def test_three_two(self):
        got = [w.omega for w in enumerate_partitions_k(3, 2)]
        assert got == [(1, 1, 2), (1, 2, 1), (1, 2, 2)]

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_single_block(self, p):
        assert [w.omega for w in enumerate_partitions_k(p, 1)] == [(1,) * p]

    def test_four_two_by_brute_force(self):
        oracle = {w for w in brute_force_partitions(4) if max(w) == 2}
        got = {w.omega for w in enumerate_partitions_k(4, 2)}
        assert got == oracle
        assert len(got) == 7

    @pytest.mark.parametrize("p,count", [(1, 1), (3, 5), (5, 52)])
    def test_total_counts(self, p, count):
        assert len(enumerate_partitions(p)) == count

    @pytest.mark.parametrize("p", range(1, 7))
    def test_matches_brute_force(self, p):
        assert {w.omega for w in enumerate_partitions(p)} == brute_force_partitions(p)

    def test_lexicographic_order(self):
        strings = [w.omega for w in enumerate_partitions(4)]
        assert strings == sorted(strings)

    @pytest.mark.parametrize(
        "enumerate_", [lambda: enumerate_partitions(4), lambda: enumerate_partitions_k(4, 2)]
    )
    def test_changing_a_returned_list_leaves_the_next_call_alone(self, enumerate_):
        expected = enumerate_()
        changed = enumerate_()
        changed.reverse()
        changed.append(Partition((1,)))
        changed[0] = Partition((1, 2))
        assert enumerate_() == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_partitions_k(3, 0)
        with pytest.raises(ValueError):
            enumerate_partitions_k(3, 4)
        with pytest.raises(ValueError):
            enumerate_partitions(0)
        with pytest.raises(ValueError):
            enumerate_partitions(8)  # above ORDER_CAP

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_k_blocks_match_filtered_label_tuples(self, data):
        p = data.draw(st.integers(1, 7))
        k = data.draw(st.integers(1, p))

        def restricted_growth(labels):
            top = 0
            for label in labels:
                if label > top + 1:
                    return False
                top = max(top, label)
            return top == k

        oracle = [
            labels
            for labels in itertools.product(range(1, k + 1), repeat=p)
            if restricted_growth(labels)
        ]
        assert [w.omega for w in enumerate_partitions_k(p, k)] == oracle


class TestCounting:
    def test_reference_values(self):
        assert stirling2(3, 2) == 3
        assert bell(1) == 1
        assert bell(7) == 877

    @pytest.mark.slow
    def test_bell_seven_by_brute_force(self):
        assert bell(7) == len(brute_force_partitions(7))

    @pytest.mark.parametrize("p", range(1, 8))
    def test_counts_match_enumeration(self, p):
        assert verify.count_matches_bell(p)
        assert verify.count_matches_stirling(p)

    def test_exact_large_values(self):
        # arbitrary-precision integers cannot overflow; spot check p=20
        assert bell(20) == 51724158235372
        assert stirling2(20, 10) == 5917584964655

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            stirling2(3, 0)
        with pytest.raises(ValueError):
            bell(0)


class TestMobiusCoefficient:
    # full weight table for partitions of up to three elements
    TABLE = {
        (1,): 1,
        (1, 1): -1,
        (1, 2): 1,
        (1, 1, 1): 2,
        (1, 1, 2): -1,
        (1, 2, 1): -1,
        (1, 2, 2): -1,
        (1, 2, 3): 1,
    }

    @pytest.mark.parametrize("omega,expected", sorted(TABLE.items()))
    def test_reference_table(self, omega, expected):
        assert mobius_coefficient(Partition(omega)) == expected

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_weights_telescope_to_zero(self, k):
        assert verify.signed_weights_telescope(k)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_falling_factorial_identity(self, k):
        # sum over partitions of u * r^blocks equals r(r-1)...(r-k+1)
        for r in range(0, 8):
            total = sum(
                mobius_coefficient(w) * r**w.k for w in enumerate_partitions(k)
            )
            assert total == label_vector_count(k, r) if r >= k else total == 0


class TestLabelVectors:
    def test_single_block_three_labels(self):
        got = list(label_vectors(Partition((1, 1, 1)), 3))
        assert got == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]

    def test_all_distinct_three_labels(self):
        got = list(label_vectors(Partition((1, 2, 3)), 3))
        assert got == [
            (0, 1, 2),
            (0, 2, 1),
            (1, 0, 2),
            (1, 2, 0),
            (2, 0, 1),
            (2, 1, 0),
        ]

    def test_reference_two_block_sets(self):
        assert list(label_vectors(Partition((1, 1, 2)), 3)) == [
            (0, 0, 1), (0, 0, 2), (1, 1, 0), (1, 1, 2), (2, 2, 0), (2, 2, 1),
        ]
        assert list(label_vectors(Partition((1, 2, 1)), 3)) == [
            (0, 1, 0), (0, 2, 0), (1, 0, 1), (1, 2, 1), (2, 0, 2), (2, 1, 2),
        ]
        assert list(label_vectors(Partition((1, 2, 2)), 3)) == [
            (0, 1, 1), (0, 2, 2), (1, 0, 0), (1, 2, 2), (2, 0, 0), (2, 1, 1),
        ]

    def test_not_enough_labels(self):
        assert list(label_vectors(Partition((1, 2)), 1)) == []
        assert label_vector_count(2, 1) == 0

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
    def test_vectors_partition_the_grid(self, p, r):
        assert verify.label_vectors_cover_grid(p, r)


class TestPartitionType:
    def test_restricted_growth_validation(self):
        with pytest.raises(ValueError):
            Partition((2, 1))
        with pytest.raises(ValueError):
            Partition((1, 3))
        with pytest.raises(ValueError):
            Partition(())

    def test_numpy_labels_are_stored_as_int(self):
        w = Partition((np.int64(1), np.int32(2), np.uint8(1)))
        assert w == Partition((1, 2, 1)) and hash(w) == hash(Partition((1, 2, 1)))
        assert all(type(label) is int for label in w.omega)
        assert w.blocks == (frozenset({1, 3}), frozenset({2}))

    def test_label_sequences_are_stored_as_tuples(self):
        # a list or an array once stayed as given: the partition did not
        # hash and differed from its tuple, so no memo could take it
        spellings = [[1, 2, 1], (1, 2, 1), np.array([1, 2, 1])]
        partitions = [Partition(labels) for labels in spellings]
        assert all(type(w.omega) is tuple for w in partitions)
        assert all(type(label) is int for w in partitions for label in w.omega)
        assert partitions[0] == partitions[1] == partitions[2]
        assert len({hash(w) for w in partitions}) == 1
        grouping, law = Partition([1, 1]), uniform01()
        clear_term_cache()
        values = [term_integral(w, grouping, 0.5, 1, law) for w in partitions]
        assert values[0] == values[1] == values[2]
        assert [_evaluate_pair(w, grouping, 0.5, 1, law) for w in partitions] == values
        info = _evaluate_pair.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_block_structure(self):
        w = Partition((1, 2, 1, 3))
        assert w.p == 4 and w.k == 3
        assert w.blocks == (frozenset({1, 3}), frozenset({2}), frozenset({4}))
        assert w.block_sizes == (2, 1, 1)

    @pytest.mark.parametrize("p", range(1, 6))
    def test_blocks_cover_everything(self, p):
        for w in enumerate_partitions(p):
            union = set().union(*w.blocks)
            assert union == set(range(1, p + 1))
            assert sum(len(b) for b in w.blocks) == p
            assert len(w.blocks) == w.k == max(w.omega)


def dihedral_representative(partition, grouping):
    """Oracle: the least member of a (fine, coarse) pair's dihedral orbit.

    The 2p rotations and reversals of the p indices act on ``partition``;
    its blocks are relabelled in order of first appearance and
    ``grouping`` (a partition of those blocks) follows the relabelling.
    The least pair of restricted-growth strings over the orbit is
    returned, so two pairs share a representative exactly when one maps
    onto the other.
    """
    if grouping.p != partition.k:
        raise ValueError(f"grouping must partition {{1,...,{partition.k}}}")

    def relabelled(labels):
        # dict.fromkeys lists the old block labels in their new order
        coarse = [grouping.omega[b - 1] for b in dict.fromkeys(labels)]
        return partition_of(labels).omega, partition_of(coarse).omega

    omega = partition.omega
    fine, coarse = min(
        relabelled(walk[shift:] + walk[:shift])
        for walk in (omega, omega[::-1])
        for shift in range(len(walk))
    )
    return Partition(fine), Partition(coarse)


def dihedral_image(omega, grouping, shift, reverse):
    """Oracle: the pair seen through a rotation (after an optional
    reversal) of the trace indices; the coarse partition follows each
    fine block to its new label."""
    walk = omega.omega[::-1] if reverse else omega.omega
    labels = walk[shift:] + walk[:shift]
    fine = partition_of(labels)
    coarse = [0] * omega.k
    for new, old in zip(fine.omega, labels):
        coarse[new - 1] = grouping.omega[old - 1]
    return fine, partition_of(coarse)


def all_pairs(p):
    return [
        (omega, grouping)
        for k in range(1, p + 1)
        for omega in enumerate_partitions_k(p, k)
        for h in range(1, k + 1)
        for grouping in enumerate_partitions_k(k, h)
    ]


def key(pair):
    return (pair[0].omega, pair[1].omega)


class TestDihedralRepresentative:
    @pytest.mark.parametrize("p", range(1, 6))
    def test_idempotent_and_constant_on_orbit(self, p):
        for pair in all_pairs(p):
            rep = dihedral_representative(*pair)
            assert dihedral_representative(*rep) == rep
            for shift in range(p):
                for reverse in (False, True):
                    image = dihedral_image(*pair, shift, reverse)
                    assert dihedral_representative(*image) == rep
                    assert key(rep) <= key(image)

    def test_reference_orbit(self):
        # the three two-block strings of order three are one rotation orbit
        rep = (Partition((1, 1, 2)), Partition((1, 1)))
        for omega in [(1, 1, 2), (1, 2, 1), (1, 2, 2)]:
            assert dihedral_representative(Partition(omega), Partition((1, 1))) == rep
        rep = dihedral_representative(Partition((1, 2, 3)), Partition((1, 2, 1)))
        assert rep == (Partition((1, 2, 3)), Partition((1, 1, 2)))

    @pytest.mark.parametrize(
        "p,cf_pairs,cf_orbits",
        [(2, 1, 1), (3, 7, 3), (4, 45, 15), (5, 306, 50), (6, 2268, 286)],
    )
    def test_orbit_counts(self, p, cf_pairs, cf_orbits):
        cf = [pair for pair in all_pairs(p) if 1 < pair[0].k and pair[1].k < pair[0].k]
        assert len(cf) == cf_pairs
        assert len({dihedral_representative(*pair) for pair in cf}) == cf_orbits

    @pytest.mark.parametrize("p", range(1, 7))
    def test_orbits_partition_the_pairs(self, p):
        pairs = all_pairs(p)
        reps = {dihedral_representative(*pair) for pair in pairs}
        covered = []
        for rep in reps:
            orbit = {
                key(dihedral_image(*rep, shift, reverse))
                for shift in range(p)
                for reverse in (False, True)
            }
            covered.extend(orbit)
        assert sorted(covered) == sorted(key(pair) for pair in pairs)

    def test_random_pairs_past_the_enumeration_cap(self):
        rng = np.random.default_rng(20091)
        for _ in range(500):
            p = int(rng.integers(2, 10))
            omega = partition_of(rng.integers(0, p, size=p).tolist())
            grouping = partition_of(rng.integers(0, omega.k, size=omega.k).tolist())
            shift, reverse = int(rng.integers(p)), bool(rng.integers(2))
            image = dihedral_image(omega, grouping, shift, reverse)
            assert dihedral_representative(*image) == dihedral_representative(
                omega, grouping
            )
            assert image[0].k == omega.k and image[1].k == grouping.k
            assert mobius_coefficient(image[1]) == mobius_coefficient(grouping)
            assert (
                constraint_system(group_walk(*image)).shape[1]
                == constraint_system(group_walk(omega, grouping)).shape[1]
            )

    def test_grouping_must_partition_the_blocks(self):
        with pytest.raises(ValueError):
            dihedral_representative(Partition((1, 2, 1)), Partition((1, 2, 3)))
