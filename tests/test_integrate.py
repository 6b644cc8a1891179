import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.spatial import ConvexHull, HalfspaceIntersection
from scipy.special import roots_jacobi, roots_legendre

import jittervan.integrate as integrate_module
from jittervan import verify
from jittervan.constraints import (
    constraint_system,
    difference_matrix,
    group_walk,
)
from jittervan.ensemble import EnsembleConfig, resolve_shape
from jittervan.errors import NumericalError
from jittervan.integrate import cf_integral, delta_volume, term_integral
from jittervan.jitter import JitterDistribution, point_mass_half, triangular01, uniform01
from jittervan.moments import _pair_classes, clear_term_cache, moment
from jittervan.partitions import (
    Partition,
    enumerate_partitions,
    enumerate_partitions_k,
    partition_of,
)
from jittervan.verify import finite_grid_term
from test_moments import cf_orbits, two_point

LAWS = {"uniform01": uniform01, "triangular01": triangular01, "two_point": two_point}


def cf_class_representatives() -> dict:
    """The 17 cf class representatives of p <= 5, in order of first member:
    the classes with fewer coarse than fine blocks."""
    return dict.fromkeys(
        (fine, coarse)
        for p in range(2, 6)
        for fine, coarse in _pair_classes(p)[1]
        if coarse.k < fine.k
    )


#: Exact volumes of every order <= 5 partition with two or more blocks, as
#: certified by exact lattice-point counts in growing boxes (the counts are
#: a polynomial in the box width whose leading coefficient is the volume).
LATTICE_VOLUMES = {
    (1, 2): Fraction(1, 1),
    (1, 1, 2): Fraction(1, 1),
    (1, 2, 1): Fraction(1, 1),
    (1, 2, 2): Fraction(1, 1),
    (1, 2, 3): Fraction(1, 1),
    (1, 1, 1, 2): Fraction(1, 1),
    (1, 1, 2, 1): Fraction(1, 1),
    (1, 1, 2, 2): Fraction(1, 1),
    (1, 1, 2, 3): Fraction(1, 1),
    (1, 2, 1, 1): Fraction(1, 1),
    (1, 2, 1, 2): Fraction(2, 3),
    (1, 2, 1, 3): Fraction(1, 1),
    (1, 2, 2, 1): Fraction(1, 1),
    (1, 2, 2, 2): Fraction(1, 1),
    (1, 2, 2, 3): Fraction(1, 1),
    (1, 2, 3, 1): Fraction(1, 1),
    (1, 2, 3, 2): Fraction(1, 1),
    (1, 2, 3, 3): Fraction(1, 1),
    (1, 2, 3, 4): Fraction(1, 1),
    (1, 1, 1, 1, 2): Fraction(1, 1),
    (1, 1, 1, 2, 1): Fraction(1, 1),
    (1, 1, 1, 2, 2): Fraction(1, 1),
    (1, 1, 1, 2, 3): Fraction(1, 1),
    (1, 1, 2, 1, 1): Fraction(1, 1),
    (1, 1, 2, 1, 2): Fraction(2, 3),
    (1, 1, 2, 1, 3): Fraction(1, 1),
    (1, 1, 2, 2, 1): Fraction(1, 1),
    (1, 1, 2, 2, 2): Fraction(1, 1),
    (1, 1, 2, 2, 3): Fraction(1, 1),
    (1, 1, 2, 3, 1): Fraction(1, 1),
    (1, 1, 2, 3, 2): Fraction(1, 1),
    (1, 1, 2, 3, 3): Fraction(1, 1),
    (1, 1, 2, 3, 4): Fraction(1, 1),
    (1, 2, 1, 1, 1): Fraction(1, 1),
    (1, 2, 1, 1, 2): Fraction(2, 3),
    (1, 2, 1, 1, 3): Fraction(1, 1),
    (1, 2, 1, 2, 1): Fraction(2, 3),
    (1, 2, 1, 2, 2): Fraction(2, 3),
    (1, 2, 1, 2, 3): Fraction(2, 3),
    (1, 2, 1, 3, 1): Fraction(1, 1),
    (1, 2, 1, 3, 2): Fraction(2, 3),
    (1, 2, 1, 3, 3): Fraction(1, 1),
    (1, 2, 1, 3, 4): Fraction(1, 1),
    (1, 2, 2, 1, 1): Fraction(1, 1),
    (1, 2, 2, 1, 2): Fraction(2, 3),
    (1, 2, 2, 1, 3): Fraction(1, 1),
    (1, 2, 2, 2, 1): Fraction(1, 1),
    (1, 2, 2, 2, 2): Fraction(1, 1),
    (1, 2, 2, 2, 3): Fraction(1, 1),
    (1, 2, 2, 3, 1): Fraction(1, 1),
    (1, 2, 2, 3, 2): Fraction(1, 1),
    (1, 2, 2, 3, 3): Fraction(1, 1),
    (1, 2, 2, 3, 4): Fraction(1, 1),
    (1, 2, 3, 1, 1): Fraction(1, 1),
    (1, 2, 3, 1, 2): Fraction(2, 3),
    (1, 2, 3, 1, 3): Fraction(2, 3),
    (1, 2, 3, 1, 4): Fraction(1, 1),
    (1, 2, 3, 2, 1): Fraction(1, 1),
    (1, 2, 3, 2, 2): Fraction(1, 1),
    (1, 2, 3, 2, 3): Fraction(2, 3),
    (1, 2, 3, 2, 4): Fraction(1, 1),
    (1, 2, 3, 3, 1): Fraction(1, 1),
    (1, 2, 3, 3, 2): Fraction(1, 1),
    (1, 2, 3, 3, 3): Fraction(1, 1),
    (1, 2, 3, 3, 4): Fraction(1, 1),
    (1, 2, 3, 4, 1): Fraction(1, 1),
    (1, 2, 3, 4, 2): Fraction(1, 1),
    (1, 2, 3, 4, 3): Fraction(1, 1),
    (1, 2, 3, 4, 4): Fraction(1, 1),
    (1, 2, 3, 4, 5): Fraction(1, 1),
}

#: Every cf-regime orbit representative of order <= 4 at beta = 0.55,
#: d = 2, as (value, standard error) from scrambled Sobol averages over
#: 2^16 points x 32 replicates, the estimator the cf regimes used before
#: the cubature.  Keyed by (law, fine partition, coarse partition).
QMC_ORBIT_VALUES = {
    ("uniform01", (1, 2), (1, 1)): (0.7700428439086713, 7.9208e-10),
    ("uniform01", (1, 1, 2), (1, 1)): (0.7700428371877046, 7.8189e-09),
    ("uniform01", (1, 2, 3), (1, 1, 1)): (0.6562637231853551, 1.8373e-08),
    ("uniform01", (1, 2, 3), (1, 1, 2)): (0.7700428510925448, 4.9334e-09),
    ("uniform01", (1, 1, 1, 2), (1, 1)): (0.7700428443758962, 2.5108e-09),
    ("uniform01", (1, 1, 2, 2), (1, 1)): (0.7700428441919226, 1.5142e-09),
    ("uniform01", (1, 2, 1, 2), (1, 1)): (0.6470260467099437, 8.4039e-07),
    ("uniform01", (1, 1, 2, 3), (1, 1, 1)): (0.6562636905311574, 1.0173e-08),
    ("uniform01", (1, 1, 2, 3), (1, 1, 2)): (0.7700428492685927, 7.0537e-09),
    ("uniform01", (1, 1, 2, 3), (1, 2, 2)): (0.7700428997652642, 5.8815e-08),
    ("uniform01", (1, 2, 1, 3), (1, 1, 1)): (0.5995577390996717, 6.0945e-07),
    ("uniform01", (1, 2, 1, 3), (1, 1, 2)): (0.7700427721700729, 7.3787e-08),
    ("uniform01", (1, 2, 1, 3), (1, 2, 2)): (0.5673415001910131, 4.2313e-05),
    ("uniform01", (1, 2, 3, 4), (1, 1, 1, 1)): (0.5681250459931462, 1.0215e-07),
    ("uniform01", (1, 2, 3, 4), (1, 1, 1, 2)): (0.6562637006670285, 7.7300e-09),
    ("uniform01", (1, 2, 3, 4), (1, 1, 2, 2)): (0.5995577344278585, 1.8492e-08),
    ("uniform01", (1, 2, 3, 4), (1, 2, 1, 2)): (0.47633189699141426, 3.6409e-05),
    ("uniform01", (1, 2, 3, 4), (1, 1, 2, 3)): (0.7700428372153754, 8.1472e-09),
    ("uniform01", (1, 2, 3, 4), (1, 2, 1, 3)): (0.7700428440287772, 2.5536e-09),
    ("triangular01", (1, 2), (1, 1)): (0.8708626567393641, 5.9352e-09),
    ("triangular01", (1, 1, 2), (1, 1)): (0.8708626647991338, 1.5643e-09),
    ("triangular01", (1, 2, 3), (1, 1, 1)): (0.8065829944800642, 5.8050e-09),
    ("triangular01", (1, 2, 3), (1, 1, 2)): (0.8708626657407015, 1.8282e-10),
    ("triangular01", (1, 1, 1, 2), (1, 1)): (0.870862664924534, 7.1673e-10),
    ("triangular01", (1, 1, 2, 2), (1, 1)): (0.8708626631069886, 2.6127e-09),
    ("triangular01", (1, 2, 1, 2), (1, 1)): (0.780745724761229, 2.2859e-07),
    ("triangular01", (1, 1, 2, 3), (1, 1, 1)): (0.8065829804965005, 2.5814e-08),
    ("triangular01", (1, 1, 2, 3), (1, 1, 2)): (0.8708626662630083, 7.5511e-10),
    ("triangular01", (1, 1, 2, 3), (1, 2, 2)): (0.8708626653688433, 4.4688e-10),
    ("triangular01", (1, 2, 1, 3), (1, 1, 1)): (0.7628998605283946, 8.6780e-08),
    ("triangular01", (1, 2, 1, 3), (1, 1, 2)): (0.8708626664706699, 1.3868e-09),
    ("triangular01", (1, 2, 1, 3), (1, 2, 2)): (0.612716104483647, 3.0522e-05),
    ("triangular01", (1, 2, 3, 4), (1, 1, 1, 1)): (0.7504489002139987, 4.0563e-08),
    ("triangular01", (1, 2, 3, 4), (1, 1, 1, 2)): (0.8065829965603486, 5.9820e-09),
    ("triangular01", (1, 2, 3, 4), (1, 1, 2, 2)): (0.7609844738241969, 1.7967e-08),
    ("triangular01", (1, 2, 3, 4), (1, 2, 1, 2)): (0.5609308206597183, 5.6326e-05),
    ("triangular01", (1, 2, 3, 4), (1, 1, 2, 3)): (0.8708626650555407, 6.6654e-10),
    ("triangular01", (1, 2, 3, 4), (1, 2, 1, 3)): (0.8708626653985718, 1.0488e-09),
    ("two_point", (1, 2), (1, 1)): (0.6966195751982881, 7.5441e-09),
    ("two_point", (1, 1, 2), (1, 1)): (0.696619581387595, 1.7950e-09),
    ("two_point", (1, 2, 3), (1, 1, 1)): (0.544929419903571, 5.2220e-08),
    ("two_point", (1, 2, 3), (1, 1, 2)): (0.6966195849871517, 7.9188e-09),
    ("two_point", (1, 1, 1, 2), (1, 1)): (0.6966196199297277, 3.6607e-08),
    ("two_point", (1, 1, 2, 2), (1, 1)): (0.6966195206118637, 6.1313e-08),
    ("two_point", (1, 2, 1, 2), (1, 1)): (0.6003285234414111, 1.1529e-06),
    ("two_point", (1, 1, 2, 3), (1, 1, 1)): (0.5449293731174929, 4.3207e-09),
    ("two_point", (1, 1, 2, 3), (1, 1, 2)): (0.6966195819851411, 1.5384e-09),
    ("two_point", (1, 1, 2, 3), (1, 2, 2)): (0.6966195789787416, 4.1677e-09),
    ("two_point", (1, 2, 1, 3), (1, 1, 1)): (0.496784250836938, 6.8040e-07),
    ("two_point", (1, 2, 1, 3), (1, 1, 2)): (0.6966195799448793, 1.7916e-09),
    ("two_point", (1, 2, 1, 3), (1, 2, 2)): (0.5303037258246861, 3.0469e-05),
    ("two_point", (1, 2, 3, 4), (1, 1, 1, 1)): (0.4392587387091235, 1.7083e-07),
    ("two_point", (1, 2, 3, 4), (1, 1, 1, 2)): (0.5449293782900576, 8.2027e-09),
    ("two_point", (1, 2, 3, 4), (1, 1, 2, 2)): (0.493624516907873, 4.2626e-08),
    ("two_point", (1, 2, 3, 4), (1, 2, 1, 2)): (0.41064181339972244, 2.0452e-05),
    ("two_point", (1, 2, 3, 4), (1, 1, 2, 3)): (0.6966195849404848, 3.5722e-09),
    ("two_point", (1, 2, 3, 4), (1, 2, 1, 3)): (0.6966196235783682, 5.9438e-08),
}


def sum_of_uniforms_density_at_zero(count: int) -> Fraction:
    """Oracle: density at 0 of a sum of centered unit uniforms.

    Shifted to a sum of count uniforms on [0,1) evaluated at count/2, via
    the piecewise-polynomial convolution formula, in exact rationals.
    """
    x = Fraction(count, 2)
    total = Fraction(0)
    for j in range(int(x) + 1):
        term = Fraction((-1) ** j * math.comb(count, j)) * (x - j) ** (count - 1)
        total += term
    return total / math.factorial(count - 1)


def rotate_pair(omega: Partition, grouping: Partition, shift: int):
    """Cyclically relabel the base set and carry the block grouping along."""
    p = omega.p
    labels = [omega.omega[(i + shift) % p] for i in range(p)]
    rotated = partition_of(labels)
    block_map = {}
    for j, block in enumerate(omega.blocks, start=1):
        element = min(block)
        new_position = ((element - 1 - shift) % p) + 1
        block_map[j] = rotated.omega[new_position - 1]
    regrouped = [0] * rotated.k
    for old_block, group in enumerate(grouping.omega, start=1):
        regrouped[block_map[old_block] - 1] = group
    return rotated, partition_of(regrouped)


class TestDeltaVolume:
    def test_two_singletons_is_one(self):
        assert verify.pinned_pair_volume()

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_single_block_is_one(self, p):
        assert delta_volume(Partition((1,) * p)).exact == 1

    def test_one_label_builds_no_cells(self, monkeypatch):
        calls = []
        monkeypatch.setattr(integrate_module, "_walk_cells", lambda w: calls.append(w))
        for p in (1, 2, 3):
            assert delta_volume(Partition((1,) * p)).exact == 1
        assert calls == []

    def test_alternating_four(self):
        oracle = sum_of_uniforms_density_at_zero(4)
        assert oracle == Fraction(2, 3)
        assert delta_volume(Partition((1, 2, 1, 2))).exact == oracle

    def test_alternating_six(self):
        # one independent constraint: the alternating sum of six uniforms
        oracle = sum_of_uniforms_density_at_zero(6)
        assert oracle == Fraction(11, 20)
        assert delta_volume(Partition((1, 2, 1, 2, 1, 2))).exact == oracle

    def test_interleaved_three_blocks(self):
        # two independent constraints; reducing to the sum u = y1 + y4
        # leaves int (1-|u|)^3 du = 1/2
        target, _ = quad(lambda u: (1 - abs(u)) ** 3, -1, 1, epsabs=1e-12)
        got = delta_volume(Partition((1, 2, 3, 1, 2, 3)))
        assert got.exact == Fraction(1, 2)
        assert float(got.exact) == pytest.approx(target, abs=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_exact_rational_in_unit_interval(self, p):
        assert verify.volumes_exact_in_unit_interval(p)

    def test_unit_value_iff_noncrossing(self):
        # the partitions at volume one are counted by the Narayana numbers
        from jittervan.moments import narayana

        for p in (3, 4, 5, 6):
            for k in range(1, p + 1):
                units = sum(
                    1
                    for w in enumerate_partitions_k(p, k)
                    if delta_volume(w).exact == 1
                )
                assert units == narayana(p, k)

    def test_cyclic_relabeling_invariance(self):
        for w in enumerate_partitions(4):
            base = delta_volume(w).exact
            for shift in range(1, 4):
                rotated, _ = rotate_pair(w, Partition(tuple(range(1, w.k + 1))), shift)
                assert delta_volume(rotated).exact == base

    def test_matches_lattice_counts(self):
        assert len(LATTICE_VOLUMES) == 70
        for omega, exact in LATTICE_VOLUMES.items():
            assert delta_volume(Partition(omega)).exact == exact, omega

    @pytest.mark.parametrize(
        "p", [*range(2, 7), pytest.param(7, marks=pytest.mark.slow)]
    )
    def test_matches_qhull_volume(self, p):
        # every partition with n >= 2 free coordinates, for qhull: P's
        # volume is a multiple of 1 / (2^n n!) >= 1.5e-6 at n <= 7, so a
        # match to 1e-9 pins the exact value
        partitions = [w for w in enumerate_partitions(p) if w.k < p]
        assert len(partitions) == {2: 1, 3: 4, 4: 14, 5: 51, 6: 202, 7: 876}[p]
        for w in partitions:
            basis = constraint_system(w)
            n = basis.shape[1]
            exact = delta_volume(w).exact
            assert (exact * 2**n * math.factorial(n)).denominator == 1, w
            hull = ConvexHull(polytope_vertices(basis)).volume
            assert abs(exact - hull) < 1e-9, w

    def test_refuses_fractional_determinants_and_volumes_outside_unit(
        self, monkeypatch
    ):
        walk = Partition((1, 2, 1, 2))
        basis, cells, volumes, rule, method = integrate_module._walk_cells(walk)
        n = basis.shape[1]
        for scaled, message in [
            (volumes + 1e-12, None),
            (volumes + 1e-6 / 2**n, "not integers"),
            (4 * volumes, "outside"),
            (0 * volumes, "outside"),
        ]:
            geometry = basis, cells, scaled, rule, method
            monkeypatch.setattr(integrate_module, "_walk_cells", lambda w: geometry)
            if message is None:
                assert delta_volume(walk).exact == Fraction(2, 3)
            else:
                with pytest.raises(NumericalError, match=message):
                    delta_volume(walk)


class TestCountBoxSolutions:
    """Integer kernel points in the box, counted by the finite-grid sum.

    With the point-mass law every phase cancels (the difference forms sum
    to zero), so finite_grid_term times (2m+1)^(p-h+1) is the exact count.
    """

    @staticmethod
    def count(partition, grouping, m):
        grid = finite_grid_term(partition, grouping, m, 0.5, 1, point_mass_half())
        return round(grid * (2 * m + 1) ** (partition.p - grouping.k + 1))

    def test_identity_basis_is_full_cube(self):
        assert self.count(Partition((1, 2, 3)), Partition((1, 1, 1)), 4) == 9**3

    def test_single_difference(self):
        assert self.count(Partition((1, 2)), Partition((1, 2)), 10) == 21

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_alternating_closed_form(self, m):
        # solutions of l1 - l2 + l3 - l4 = 0 in the box: sum of squared
        # convolution counts, (2m+1)(2(2m+1)^2 + 1)/3
        width = 2 * m + 1
        count = self.count(Partition((1, 2, 1, 2)), Partition((1, 2)), m)
        assert count == width * (2 * width**2 + 1) // 3


def plain_monte_carlo(partition, grouping, beta, d, dist, points, replicates, seed):
    """Independent estimate: uniform points in the cube, pivots checked in it.

    Returns (mean, standard error) over the replicates.
    """
    basis = constraint_system(group_walk(partition, grouping))
    forms = difference_matrix(partition).astype(float)
    rng = np.random.default_rng(seed)
    estimates = []
    for _ in range(replicates):
        y = (rng.random((points, basis.shape[1])) - 0.5) @ basis.T
        inside = np.all(np.abs(y) <= 0.5, axis=1)
        values = np.prod(dist.cf(beta ** (1.0 / d) * (y @ forms.T)), axis=1)
        estimates.append(np.where(inside, values, 0.0).mean().real)
    return float(np.mean(estimates)), float(np.std(estimates, ddof=1) / np.sqrt(replicates))


def cf_orbit_representatives(max_p):
    return [rep for p in range(2, max_p + 1) for rep in cf_orbits(p)]


class TestCfIntegral:
    def test_uniform_reduced_quadrature(self):
        assert verify.cubature_matches_reduced_quadrature()

    @pytest.mark.parametrize("beta,d", [(0.3, 1), (0.8, 2)])
    def test_point_mass_two_dimensional_quadrature(self, beta, d):
        est = cf_integral(
            Partition((1, 2)), Partition((1, 1)), beta, d, point_mass_half()
        )
        target = verify.bracket_integral(beta, d, point_mass_half())
        assert abs(est.value - target) <= max(3 * est.std_error, 1e-9)
        assert target == pytest.approx(1.0)

    def test_constrained_case_reduces_to_plain(self):
        # merging two of three singleton blocks pins y1 = y3; what is left
        # is the two-coordinate integral again
        est = cf_integral(
            Partition((1, 2, 3)), Partition((1, 1, 2)), 0.6, 1, uniform01()
        )
        target = verify.bracket_integral(0.6, 1, uniform01())
        assert est.method == "gauss_cones"
        assert abs(est.value - target) <= max(5 * est.std_error, 5e-4)

    def test_triangular_reduced_quadrature(self):
        est = cf_integral(
            Partition((1, 2)), Partition((1, 1)), 0.7, 1, triangular01()
        )
        target = verify.bracket_integral(0.7, 1, triangular01())
        assert abs(est.value - target) <= max(3 * est.std_error, 1e-4)

    def test_plain_monte_carlo_agrees(self):
        for pair in [
            (Partition((1, 2)), Partition((1, 1))),
            (Partition((1, 2, 3, 4)), Partition((1, 2, 1, 2))),
        ]:
            mc, mc_err = plain_monte_carlo(*pair, 0.5, 1, uniform01(), 2**13, 16, 3)
            est = cf_integral(*pair, 0.5, 1, uniform01())
            assert abs(mc - est.value) <= 4 * (mc_err + est.std_error)

    def test_deterministic_across_calls(self):
        for pair in [
            (Partition((1, 2)), Partition((1, 1))),
            (Partition((1, 2, 3, 4)), Partition((1, 2, 1, 2))),
        ]:
            a = cf_integral(*pair, 0.5, 1, uniform01())
            b = cf_integral(*pair, 0.5, 1, uniform01())
            assert a.value == b.value and a.std_error == b.std_error

    def test_cyclic_relabeling_invariance(self):
        base_pair = (Partition((1, 1, 2)), Partition((1, 1)))
        base = cf_integral(*base_pair, 0.6, 1, uniform01())
        for shift in (1, 2):
            rotated = rotate_pair(*base_pair, shift)
            value = cf_integral(*rotated, 0.6, 1, uniform01())
            assert abs(value.value - base.value) <= 4 * (base.std_error + value.std_error)

    def test_polytope_volumes_are_exact(self):
        # with the point-mass law the integrand is one, so the cubature
        # returns the volume of the free-coordinate polytope, which the
        # lattice count certifies
        for w, g, volume in [
            ((1, 2, 3, 4), (1, 2, 1, 2), 2 / 3),
            ((1, 2, 1, 3), (1, 1, 2), 1.0),
            ((1, 2, 3, 4, 5), (1, 1, 2, 1, 2), 2 / 3),
        ]:
            est = cf_integral(Partition(w), Partition(g), 0.5, 1, point_mass_half())
            assert est.method == "gauss_cones"
            assert est.value == pytest.approx(volume, abs=1e-14)
            assert est.std_error <= 1e-14

    def test_within_three_sigma_of_qmc_snapshot(self):
        assert len(QMC_ORBIT_VALUES) == 3 * len(cf_orbit_representatives(4))
        worst = 0.0
        for (law, omega, grouping), (value, sigma) in QMC_ORBIT_VALUES.items():
            est = cf_integral(Partition(omega), Partition(grouping), 0.55, 2, LAWS[law]())
            worst = max(worst, abs(est.value - value) / math.hypot(sigma, est.std_error))
        assert worst < 3.0

    @pytest.mark.parametrize("beta,d", [(0.55, 2), (0.6, 1)])
    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_error_estimate_bounds_actual_error(self, monkeypatch, law, beta, d):
        dist = LAWS[law]()
        pairs = cf_orbit_representatives(4)
        estimates = [cf_integral(*pair, beta, d, dist) for pair in pairs]
        monkeypatch.setattr(integrate_module, "VALUE_ORDER", 24)
        for pair, est in zip(pairs, estimates):
            reference = cf_integral(*pair, beta, d, dist).value
            assert abs(est.value - reference) <= est.std_error + 1e-14, pair

    def test_validation(self):
        with pytest.raises(ValueError):
            cf_integral(Partition((1, 2)), Partition((1, 2)), 0.5, 1, uniform01())
        with pytest.raises(ValueError):
            cf_integral(Partition((1, 1)), Partition((1,)), 0.5, 1, uniform01())
        with pytest.raises(ValueError):
            cf_integral(Partition((1, 2)), Partition((1, 1)), 1.5, 1, uniform01())
        with pytest.raises(ValueError):
            cf_integral(Partition((1, 2)), Partition((1, 1)), 0.5, 0, uniform01())
        with pytest.raises(ValueError, match="grouping must partition"):
            cf_integral(Partition((1, 2)), Partition((1, 1, 2)), 0.5, 1, uniform01())

    def test_realness_guard_fires_on_inconsistent_cf(self):
        # a cf with cf(-t) != conj cf(t) would make the half-domain rule
        # wrong, so the law is refused when it is built
        with pytest.raises(ValueError, match="Hermitian"):
            JitterDistribution(
                "broken_phase",
                lambda t: np.where(t > 0, np.exp(-2j * np.pi * 0.75 * t), 1.0 + 0j),
                lambda rng, shape: np.full(shape, 0.5),
                symmetric_about_half=False,
            )


def integer_forms(partition, grouping):
    return difference_matrix(partition) @ constraint_system(group_walk(partition, grouping))


class TestFold:
    def test_rows_are_nonzero_distinct_up_to_sign_and_lead_positive(self):
        for pair in cf_orbit_representatives(5):
            forms = integer_forms(*pair)
            distinct, index, flip = integrate_module._fold(forms)
            assert distinct.any(axis=1).all(), pair
            lead = distinct[np.arange(len(distinct)), np.argmax(distinct != 0, axis=1)]
            assert (lead > 0).all(), pair
            signed = np.vstack([distinct, -distinct])
            assert len(np.unique(signed, axis=0)) == 2 * len(distinct), pair
            # index and flip rebuild the nonzero rows in order
            rebuilt = np.where(flip[:, None], -distinct[index], distinct[index])
            assert np.array_equal(rebuilt, forms[forms.any(axis=1)]), pair

    def test_fold_drops_and_shares_rows(self):
        forms = np.array([[1, -1], [0, 0], [-1, 1], [0, 2], [1, -1]])
        distinct, index, flip = integrate_module._fold(forms)
        assert distinct.tolist() == [[0, 2], [1, -1]]
        assert index.tolist() == [1, 1, 0, 1]
        assert flip.tolist() == [False, True, False, False]

    @pytest.mark.parametrize("law", sorted(LAWS))
    def test_folded_product_equals_plain_product(self, law):
        dist = LAWS[law]()
        scale = 0.55 ** (1 / 2)
        rng = np.random.default_rng(17)
        for pair in cf_orbit_representatives(5):
            forms = integer_forms(*pair)
            distinct, index, flip = integrate_module._fold(forms)
            x = rng.uniform(-0.5, 0.5, (64, forms.shape[1]))
            t = x @ (scale * distinct).T
            folded = integrate_module._product(t, index, flip, dist)
            plain = np.prod(dist.cf(x @ (scale * forms).T), axis=1)
            assert np.abs(folded - plain).max() <= 1e-14, pair


BUILT_IN = {
    "uniform01": uniform01,
    "triangular01": triangular01,
    "point_mass_half": point_mass_half,
}


@pytest.fixture
def cf_calls(monkeypatch):
    """The kind of the law at each call of a complex cf, from then on."""
    calls = []
    cf = JitterDistribution.cf

    def counted(self, t):
        calls.append(self.kind)
        return cf(self, t)

    monkeypatch.setattr(JitterDistribution, "cf", counted)
    return calls


class TestRealProduct:
    def test_built_in_laws_make_no_complex_cf_call(self, cf_calls):
        laws = [factory() for factory in BUILT_IN.values()] + [two_point()]
        cf_calls.clear()
        clear_term_cache()
        for law, p in itertools.product(laws, range(1, 6)):
            moment(p, 0.55, 2, law)
        assert set(cf_calls) == {"two_point"}

    def test_finite_grid_oracle_keeps_the_complex_cf(self, cf_calls):
        law = uniform01()
        cf_calls.clear()
        finite_grid_term(Partition((1, 2, 3)), Partition((1, 1, 2)), 3, 0.55, 2, law)
        assert cf_calls and set(cf_calls) == {"uniform01"}

    @pytest.mark.parametrize("beta,d", [(0.55, 2), (0.6, 1)])
    @pytest.mark.parametrize("law", sorted(BUILT_IN))
    def test_equals_the_complex_product_on_every_class(self, law, beta, d):
        # every class of p <= 5, and a six-dimensional cube class, a 4-D
        # and a 5-D cone class of p = 6
        classes = cf_class_representatives()
        assert len(classes) == 17
        classes.update(
            dict.fromkeys(
                (Partition(fine), Partition(coarse))
                for fine, coarse in [
                    ((1, 2, 3, 4, 5, 6), (1, 1, 1, 1, 1, 1)),
                    ((1, 2, 3, 4, 5, 6), (1, 2, 1, 3, 2, 3)),
                    ((1, 2, 1, 3, 1, 3), (1, 2, 2)),
                ]
            )
        )
        real = BUILT_IN[law]()
        # a law rebuilt around a wrapper of the cf takes the complex product
        complex_ = JitterDistribution(real.kind, lambda t: real.cf(t), real.draw, True)
        for pair in classes:
            a = cf_integral(*pair, beta, d, real)
            b = cf_integral(*pair, beta, d, complex_)
            assert abs(a.value - b.value) <= 1e-13, pair
            assert abs(a.std_error - b.std_error) <= 1e-13, pair


def gathered_product(t, index, flip, dist):
    """The folded product as a gather: phi of every row in one array, the
    flipped rows of a complex phi conjugated, then ``np.prod`` over the rows."""
    values = dist._centred(t)[..., index]
    if np.iscomplexobj(values):
        np.conjugate(values, out=values, where=flip)
    return np.prod(values, axis=-1)


class TestProduct:
    @pytest.mark.parametrize(
        "law", [*BUILT_IN.values(), two_point], ids=[*BUILT_IN, "two_point"]
    )
    def test_equals_the_gathered_product_bit_for_bit(self, law):
        dist = law()
        # every class of p <= 5 and the order-six cone class
        classes = cf_class_representatives()
        classes[Partition((1, 2, 3, 4, 5, 6)), Partition((1, 1, 2, 2, 2, 2))] = None
        rng = np.random.default_rng(28)
        for pair in classes:
            (forms, _), (index, flip), _, _ = integrate_module._pair_setup(*pair)
            # a group of three cells at 64 nodes, as the cell loop takes them
            nodes = rng.uniform(0.0, 0.5, (64, forms.shape[1]))
            t = nodes @ (0.55**0.5 * forms[:3])
            expected = gathered_product(t.copy(), index, flip, dist)
            got = integrate_module._product(t, index, flip, dist)
            assert got.shape == expected.shape == t.shape[:-1], pair
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), pair

    @pytest.mark.parametrize("law", [uniform01, triangular01])
    def test_holds_little_beyond_its_batch(self, law):
        # a batch of the p = 4 cube class, whose four forms are distinct; the
        # gather and np.sinc's temporaries held 4 to 5 times its bytes
        pair = Partition((1, 2, 3, 4)), Partition((1, 1, 1, 1))
        (forms, _), fold, _, _ = integrate_module._pair_setup(*pair)
        nodes = np.random.default_rng(5).uniform(0.0, 0.5, (integrate_module._BATCH, 4))
        t, dist = nodes @ forms[0], law()
        assert t.shape == (integrate_module._BATCH, 4)
        budget = 1.5 * t.nbytes
        tracemalloc.start()
        try:
            integrate_module._product(t, *fold, dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget


def jacobi_moment(alpha: int, k: int) -> Fraction:
    """Exact integral of x^k (1 - x)^alpha over [-1, 1]."""
    terms = range(k % 2, alpha + 1, 2)  # odd powers integrate to zero
    return sum(Fraction((-1) ** j * math.comb(alpha, j) * 2, j + k + 1) for j in terms)


class TestGaussRoots:
    def test_memo_is_read_only_and_fresh(self, monkeypatch):
        keys = set()
        golub_welsch = integrate_module._golub_welsch

        def recording(order, alpha):
            keys.add((order, alpha))
            return golub_welsch(order, alpha)

        rules = (integrate_module._cube_half_rule, integrate_module._simplex_rule)
        memos = (integrate_module._gauss_jacobi,) + rules
        monkeypatch.setattr(integrate_module, "_golub_welsch", recording)
        for memo in memos:
            memo.cache_clear()
        for pair in cf_orbit_representatives(5):
            cf_integral(*pair, 0.55, 2, uniform01())
        monkeypatch.undo()
        orders = (integrate_module.VALUE_ORDER, integrate_module.CHECK_ORDER)
        assert keys == {(order, alpha) for order in orders for alpha in range(4)}
        for order, alpha in keys:
            x, w = integrate_module._gauss_jacobi(order, alpha)
            fresh = golub_welsch(order, alpha)
            assert np.array_equal(x, fresh[0]) and np.array_equal(w, fresh[1])
            for array in (x, w):
                with pytest.raises(ValueError):
                    array[0] = 0.0
        # the cube and simplex rules are memoised per (n, order, batch): each
        # holds at most one batch of nodes, and its batches, read in turn,
        # are the whole tensor product bit for bit
        for memo in rules:
            assert memo.cache_info().currsize > 0
            for n, order in itertools.product(range(1, 6), orders):
                whole = full_rule(memo, n, order)
                for batch in BATCHES:
                    rule = memo(n, order, batch)
                    assert memo(n, order, batch) is rule
                    lead, nodes, weights = rule
                    assert len(nodes) <= batch
                    batches = list(integrate_module._batches(rule))
                    assert all(len(b) <= batch for b, _ in batches)
                    for got, want in zip(map(np.concatenate, zip(*batches)), whole):
                        assert np.array_equal(got, want), (memo, n, order, batch)
                    for array in (*itertools.chain(*lead), nodes, weights):
                        with pytest.raises(ValueError):
                            array[0] = 0.0
        for memo in memos:
            memo.cache_clear()

    def test_rule_memos_hold_at_most_one_batch(self, monkeypatch):
        # a cold p = 1..5 pass builds the five-dimensional half cube, whose
        # 16,384 nodes at VALUE_ORDER are held as four leading nodes and one
        # batch of the trailing axes
        held, split = [], integrate_module._split_rule

        def recording(axes, batch):
            whole = math.prod(len(axis[0]) for axis in axes)
            rule = split(axes, batch)
            held.append((whole, len(rule[1])))
            return rule

        rules = (integrate_module._cube_half_rule, integrate_module._simplex_rule)
        monkeypatch.setattr(integrate_module, "_split_rule", recording)
        for memo in rules:
            memo.cache_clear()
        clear_term_cache()
        for p in range(1, 6):
            moment(p, 0.55, 2, uniform01())
        assert max(nodes for _, nodes in held) <= integrate_module._BATCH
        assert max(whole for whole, _ in held) == 16384
        for memo in rules:
            memo.cache_clear()
        clear_term_cache()

    @pytest.mark.parametrize("alpha", range(6))
    def test_matches_scipy_roots(self, alpha):
        # scipy's own weights are off by up to 5.4e-13 relative at order 20
        # (against a 50-digit Golub-Welsch), so the weights are held to
        # 1e-12 here and to the exact moments below
        for order in range(2, 21):
            x, w = integrate_module._golub_welsch(order, alpha)
            ref_x, ref_w = roots_legendre(order) if alpha == 0 else roots_jacobi(order, alpha, 0)
            assert np.abs(x - ref_x).max() <= 1e-15, order
            assert (np.abs(w - ref_w) / ref_w).max() <= 1e-12, order

    @pytest.mark.parametrize("alpha", range(6))
    def test_exact_on_polynomials(self, alpha):
        # the defining property: degree 2 * order - 1 integrated exactly
        mass = Fraction(2 ** (alpha + 1), alpha + 1)
        for order in range(2, 21):
            x, w = integrate_module._golub_welsch(order, alpha)
            nodes = [Fraction(value) for value in x]
            weights = [Fraction(value) for value in w]
            for k in range(2 * order):
                rule = sum(wi * xi**k for wi, xi in zip(weights, nodes))
                assert abs(rule - jacobi_moment(alpha, k)) <= 4e-15 * mass, (order, k)

    @pytest.mark.parametrize("order", range(2, 21))
    def test_legendre_rule_is_mirror_symmetric(self, order):
        x, w = integrate_module._golub_welsch(order, 0)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def polytope_vertices(basis: np.ndarray) -> np.ndarray:
    """The vertices of P = {x : |basis @ x| <= 1/2}, by qhull."""
    rows = np.unique(np.vstack([basis, -basis]), axis=0)
    halfspaces = np.hstack([rows, np.full((len(rows), 1), -0.5)])
    return HalfspaceIntersection(halfspaces, np.zeros(basis.shape[1])).intersections


def cone_classes(p_max: int):
    """(order, class representative) of every class a moment of order
    p <= p_max integrates over cones; a class recurs at higher orders."""
    return [
        (p, fine, coarse)
        for p in range(1, p_max + 1)
        for fine, coarse in _pair_classes(p)[1]
        if 1 < coarse.k < fine.k
    ]


class TestHalfCones:
    def test_volume_and_vertices_on_every_class_to_order_six(self):
        classes = cone_classes(6)
        assert len(classes) == 74
        counts = Counter()
        for p, fine, coarse in classes:
            # the walk through the groups, composed here
            walk = partition_of([coarse.omega[b - 1] for b in fine.omega])
            assert walk == group_walk(fine, coarse)
            basis = constraint_system(walk)
            n = basis.shape[1]
            cell_basis, cones, volumes, rule, method = integrate_module._walk_cells(walk)
            assert np.array_equal(cell_basis, basis)
            assert (rule, method) == (integrate_module._simplex_rule, "gauss_cones")
            assert np.array_equal(volumes, np.abs(np.linalg.det(cones)))
            counts[p] += len(cones)
            # the cones and their mirrors tile P, so twice their volume is
            # qhull's volume of P
            qhull = polytope_vertices(basis)
            dets = np.linalg.det(2 * cones)
            assert np.abs(dets - np.round(dets)).max() < 1e-9
            volume = 2 * Fraction(int(np.abs(np.round(dets)).sum()), 2**n * math.factorial(n))
            assert abs(volume - ConvexHull(qhull).volume) < 1e-9, (fine, coarse)
            # every vertex of P is a vertex of the triangulated boundary
            expected = np.unique(np.round(2 * qhull).astype(np.int64), axis=0)
            doubled = (2 * np.vstack([cones, -cones])).reshape(-1, n).astype(np.int64)
            assert np.array_equal(np.unique(doubled, axis=0), expected), (fine, coarse)
        assert dict(counts) == {4: 14, 5: 126, 6: 3658}

    def test_memo_per_walk_is_read_only(self):
        walk = group_walk(Partition((1, 2, 3, 4)), Partition((1, 2, 1, 2)))
        cells = integrate_module._walk_cells(walk)
        # an equal walk built apart reads the same entry
        assert integrate_module._walk_cells(Partition(list(walk.omega))) is cells
        for array in cells[:3]:
            with pytest.raises(ValueError):
                array.flat[0] = 0


class TestWalkCells:
    def test_cold_pass_builds_each_walk_once(self, monkeypatch):
        # p = 1..5 at one (beta, d): each class is set up once, and the
        # classes share their walks through the groups
        calls = {"constraint_system": [], "group_walk": []}
        for name, made in calls.items():
            function = getattr(integrate_module, name)
            monkeypatch.setattr(
                integrate_module,
                name,
                lambda *a, made=made, function=function: made.append(a) or function(*a),
            )
        classes = dict.fromkeys(rep for p in range(1, 6) for rep in _pair_classes(p)[1])
        cf_classes = cf_class_representatives()
        walks = {group_walk(*pair) for pair in cf_classes}
        assert (len(classes), len(cf_classes), len(walks)) == (19, 17, 9)
        clear_term_cache()
        integrate_module._pair_setup.cache_clear()
        integrate_module._walk_cells.cache_clear()
        for p in range(1, 6):
            moment(p, 0.55, 2, uniform01())
        # the one-block walk's pinned volume builds no geometry
        built = [walk for (walk,) in calls["constraint_system"]]
        assert sorted(built, key=str) == sorted(walks, key=str)
        assert Counter(calls["group_walk"]) == Counter(list(classes))
        # a warm replay calls neither; another (beta, d) composes only the
        # pinned classes' walks, for their volumes
        for made in calls.values():
            made.clear()
        for p in range(1, 6):
            moment(p, 0.55, 2, uniform01())
        assert calls == {"constraint_system": [], "group_walk": []}
        for p in range(1, 6):
            moment(p, 0.6, 1, uniform01())
        pinned = [pair for pair in classes if pair not in cf_classes]
        assert calls == {"constraint_system": [], "group_walk": pinned}


#: batch sizes under test: the default, one that splits every rule of
#: three or more axes, and a ragged one that no rule size divides
BATCHES = (integrate_module._BATCH, 1 << 6, 1000)


@lru_cache(maxsize=None)
def full_rule(memo, n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The whole tensor rule of ``_cube_half_rule`` or ``_simplex_rule``,
    built row by row in Python floats.

    Each row takes one node per axis; its coordinates and weight are the
    products taken from the last axis inwards: l_j = s_1 (s_2 (... (s_j u_j)))
    with s_i = 1 on the cube and 1 - u_i under Stroud's collapsed map.
    """
    axes = []
    for i in range(n):
        if memo is integrate_module._cube_half_rule:
            x, w = integrate_module._gauss_jacobi(order, 0)
            keep = x > 0 if i == 0 else np.full(order, True)
            axes.append([(u, wu, 1.0) for u, wu in zip(x[keep] / 2, w[keep] / 2)])
        else:
            x, w = integrate_module._gauss_jacobi(order, n - 1 - i)
            u = (1 + x) / 2
            axes.append(list(zip(u, w / 2 ** (n - i), 1 - u)))
    rows, weights = [], []
    for point in itertools.product(*axes):
        row, weight = [], 1.0
        for u, wu, scale in reversed(point):
            row, weight = [u] + [scale * c for c in row], wu * weight
        rows.append(row)
        weights.append(weight)
    return np.array(rows), np.array(weights)


def pair_vertices(partition, grouping):
    """The vertex rows of a pair's cells: the half cones, or for one coarse
    block the identity cell of the half cube."""
    if grouping.k == 1:
        return np.eye(partition.p)[None]
    return integrate_module._walk_cells(group_walk(partition, grouping))[1]


def materialised_half_sum(rule, cells, folded, dist):
    """The base rule mapped onto every cell of vertex rows at once, x = l @ V,
    then summed in _BATCH slices whose sums are added exactly: added in
    turn, a thousand slice sums at a batch of 64 err by 1e-15 on their own."""
    lam, weights = rule
    distinct, index, flip = folded
    nodes = (lam @ cells).reshape(-1, cells.shape[1])
    scaled = np.multiply.outer(np.abs(np.linalg.det(cells)), weights).ravel()
    sums, batch = [], integrate_module._BATCH
    for start in range(0, len(nodes), batch):
        t = nodes[start : start + batch] @ distinct.T
        values = integrate_module._product(t, index, flip, dist)
        sums.append((scaled[start : start + batch] @ values).real)
    return 2.0 * math.fsum(sums)


class TestCellLoop:
    @pytest.mark.parametrize("batch", BATCHES)
    def test_equals_materialised_sum_on_every_class(self, monkeypatch, batch):
        # a small batch splits every cell over many groups and batches, and
        # a ragged one leaves the last group of cells short
        monkeypatch.setattr(integrate_module, "_BATCH", batch)
        classes = cf_class_representatives()
        assert len(classes) == 17
        orders = (integrate_module.VALUE_ORDER, integrate_module.CHECK_ORDER)
        for pair in classes:
            (forms, volumes), fold, rule, _ = integrate_module._pair_setup(*pair)
            cells, n = (0.55**0.5 * forms, volumes), forms.shape[1]
            distinct = integrate_module._fold(integer_forms(*pair))[0]
            folded = (0.55**0.5 * distinct, *fold)
            vertices = pair_vertices(*pair)
            for order, law in itertools.product(orders, LAWS.values()):
                base, dist = rule(n, order, batch), law()
                looped = integrate_module._evaluate(base, cells, fold, dist)
                whole = materialised_half_sum(full_rule(rule, n, order), vertices, folded, dist)
                assert abs(looped - whole) <= 1e-15, (pair, order, dist.kind)

    def test_cells_carry_their_exact_forms(self):
        # every class of p <= 5 and the order-six cone class below
        classes = cf_class_representatives()
        classes[Partition((1, 2, 3, 4, 5, 6)), Partition((1, 1, 2, 2, 2, 2))] = None
        for pair in classes:
            (forms, volumes), (index, flip), *_ = integrate_module._pair_setup(*pair)
            distinct, expected_index, expected_flip = integrate_module._fold(
                integer_forms(*pair)
            )
            assert np.array_equal(index, expected_index), pair
            assert np.array_equal(flip, expected_flip), pair
            assert np.array_equal(2 * forms, np.round(2 * forms)), pair
            vertices = pair_vertices(*pair)
            assert forms.shape == (len(vertices), vertices.shape[1], len(distinct))
            for cell, vertex_rows in zip(forms, vertices):
                assert np.array_equal(cell, vertex_rows @ distinct.T), pair
            if pair[1].k == 1:
                assert np.array_equal(forms[0], distinct.T), pair
                assert volumes.tolist() == [1.0], pair
            else:
                assert np.array_equal(volumes, np.abs(np.linalg.det(vertices))), pair

    def test_simplex_rule_is_the_collapsed_map(self):
        # products taken from the last axis inwards agree with the running
        # products l_j = u_j prod_{i<j} (1 - u_i) to rounding, and the
        # weights sum to the simplex volume 1/n!
        for n, order in itertools.product(range(1, 6), (6, 8)):
            lam, weights = full_rule(integrate_module._simplex_rule, n, order)
            axes = [(1 + integrate_module._gauss_jacobi(order, n - 1 - i)[0]) / 2 for i in range(n)]
            u = np.array(list(itertools.product(*axes)))
            running = u.copy()
            running[:, 1:] *= np.cumprod(1 - u[:, :-1], axis=1)
            assert np.allclose(lam, running, rtol=1e-15, atol=0), (n, order)
            assert weights.sum() == pytest.approx(1 / math.factorial(n), rel=1e-14)

    def test_order_six_class_stays_small(self):
        # its two mapped rules alone would hold 237 MB; a call holds about one
        # batch of nodes
        pair = (Partition((1, 2, 3, 4, 5, 6)), Partition((1, 1, 2, 2, 2, 2)))
        integrate_module._pair_setup(*pair)
        tracemalloc.start()
        try:
            value = cf_integral(*pair, 0.55, 2, uniform01())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert value.value == pytest.approx(0.443269203388462, rel=1e-14, abs=0)
        assert value.std_error == pytest.approx(5.6195e-10, rel=1e-4)


@pytest.mark.parametrize(
    "call",
    [
        lambda d: moment(2, 0.55, d, uniform01()),
        lambda d: cf_integral(Partition((1, 2)), Partition((1, 1)), 0.55, d, uniform01()),
        lambda d: finite_grid_term(
            Partition((1, 2)), Partition((1, 1)), 2, 0.55, d, uniform01()
        ),
        lambda d: EnsembleConfig(d=d, M=1, rho=4, dist=uniform01()),
        lambda d: resolve_shape(0.5, d, 1000),
    ],
    ids=["moment", "cf_integral", "finite_grid_term", "EnsembleConfig", "resolve_shape"],
)
def test_grid_dimension_must_be_an_integer(call):
    for d in (2.5, 2.0):
        with pytest.raises(ValueError, match="integer"):
            call(d)
    assert call(np.int64(2)) == call(2)


class TestDispatch:
    def test_unity_for_single_block(self):
        value = term_integral(Partition((1, 1, 1)), Partition((1,)), 0.4, 2, uniform01())
        assert value.method == "exact_volume" and value.exact == 1
        assert value.value == 1.0 and value.std_error == 0.0

    def test_routes_by_group_count(self):
        w = Partition((1, 2, 3))
        assert (
            term_integral(w, Partition((1, 2, 3)), 0.4, 1, uniform01()).method
            == "exact_volume"
        )
        assert (
            term_integral(w, Partition((1, 1, 1)), 0.4, 1, uniform01()).method
            == "gauss_cube"
        )
        assert (
            term_integral(w, Partition((1, 2, 1)), 0.4, 1, uniform01()).method
            == "gauss_cones"
        )


class TestContraction:
    @pytest.mark.parametrize("beta", [0.3, 0.7])
    def test_strictly_below_one_small_orders(self, beta):
        for p in (2, 3):
            for w in enumerate_partitions(p):
                if w.k < 2:
                    continue
                for h in range(1, w.k):
                    for g in enumerate_partitions_k(w.k, h):
                        value = cf_integral(w, g, beta, 1, uniform01())
                        assert abs(value.value) <= 1 - 1e-3, (w.omega, g.omega, beta)

    def test_magnitude_never_exceeds_one_plus_noise(self):
        for w in enumerate_partitions(3):
            for h in range(1, w.k + 1):
                for g in enumerate_partitions_k(w.k, h):
                    value = term_integral(w, g, 0.5, 2, triangular01())
                    assert abs(value.value) <= 1 + 3 * value.std_error
