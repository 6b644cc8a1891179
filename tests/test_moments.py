import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import tplquad

import jittervan.constraints as constraints_module
import jittervan.integrate as integrate_module
import jittervan.moments as moments_module
from jittervan import verify
from jittervan.constraints import class_representative, walk_edges
from jittervan.integrate import QmcOptions, term_integral
from jittervan.jitter import JitterDistribution, point_mass_half, triangular01, uniform01
from jittervan.moments import (
    MomentTerm,
    _class_weights,
    _narayana_row,
    _pair_classes,
    clear_term_cache,
    convergence_report,
    moment,
    mp_density,
    mp_moment,
    mp_support,
    narayana,
)
from jittervan.partitions import (
    Partition,
    enumerate_partitions_k,
    mobius_coefficient,
    partition_of,
)
from test_partitions import all_pairs, dihedral_image, dihedral_representative

def two_point():
    """Asymmetric law with mean 1/2: mass 2/3 at 0.75 and 1/3 at 0."""
    return JitterDistribution(
        "two_point",
        lambda t: (1 + 2 * np.exp(-2j * np.pi * t * 0.75)) / 3,
        lambda rng, shape: np.where(rng.random(shape) < 2 / 3, 0.75, 0.0),
        symmetric_about_half=False,
    )


def cf_orbits(p):
    """The cf-regime pairs of order p, keyed by dihedral representative."""
    orbits = {}
    for k in range(2, p + 1):
        for omega in enumerate_partitions_k(p, k):
            for h in range(1, k):
                for grouping in enumerate_partitions_k(k, h):
                    rep = dihedral_representative(omega, grouping)
                    orbits.setdefault(rep, []).append((omega, grouping))
    return orbits


def cf_pairs(p):
    return [pair for pair in all_pairs(p) if pair[1].k < pair[0].k]


def cf_classes(max_p):
    """The cf-regime pairs of orders 2..max_p, keyed by class representative."""
    classes = {}
    for p in range(2, max_p + 1):
        for pair in cf_pairs(p):
            classes.setdefault(class_representative(*pair), []).append(pair)
    return classes


def multigraph(omega, grouping):
    """The walk's directed edges between 0-based blocks, and each block's group."""
    walk = [b - 1 for b in omega.omega]
    edges = [(walk[i - 1], walk[i]) for i in range(len(walk))]
    return edges, list(grouping.omega)


def pair_of_walk(walk, group):
    """The pair of a closed walk through blocks, each block in group[block]."""
    return partition_of(walk), partition_of([group[b] for b in dict.fromkeys(walk)])


def random_circuit(edges, rng):
    """A random Euler circuit of a connected balanced multigraph."""
    after = {}
    for a, b in edges:
        after.setdefault(a, []).append(b)
    for ends in after.values():
        rng.shuffle(ends)
    stack, circuit = [edges[rng.integers(len(edges))][0]], []
    while stack:
        if after.get(stack[-1]):
            stack.append(after[stack[-1]].pop())
        else:
            circuit.append(stack.pop())
    return circuit[::-1][:-1]


def brute_class_key(omega, grouping):
    """Oracle: the class key from the multigraph, over every block labelling.

    Loops are deleted from the edge multiset, and every block with one
    in-edge and one out-edge that is alone in its group is bypassed, until
    neither applies; then the least (grouping, sorted edges) over all
    block permutations and both edge directions is the key.
    """
    edges, group = multigraph(omega, grouping)
    members = {g: group.count(g) for g in group}
    while True:
        edges = [(a, b) for a, b in edges if a != b]
        series = [
            v
            for v in {a for a, _ in edges}
            if members[group[v]] == 1 and sum(a == v for a, _ in edges) == 1
        ]
        if not series:
            break
        v = series[0]
        [into] = [e for e in edges if e[1] == v]
        [out] = [e for e in edges if e[0] == v]
        edges.remove(into)
        edges.remove(out)
        edges.append((into[0], out[1]))
    blocks = sorted({a for a, _ in edges})
    keys = []
    for order in itertools.permutations(blocks):
        label = {b: i for i, b in enumerate(order)}
        coarse = partition_of([group[b] for b in order]).omega
        for flip in (False, True):
            mapped = tuple(
                sorted((label[b], label[a]) if flip else (label[a], label[b]) for a, b in edges)
            )
            keys.append((coarse, mapped))
    return min(keys)


def reference_representative(partition, grouping):
    """Reference class representative: the reduction by loops and series
    blocks, then the least labelling over every permutation of each run."""
    group = grouping.omega
    members = Counter(group)
    walk = list(partition.omega)
    while True:
        kept = [b for i, b in enumerate(walk) if b != walk[i - 1]]
        met = Counter(kept)
        kept = [b for b in kept if met[b] > 1 or members[group[b - 1]] > 1]
        if kept == walk:
            break
        walk = kept
    if not walk:
        return Partition((1,)), Partition((1,))
    coarse = partition_of([group[b - 1] for b in dict.fromkeys(walk)])
    return reference_labelling(partition_of(walk), coarse)


@lru_cache(maxsize=None)
def reference_labelling(walk, grouping):
    """The least (grouping, sorted edges) over every labelling that lists the
    blocks by (group size, degree) and both edge directions, walked as an
    Euler circuit from block 0 along the least unused edge."""
    edges = walk_edges(walk)
    degree = Counter(b for _, b in edges)
    members = Counter(grouping.omega)

    def invariant(block):
        return members[grouping.omega[block]], degree[block]

    runs = [
        list(run)
        for _, run in itertools.groupby(sorted(degree, key=invariant), key=invariant)
    ]
    keys = []
    for choice in itertools.product(*map(itertools.permutations, runs)):
        order = [block for run in choice for block in run]
        label = {block: new for new, block in enumerate(order)}
        coarse = partition_of([grouping.omega[block] for block in order]).omega
        forward = sorted((label[a], label[b]) for a, b in edges)
        keys.append((coarse, forward))
        keys.append((coarse, sorted((b, a) for a, b in forward)))
    coarse, key_edges = min(keys)
    after = {}
    for a, b in sorted(key_edges, reverse=True):
        after.setdefault(a, []).append(b)
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


def reference_pair_classes(p):
    """The rows (fine, coarse, weight, class index) in enumeration order and
    the representatives in order of first member, pair by pair."""
    rows, classes = [], {}
    for omega, grouping in all_pairs(p):
        index = classes.setdefault(reference_representative(omega, grouping), len(classes))
        rows.append((omega, grouping, mobius_coefficient(grouping), index))
    return tuple(rows), tuple(classes)


class TestMoment:
    @pytest.mark.parametrize(
        "beta,d,factory",
        [(0.3, 1, uniform01), (0.9, 3, point_mass_half), (0.55, 2, triangular01)],
    )
    def test_first_moment_exactly_one(self, beta, d, factory):
        assert verify.first_moment_is_one(beta, d, factory())

    @pytest.mark.parametrize("beta,d", [(0.3, 1), (0.7, 1), (0.55, 2), (0.9, 4)])
    def test_second_moment_closed_form(self, beta, d):
        assert verify.second_moment_reduced_form(beta, d)

    def test_second_moment_half_cell(self):
        assert verify.half_cell_moments_are_one(2, 0.64)

    def test_third_moment_against_quadrature(self):
        # full expansion at order three, with both brackets from quadrature
        beta = 0.5
        bracket = verify.bracket_integral(beta, 1, uniform01())
        triple, _ = tplquad(
            lambda y3, y2, y1: np.sinc(beta * (y1 - y2))
            * np.sinc(beta * (y2 - y3))
            * np.sinc(beta * (y3 - y1)),
            -0.5, 0.5, -0.5, 0.5, -0.5, 0.5,
            epsabs=1e-9,
        )
        target = (1 + 3 * beta + beta**2) - 3 * beta**2 * bracket - 3 * beta * bracket + 2 * beta**2 * triple
        result = moment(3, beta, 1, uniform01())
        assert result.value == pytest.approx(target, abs=max(3 * result.std_error, 3e-4))

    @pytest.mark.parametrize("p", [3, 4])
    def test_half_cell_moments_equal_one(self, p):
        assert verify.half_cell_moments_are_one(p, 0.42)

    def test_term_bookkeeping(self):
        result = moment(3, 0.6, 2, uniform01())
        assert result.value == pytest.approx(sum(t.contribution for t in result.terms))
        for term in result.terms:
            assert 1 <= term.h <= term.k <= 3
            assert term.omega.k == term.k and term.omega_prime.k == term.h
            assert term.omega_prime.p == term.k
        # term count: sum over k of S(3,k) * B(k), in enumeration order
        assert len(result.terms) == 1 * 1 + 3 * 2 + 1 * 5
        assert [(t.omega, t.omega_prime) for t in result.terms] == [
            (omega, omega_prime)
            for k in range(1, 4)
            for omega in enumerate_partitions_k(3, k)
            for h in range(1, k + 1)
            for omega_prime in enumerate_partitions_k(k, h)
        ]

    def test_pinned_terms_match_volume_sum(self):
        from jittervan.integrate import delta_volume

        beta, d = 0.6, 2
        result = moment(3, beta, d, uniform01())
        pinned = sum(t.contribution for t in result.terms if t.h == t.k)
        direct = sum(
            beta ** (3 - k) * float(delta_volume(w).exact) ** d
            for k in range(1, 4)
            for w in enumerate_partitions_k(3, k)
        )
        assert pinned == pytest.approx(direct, abs=1e-12)

    def test_deterministic_and_cached(self, monkeypatch):
        clear_term_cache()
        a = moment(3, 0.55, 1, uniform01())
        calls = []
        monkeypatch.setattr(integrate_module, "cf_integral", lambda *args: calls.append(1))
        b = moment(3, 0.55, 1, uniform01())
        assert not calls  # a fresh instance of a built-in law hits the cache
        c = moment(3, np.float64(0.55), 1, uniform01())
        assert not calls  # so does a NumPy scalar of the same aspect ratio
        assert c.value == a.value
        assert a.value == b.value
        assert [t.v.value for t in a.terms] == [t.v.value for t in b.terms]

    def test_cache_tells_laws_of_one_kind_apart(self):
        def custom(cf):
            return JitterDistribution("custom", cf, lambda rng, s: rng.random(s), True)

        flat = custom(lambda t: np.exp(-1j * np.pi * t) * np.sinc(t))
        peaked = custom(lambda t: (np.exp(-0.5j * np.pi * t) * np.sinc(0.5 * t)) ** 2)
        clear_term_cache()
        moment(3, 0.55, 1, flat)
        after_flat = moment(3, 0.55, 1, peaked).value
        clear_term_cache()
        assert after_flat == moment(3, 0.55, 1, peaked).value

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("p,classes", [(3, 2), (4, 8), (5, 17)])
    def test_one_cf_integral_per_class(self, monkeypatch, p, classes, threads):
        calls = {}
        cf_integral = integrate_module.cf_integral

        def counted(*args):
            value = cf_integral(*args)
            calls.setdefault(args[:2], []).append(value)
            return value

        clear_term_cache()
        monkeypatch.setattr(integrate_module, "cf_integral", counted)
        result = moment(p, 0.55, 1, uniform01(), threads=threads)
        assert sum(len(values) for values in calls.values()) == classes
        assert len(calls) == classes
        assert all(class_representative(*pair) == pair for pair in calls)
        for term in result.terms:
            if term.h < term.k:
                [value] = calls[class_representative(term.omega, term.omega_prime)]
                assert term.v is value

    def test_classes_are_shared_across_orders(self, monkeypatch):
        calls = []
        cf_integral = integrate_module.cf_integral

        def counted(*args):
            calls.append(args[:2])
            return cf_integral(*args)

        clear_term_cache()
        monkeypatch.setattr(integrate_module, "cf_integral", counted)
        new = []
        for p in (3, 4, 5):
            before = len(calls)
            moment(p, 0.55, 2, uniform01())
            new.append(len(calls) - before)
        assert new == [2, 6, 9]

    def test_warm_replay_evaluates_nothing(self, monkeypatch):
        cold = [moment(p, 0.55, 2, uniform01()) for p in range(1, 6)]

        def forbidden(*args):
            raise AssertionError("a warm replay evaluated an integral")

        monkeypatch.setattr(integrate_module, "cf_integral", forbidden)
        monkeypatch.setattr(integrate_module, "delta_volume", forbidden)
        assert [moment(p, 0.55, 2, uniform01()) for p in range(1, 6)] == cold

    def test_pinned_pairs_take_one_volume_per_class(self, monkeypatch):
        # the 75 pinned pairs of p <= 5 fold to the classes of volume 1 and
        # 2/3; a cold pass builds the 9 cf walks alone: the one-block walk
        # builds no cells, and (1, 2, 1, 2) reads its volume off the cells
        # of its cf walk
        calls = []
        delta_volume = integrate_module.delta_volume
        monkeypatch.setattr(
            integrate_module, "delta_volume", lambda w: calls.append(w) or delta_volume(w)
        )
        clear_term_cache()
        _pair_classes.cache_clear()
        integrate_module._pair_setup.cache_clear()
        integrate_module._walk_cells.cache_clear()
        cold = [moment(p, 0.55, 2, uniform01()) for p in range(1, 6)]
        assert calls == [Partition((1,)), Partition((1, 2, 1, 2))]
        assert integrate_module._walk_cells.cache_info().misses == 9
        assert [moment(p, 0.55, 2, uniform01()) for p in range(1, 6)] == cold
        assert len(calls) == 2

    def test_pinned_volumes_are_computed_once_per_walk(self):
        # a pinned class misses the term memo once per (beta, d, law), and
        # every miss after the first reads the walk's memoised cells; the
        # one-block walk reads none
        walk_cells = integrate_module._walk_cells
        clear_term_cache()
        integrate_module._pair_setup.cache_clear()
        walk_cells.cache_clear()
        for p in range(1, 6):
            moment(p, 0.55, 2, uniform01())
        cold = walk_cells.cache_info()
        assert cold.misses == 9
        for p in range(1, 6):
            moment(p, 0.6, 1, uniform01())
        warm = walk_cells.cache_info()
        assert warm.misses == cold.misses
        assert warm.hits == cold.hits + 1

    def test_forms_fold_once_per_pair(self, monkeypatch):
        # the benchmark's analytic sweep: its 8 classes at 4 dimensions each
        folds, integrals = [], []
        fold, cf_integral = integrate_module._fold, integrate_module.cf_integral
        monkeypatch.setattr(integrate_module, "_fold", lambda f: folds.append(1) or fold(f))
        monkeypatch.setattr(
            integrate_module, "cf_integral", lambda *a: integrals.append(1) or cf_integral(*a)
        )
        clear_term_cache()
        integrate_module._pair_setup.cache_clear()
        for p in range(2, 5):
            for d in range(1, 5):
                moment(p, 0.55, d, triangular01())
        assert (len(folds), len(integrals)) == (8, 32)

    def test_member_reports_its_representatives_rule(self):
        # block 3 is met once and alone in its group: the pair contracts to
        # the two-block walk with one group, the 2-cube
        pair = (Partition((1, 2, 3)), Partition((1, 1, 2)))
        assert class_representative(*pair) == (Partition((1, 2)), Partition((1, 1)))
        result = moment(3, 0.55, 2, uniform01())
        [term] = [t for t in result.terms if (t.omega, t.omega_prime) == pair]
        assert term.v.method == "gauss_cube"

    def test_sampling_options_are_ignored(self):
        opts = QmcOptions(points=2**14, replicates=16, seed=101, sampler="sobol")
        clear_term_cache()
        a = moment(4, 0.55, 2, two_point(), opts)
        clear_term_cache()
        b = moment(4, 0.55, 2, two_point())
        assert (a.value, a.std_error) == (b.value, b.std_error)
        assert [t.v for t in a.terms] == [t.v for t in b.terms]

    def test_threads_do_not_change_values(self):
        a = moment(3, 0.52, 1, uniform01(), threads=1)
        b = moment(3, 0.52, 1, uniform01(), threads=4)
        assert a.value == b.value

    def test_error_propagation_scales_with_power(self):
        # the integrals differ with d (their scale is beta^(1/d)), so the
        # propagation is checked against each result's own term errors
        for d in (1, 6):
            result = moment(2, 0.5, d, uniform01())
            linear = sum(0.5 ** (2 - t.h) * abs(t.u) * t.v.std_error for t in result.terms)
            assert result.std_error >= 0
            # the d-th power multiplies the sensitivity by d |v|^(d-1) < d
            assert result.std_error <= d * linear + 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            moment(0, 0.5, 1, uniform01())
        with pytest.raises(ValueError):
            moment(6, 0.5, 1, uniform01())
        with pytest.raises(ValueError):
            moment(2, 0.0, 1, uniform01())
        with pytest.raises(ValueError):
            moment(2, 1.2, 1, uniform01())
        with pytest.raises(ValueError):
            moment(2, 0.5, 0, uniform01())

    def test_json_schema(self):
        result = moment(2, 0.5, 1, uniform01())
        payload = result.to_dict()
        encoded = json.loads(json.dumps(payload))
        assert set(encoded) == {
            "p", "beta", "d", "jitter", "value", "std_error", "terms",
        }
        assert encoded["p"] == 2 and encoded["jitter"] == "uniform01"
        for term in encoded["terms"]:
            assert set(term) == {
                "k", "h", "omega", "omega_prime", "u", "v", "v_err",
                "method", "contribution",
            }


#: (beta, d) points at which the class sums are checked against the rows.
CLASS_SUM_POINTS = [(0.55, 1), (0.55, 2), (0.55, 3), (0.55, 4), (0.3, 3), (0.836, 1), (0.6, 1)]


def row_terms(p, beta, d, values):
    """The term rows built pair by pair from the class values: the reference
    for ``terms`` and, summed, for the class sum."""
    terms = []
    for omega, omega_prime, u, index in _pair_classes(p)[0]:
        k, h = omega.k, omega_prime.k
        v = values[index]
        weight = beta ** (p - h)
        contribution = weight * u * v.value**d
        err = weight * abs(u) * d * abs(v.value) ** (d - 1) * v.std_error
        terms.append(MomentTerm(k, h, omega, omega_prime, u, v, contribution, err))
    return terms


class TestClassSums:
    @pytest.mark.parametrize("factory", [uniform01, triangular01])
    @pytest.mark.parametrize("beta,d", CLASS_SUM_POINTS)
    def test_rows_are_bit_identical_and_the_sum_no_less_exact(self, beta, d, factory):
        for p in range(1, 6):
            result = moment(p, beta, d, factory())
            rows = row_terms(p, beta, d, result._values)
            assert result.terms == tuple(rows)
            for got, want in zip(result.terms, rows):
                assert got.contribution.hex() == want.contribution.hex()
                assert got.std_error.hex() == want.std_error.hex()
            # the row-by-row sum, and the exact sum of the same rows from
            # the same float beta and v_c
            row_sum = sum(t.contribution for t in rows)
            exact = sum(
                t.u * Fraction(beta) ** (p - t.h) * Fraction(t.v.value) ** d for t in rows
            )
            assert result.value == pytest.approx(row_sum, rel=1e-14, abs=0)
            assert abs(result.value - exact) <= abs(row_sum - exact), p
            row_error = sum(t.std_error for t in rows)
            assert result.std_error == pytest.approx(row_error, rel=1e-14, abs=0)

    @pytest.mark.parametrize("factory", [uniform01, triangular01, two_point])
    @pytest.mark.parametrize("beta,d", [(0.3, 1), (0.55, 2), (1.0, 3), (0.836, 128)])
    def test_first_moment_is_exactly_one(self, beta, d, factory):
        result = moment(1, beta, d, factory())
        assert (result.value, result.std_error) == (1.0, 0.0)

    def test_terms_are_built_only_when_read(self, monkeypatch):
        built = []
        monkeypatch.setattr(
            moments_module, "MomentTerm", lambda *fields: built.append(fields) or MomentTerm(*fields)
        )
        result = moment(5, 0.55, 2, uniform01())
        assert not built
        assert len(result.terms) == len(built) == 358

    @pytest.mark.parametrize("p", [*range(1, 7), pytest.param(7, marks=pytest.mark.slow)])
    def test_weights_sum_the_rows_of_each_class(self, p):
        rows, classes = _pair_classes(p)
        signed, absolute = _class_weights(p)
        assert signed.shape == absolute.shape == (len(classes), p)
        sums = {}
        for _, grouping, u, index in rows:
            w, a = sums.setdefault(index, ([0] * p, [0] * p))
            w[p - grouping.k] += u
            a[p - grouping.k] += abs(u)
        for index in range(len(classes)):
            assert list(signed[index]) == sums[index][0], index
            assert list(absolute[index]) == sums[index][1], index
            assert all(type(x) is int for x in (*signed[index], *absolute[index]))


class TestOrbitAgreement:
    @pytest.mark.parametrize("factory", [triangular01, two_point])
    def test_members_agree_within_three_sigma(self, factory):
        # each member integrated directly, over its own free coordinates
        # and its own triangulation; sigma is the cubature error estimate
        dist = factory()
        beta, d = 0.6, 1
        worst = 0.0
        for p in (2, 3, 4):
            for members in cf_orbits(p).values():
                values = [
                    integrate_module.cf_integral(omega, grouping, beta, d, dist)
                    for omega, grouping in members
                ]
                for a, b in itertools.combinations(values, 2):
                    sigma = max(math.hypot(a.std_error, b.std_error), 1e-14)
                    worst = max(worst, abs(a.value - b.value) / sigma)
        assert worst < 3.0


class TestClassKey:
    @pytest.mark.parametrize("p", range(2, 6))
    def test_idempotent_lower_order_and_constant_on_orbits(self, p):
        for pair in cf_pairs(p):
            rep = class_representative(*pair)
            assert class_representative(*rep) == rep
            assert rep[1].k < rep[0].k and rep[0].p <= p
            assert rep[0].p - rep[1].k <= p - pair[1].k
            for shift in range(p):
                for reverse in (False, True):
                    image = dihedral_image(*pair, shift, reverse)
                    assert class_representative(*image) == rep

    def test_relabels_circuits_loops_and_series_blocks_keep_the_key(self):
        rng = np.random.default_rng(20261018)
        for p in range(2, 7):
            for pair in cf_pairs(p)[:: 1 if p < 6 else 7]:
                rep = class_representative(*pair)
                edges, group = multigraph(*pair)
                k = pair[0].k
                relabel = rng.permutation(k)
                moved = [(relabel[a], relabel[b]) for a, b in edges]
                moved_group = [0] * k
                for b in range(k):
                    moved_group[relabel[b]] = group[b]
                walk = random_circuit(moved, rng)
                if rng.integers(2):
                    walk = walk[::-1]
                assert class_representative(*pair_of_walk(walk, moved_group)) == rep
                # a repeated label (a loop), then a new block alone in a new
                # group (in series), inserted at random places
                at = int(rng.integers(len(walk)))
                looped = walk[: at + 1] + walk[at:]
                assert class_representative(*pair_of_walk(looped, moved_group)) == rep
                at = int(rng.integers(len(walk)))
                series = walk[:at] + [k] + walk[at:]
                extended = moved_group + [max(moved_group) + 1]
                assert class_representative(*pair_of_walk(series, extended)) == rep

    @pytest.mark.parametrize("p", range(2, 6))
    def test_classes_match_the_brute_force_key(self, p):
        # one representative per brute-force key and one key per
        # representative: restricting the labellings merges no classes and
        # splits none
        reps, keys = {}, {}
        for pair in cf_pairs(p):
            rep, key = class_representative(*pair), brute_class_key(*pair)
            assert reps.setdefault(key, rep) == rep
            assert keys.setdefault(rep, key) == key
            assert brute_class_key(*rep) == key

    @pytest.mark.parametrize("p", [*range(1, 7), pytest.param(7, marks=pytest.mark.slow)])
    def test_table_matches_the_reference(self, p):
        # the same rows, class indices and representatives, in the same
        # order: a different representative would move its class's terms
        # by up to the cubature error
        assert _pair_classes(p) == reference_pair_classes(p)

    def test_one_memo_keys_every_order(self, monkeypatch):
        # the p = 5 table builds no lower order's table, and the pairs one
        # move below it key the least labellings of p <= 4 on the way: the
        # 18 searches of p <= 5, which the lower tables then read
        searches = []
        least_labelling = constraints_module._least_labelling
        monkeypatch.setattr(
            constraints_module,
            "_least_labelling",
            lambda *pair: searches.append(pair) or least_labelling(*pair),
        )
        _pair_classes.cache_clear()
        constraints_module._class_of.cache_clear()
        _pair_classes(5)
        assert _pair_classes.cache_info().currsize == 1
        assert len(searches) == 18
        for p in range(1, 5):
            assert _pair_classes(p) == reference_pair_classes(p)
        assert len(searches) == 18

    @pytest.mark.parametrize(
        "p,cf_pair_count,classes,new",
        [
            (2, 1, 1, 1),
            (3, 7, 2, 1),
            (4, 45, 8, 6),
            (5, 306, 17, 9),
            (6, 2268, 82, 65),
            pytest.param(7, 18425, 287, 205, marks=pytest.mark.slow),
        ],
    )
    def test_class_counts(self, p, cf_pair_count, classes, new):
        pairs = cf_pairs(p)
        reps = {class_representative(*pair) for pair in pairs}
        assert len(pairs) == cf_pair_count
        assert len(reps) == classes
        assert sum(rep[0].p == p for rep in reps) == new

    def test_pinned_pairs_fold_to_classes_of_their_volume(self):
        # every block of a pinned pair is alone in its group, so its class
        # keeps the blocks its walk meets twice or more; a walk that keeps
        # none is the one-block pair, of volume 1
        counts = []
        for p in range(1, 8):
            reps = set()
            for k in range(1, p + 1):
                [grouping] = enumerate_partitions_k(k, k)
                for omega in enumerate_partitions_k(p, k):
                    rep = class_representative(omega, grouping)
                    assert rep[1].k == rep[0].k and rep[0].p <= p
                    assert class_representative(*rep) == rep
                    volume = integrate_module.delta_volume(rep[0]).exact
                    assert volume == integrate_module.delta_volume(omega).exact, omega
                    reps.add(rep)
            counts.append(len(reps))
        assert counts == [1, 1, 1, 2, 2, 5, 6]


class TestClassAgreement:
    @pytest.mark.slow
    @pytest.mark.parametrize("factory", [uniform01, triangular01, two_point])
    def test_members_agree_within_reported_errors(self, factory):
        # every member integrated directly at its own order, over its own
        # free coordinates and triangulation, against the representative
        dist = factory()
        beta, d = 0.55, 2
        classes = cf_classes(5)
        assert sum(len(members) for members in classes.values()) == 1 + 7 + 45 + 306
        for rep, members in classes.items():
            a = term_integral(*rep, beta, d, dist)
            for pair in members:
                b = term_integral(*pair, beta, d, dist)
                assert abs(a.value - b.value) <= a.std_error + b.std_error, pair


class TestMarchenkoPastur:
    def test_narayana_reference_rows(self):
        assert [narayana(4, k) for k in range(1, 5)] == [1, 6, 6, 1]
        assert narayana(1, 1) == 1
        assert sum(narayana(6, k) for k in range(1, 7)) == 132  # Catalan

    def test_stepped_row_equals_the_entries(self):
        for p in range(1, 61):
            assert _narayana_row(p) == [narayana(p, k) for k in range(1, p + 1)], p

    def test_unit_class_weights_are_the_narayana_row(self):
        # the one-block class, of factor 1 at every d, carries the limit:
        # its members' weights u, summed by the power p - h of beta, are the
        # Narayana numbers, so every other class's factor^d -> 0 leaves MP
        for p in range(1, 7):
            unit = _pair_classes(p)[1].index((Partition((1,)), Partition((1,))))
            assert list(_class_weights(p)[0][unit]) == _narayana_row(p), p

    @pytest.mark.parametrize(
        "p,beta,expected",
        [(1, 0.3, 1.0), (2, 0.55, 1.55), (3, 0.5, 2.75)],
    )
    def test_reference_values(self, p, beta, expected):
        assert mp_moment(p, beta) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize(
        "orders, beta", [(range(1, 30), 0.55), ((100, 350, 699, 700), 0.01)]
    )
    def test_matches_three_term_recurrence(self, orders, beta):
        # (p+1) m_p = (2p-1)(1+beta) m_{p-1} - (p-2)(1-beta)^2 m_{p-2}
        m = [1.0, 1.0]
        for p in range(2, max(orders) + 1):
            m.append(
                ((2 * p - 1) * (1 + beta) * m[p - 1] - (p - 2) * (1 - beta) ** 2 * m[p - 2])
                / (p + 1)
            )
        for p in orders:
            assert mp_moment(p, beta) == pytest.approx(m[p], rel=1e-12), p

    def test_rounded_once_up_to_the_float_range(self):
        # at beta = 1 the moment is the Catalan number, 1.4e308 at p = 519
        catalan = math.comb(2 * 519, 519) // 520
        assert mp_moment(519, 1.0) == float(catalan)
        with pytest.raises(ValueError, match="order 520 at beta 1.0 exceeds the float range"):
            mp_moment(520, 1.0)

    @pytest.mark.parametrize("beta", [0.2, 0.55, 0.729])
    @pytest.mark.parametrize("p", range(1, 7))
    def test_matches_density_quadrature(self, p, beta):
        assert verify.moments_match_density(p, beta)

    @pytest.mark.parametrize("beta", [0.2, 0.55, 0.729, 1.0])
    def test_density_normalization_and_mean(self, beta):
        assert verify.density_normalized(beta)
        assert verify.density_mean_one(beta)

    def test_density_support(self):
        low, high = mp_support(0.55)
        assert mp_density(0.55, low - 1e-9) == 0.0
        assert mp_density(0.55, high + 1e-9) == 0.0
        assert mp_density(0.55, 1.0) > 0
        inside = np.linspace(low, high, 64)
        assert np.all(mp_density(0.55, inside) >= 0)

    def test_density_diverges_at_the_origin_for_unit_ratio(self):
        # at beta = 1 the support starts at z = 0; no 0/0 there
        assert mp_density(1.0, 0.0) == np.inf
        values = mp_density(1.0, np.array([0.0, 1.0, 4.0, 5.0]))
        assert values[0] == np.inf
        assert values[1] == pytest.approx(np.sqrt(3) / (2 * np.pi), rel=1e-15)
        assert list(values[2:]) == [0.0, 0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            mp_moment(0, 0.5)
        with pytest.raises(ValueError):
            mp_moment(2, 0.0)
        with pytest.raises(ValueError):
            narayana(3, 4)


class TestConvergence:
    def test_first_moment_gap_is_zero(self):
        rows = convergence_report(1, 0.55, [1, 2, 3], uniform01())
        assert all(row.gap == 0.0 for row in rows)

    def test_second_moment_gap_decreases(self):
        rows = convergence_report(2, 0.55, [1, 2, 3, 4], uniform01())
        gaps = [row.gap for row in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert all(g > 0 for g in gaps)

    def test_second_moment_gap_closed_form(self):
        # the gap is exactly beta * bracket^d, strictly decreasing in d
        beta = 0.55
        rows = convergence_report(2, beta, [1, 2, 3, 4], uniform01())
        for row in rows:
            bracket = verify.bracket_integral(beta, row.d, uniform01())
            assert row.gap == pytest.approx(
                beta * bracket**row.d, abs=max(3 * row.moment.std_error, 1e-4)
            )
        # the computed trajectory: the relative gap at d=4 sits near 9.3%,
        # still well above the 5% mark it first crosses around d=6
        relative = rows[-1].gap / rows[-1].mp
        assert relative == pytest.approx(0.0930, abs=0.002)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("factory", [uniform01, triangular01, two_point])
    def test_gap_decays_at_the_largest_other_factor(self, p, factory):
        # every class but the one-block class has factor F_c < 1, and as d
        # grows s = beta^(1/d) -> 1, so the per-step ratio of the gap tends
        # to the largest F_c(1); a gap read off value - MP would be rounding
        # at d = 128
        law = factory()
        top = max(abs(t.v.value) for t in moment(p, 1.0, 1, law).terms if t.v.exact != 1)
        for beta in (0.3, 0.55, 0.836):
            near, far = convergence_report(p, beta, [128, 256], law)
            assert (far.gap / near.gap) ** (1 / 128) == pytest.approx(top, abs=1e-3), beta

    def test_third_moment_gap_decreases(self):
        rows = convergence_report(3, 0.55, [1, 2, 4], uniform01())
        gaps = [row.gap for row in rows]
        assert gaps == sorted(gaps, reverse=True)
        # engine-derived level at d=4: about a fifth of the limit value
        assert rows[-1].gap / rows[-1].mp == pytest.approx(0.20, abs=0.02)
