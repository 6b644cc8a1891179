import itertools
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad, tplquad

import jittervan.integrate as integrate_module
from jittervan.integrate import QmcOptions
from jittervan.jitter import JitterDistribution, point_mass_half, triangular01, uniform01
from jittervan.moments import (
    clear_term_cache,
    convergence_report,
    moment,
    mp_density,
    mp_moment,
    mp_support,
    narayana,
)
from jittervan.partitions import dihedral_representative, enumerate_partitions_k

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


def cf_square_integral(beta: float, d: int, factory=uniform01) -> float:
    """Oracle for the two-index bracket: reduced 1-D quadrature."""
    dist = factory()
    scale = beta ** (1.0 / d)

    def integrand(u: float) -> float:
        return (1 - abs(u)) * abs(complex(dist.cf(scale * u))) ** 2

    value, _ = quad(integrand, -1, 1, epsabs=1e-12, limit=200)
    return value


def mp_moment_by_quadrature(p: int, beta: float) -> float:
    """Oracle: integrate z^p against the limiting density directly."""
    low, high = mp_support(beta)
    span = high - low

    def integrand(theta: float) -> float:
        s = math.sin(theta)
        z = low + span * s * s
        jac = 2 * span * s * math.cos(theta)
        return z**p * mp_density(beta, z) * jac

    value, _ = quad(integrand, 0, math.pi / 2, epsabs=1e-13, epsrel=1e-13)
    return value


class TestMoment:
    @pytest.mark.parametrize(
        "beta,d,factory",
        [(0.3, 1, uniform01), (0.9, 3, point_mass_half), (0.55, 2, triangular01)],
    )
    def test_first_moment_exactly_one(self, beta, d, factory):
        result = moment(1, beta, d, factory())
        assert result.value == 1.0
        assert result.std_error == 0.0
        assert len(result.terms) == 1

    @pytest.mark.parametrize("beta,d", [(0.3, 1), (0.7, 1), (0.55, 2), (0.9, 4)])
    def test_second_moment_closed_form(self, beta, d):
        result = moment(2, beta, d, uniform01())
        bracket = cf_square_integral(beta, d)
        target = 1 + beta - beta * bracket**d
        assert result.value == pytest.approx(target, abs=max(3 * result.std_error, 1e-4))

    def test_second_moment_half_cell(self):
        result = moment(2, 0.64, 1, point_mass_half())
        assert result.value == pytest.approx(1.0, abs=1e-6)

    def test_third_moment_against_quadrature(self):
        # full expansion at order three, with both brackets from quadrature
        beta = 0.5
        bracket = cf_square_integral(beta, 1)
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
        result = moment(p, 0.42, 1, point_mass_half())
        assert result.value == pytest.approx(1.0, abs=max(3 * result.std_error, 1e-3))

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
    @pytest.mark.parametrize("p,orbits", [(3, 3), (4, 15)])
    def test_one_cf_integral_per_orbit(self, monkeypatch, p, orbits, threads):
        calls = []
        cf_integral = integrate_module.cf_integral

        def counted(*args):
            calls.append(args[:2])
            return cf_integral(*args)

        clear_term_cache()
        monkeypatch.setattr(integrate_module, "cf_integral", counted)
        result = moment(p, 0.55, 1, uniform01(), threads=threads)
        assert len(calls) == orbits
        assert len(set(calls)) == orbits
        assert all(dihedral_representative(*pair) == pair for pair in calls)
        value_of = {(t.omega, t.omega_prime): t.v for t in result.terms}
        for term in result.terms:
            rep = dihedral_representative(term.omega, term.omega_prime)
            assert term.v is value_of[rep]

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


class TestMarchenkoPastur:
    def test_narayana_reference_rows(self):
        assert [narayana(4, k) for k in range(1, 5)] == [1, 6, 6, 1]
        assert narayana(1, 1) == 1
        assert sum(narayana(6, k) for k in range(1, 7)) == 132  # Catalan

    @pytest.mark.parametrize(
        "p,beta,expected",
        [(1, 0.3, 1.0), (2, 0.55, 1.55), (3, 0.5, 2.75)],
    )
    def test_reference_values(self, p, beta, expected):
        assert mp_moment(p, beta) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("beta", [0.2, 0.55, 0.729])
    @pytest.mark.parametrize("p", range(1, 7))
    def test_matches_density_quadrature(self, p, beta):
        assert mp_moment(p, beta) == pytest.approx(
            mp_moment_by_quadrature(p, beta), abs=1e-8
        )

    @pytest.mark.parametrize("beta", [0.2, 0.55, 0.729, 1.0])
    def test_density_normalization_and_mean(self, beta):
        assert mp_moment_by_quadrature(0, beta) == pytest.approx(1.0, abs=1e-8)
        assert mp_moment_by_quadrature(1, beta) == pytest.approx(1.0, abs=1e-8)

    def test_density_support(self):
        low, high = mp_support(0.55)
        assert mp_density(0.55, low - 1e-9) == 0.0
        assert mp_density(0.55, high + 1e-9) == 0.0
        assert mp_density(0.55, 1.0) > 0
        inside = np.linspace(low, high, 64)
        assert np.all(mp_density(0.55, inside) >= 0)

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
            bracket = cf_square_integral(beta, row.d)
            assert row.gap == pytest.approx(
                beta * bracket**row.d, abs=max(3 * row.moment.std_error, 1e-4)
            )
        # the computed trajectory: the relative gap at d=4 sits near 9.3%,
        # still well above the 5% mark it first crosses around d=6
        relative = rows[-1].gap / rows[-1].mp
        assert relative == pytest.approx(0.0930, abs=0.002)

    def test_third_moment_gap_decreases(self):
        rows = convergence_report(3, 0.55, [1, 2, 4], uniform01())
        gaps = [row.gap for row in rows]
        assert gaps == sorted(gaps, reverse=True)
        # engine-derived level at d=4: about a fifth of the limit value
        assert rows[-1].gap / rows[-1].mp == pytest.approx(0.20, abs=0.02)
