import numpy as np
import pytest
from scipy.integrate import quad

from jittervan import verify
from jittervan.jitter import (
    JitterDistribution,
    from_name,
    point_mass_half,
    triangular01,
    uniform01,
)

ALL_KINDS = [uniform01, point_mass_half, triangular01]


def cf_by_quadrature(density, t: float) -> complex:
    """Oracle: integrate exp(-2 pi i t z) against an explicit density."""
    re, _ = quad(lambda z: np.cos(2 * np.pi * t * z) * density(z), 0, 1, limit=200)
    im, _ = quad(lambda z: -np.sin(2 * np.pi * t * z) * density(z), 0, 1, limit=200)
    return re + 1j * im


def uniform_density(z):
    return 1.0


def triangular_density(z):
    # sum of two uniforms on [0, 1/2): tent over [0, 1] peaking at 1/2
    return 4 * z if z <= 0.5 else 4 * (1 - z)


class TestCharacteristicFunction:
    @pytest.mark.parametrize("factory", ALL_KINDS)
    def test_value_at_origin(self, factory):
        assert complex(factory().cf(0.0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("factory", ALL_KINDS)
    def test_modulus_bounded_by_one(self, factory):
        t = np.linspace(-8, 8, 1601)
        assert np.all(np.abs(factory().cf(t)) <= 1 + 1e-12)

    def test_point_mass_has_unit_modulus(self):
        t = np.linspace(-5, 5, 101)
        assert np.abs(point_mass_half().cf(t)) == pytest.approx(1.0)

    def test_uniform_vanishes_at_integers(self):
        # oracle: direct numerical integration of exp(-2 pi i z)
        oracle = cf_by_quadrature(uniform_density, 1.0)
        assert abs(oracle) < 1e-12
        assert abs(complex(uniform01().cf(1.0))) < 1e-12

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 1.7, 2.3, 3.9])
    def test_uniform_matches_quadrature(self, t):
        assert complex(uniform01().cf(t)) == pytest.approx(
            cf_by_quadrature(uniform_density, t), abs=1e-10
        )

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0, 1.7, 2.3, 3.9])
    def test_triangular_matches_quadrature(self, t):
        assert complex(triangular01().cf(t)) == pytest.approx(
            cf_by_quadrature(triangular_density, t), abs=1e-10
        )

    @pytest.mark.parametrize("factory", [uniform01, triangular01])
    def test_symmetry_about_half(self, factory):
        # recentering at 1/2 must leave a purely real function
        t = np.linspace(-6, 6, 481)
        recentered = np.exp(1j * np.pi * t) * factory().cf(t)
        assert np.abs(recentered.imag).max() < 1e-12

    def test_continuity_at_zero(self):
        t = np.array([-1e-12, -1e-300, 0.0, 1e-300, 1e-12])
        for factory in ALL_KINDS:
            assert np.abs(factory().cf(t) - 1.0).max() < 1e-9


class TestSampler:
    def test_point_mass_values(self):
        assert point_mass_half().sample(5, 123).tolist() == [0.5] * 5

    @pytest.mark.parametrize("factory", ALL_KINDS)
    def test_support_and_determinism(self, factory):
        dist = factory()
        a = dist.sample(1000, 42)
        b = dist.sample(1000, 42)
        c = dist.sample(1000, 43)
        assert np.array_equal(a, b)
        assert factory is point_mass_half or not np.array_equal(a, c)
        assert a.min() >= 0.0 and a.max() < 1.0

    def test_uniform_mean(self):
        draws = uniform01().sample(10**6, 42)
        # CLT bound: 3 sigma / sqrt(n) with sigma^2 = 1/12
        assert abs(draws.mean() - 0.5) < 3 * np.sqrt(1 / 12) / 1000

    def test_triangular_variance(self):
        draws = triangular01().sample(10**6, 42)
        assert draws.var() == pytest.approx(1 / 24, rel=0.05)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            uniform01().sample(0, 1)

    @pytest.mark.parametrize("factory", ALL_KINDS)
    @pytest.mark.parametrize("t", [0.3, 1.1, 2.7])
    def test_sampler_consistent_with_cf(self, factory, t):
        assert verify.sampler_matches_cf(factory(), (t,), 7)


class TestConstruction:
    def test_mean_must_be_half(self):
        # the mean is read off the characteristic function, not declared
        with pytest.raises(ValueError, match="gives 0.400000"):
            JitterDistribution(
                "biased",
                lambda t: np.exp(-2j * np.pi * t * 0.4),
                lambda rng, shape: np.full(shape, 0.4),
                symmetric_about_half=False,
            )

    def test_cf_must_be_one_at_origin(self):
        with pytest.raises(ValueError):
            JitterDistribution(
                "broken",
                lambda t: 0.5 * np.exp(-1j * np.pi * t),
                lambda rng, shape: np.full(shape, 0.5),
                symmetric_about_half=True,
            )

    def test_custom_distribution_accepted(self):
        # asymmetric two-point law with mean 1/2 is a valid extension
        def draw(rng, shape):
            return np.where(rng.random(shape) < 2 / 3, 0.75, 0.0)

        dist = JitterDistribution(
            "two_point",
            lambda t: (1 + 2 * np.exp(-2j * np.pi * t * 0.75)) / 3,
            draw,
            symmetric_about_half=False,
        )
        draws = dist.sample(10**5, 3)
        assert abs(draws.mean() - 0.5) < 0.01
        assert abs(np.exp(-2j * np.pi * 0.7 * draws).mean() - complex(dist.cf(0.7))) < 0.01

    def test_names(self):
        assert from_name("uniform").kind == "uniform01"
        assert from_name("point").kind == "point_mass_half"
        assert from_name("triangular").kind == "triangular01"
        with pytest.raises(ValueError):
            from_name("gaussian")
