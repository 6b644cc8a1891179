"""Within-cell jitter distributions on [0,1) with mean exactly 1/2.

Each distribution carries both a seeded sampler (for Monte Carlo paths) and
a closed-form characteristic function evaluated on the imaginary axis,

    cf(t) = E[exp(-2*pi*i * t * x)],

which is what the analytic moment engine consumes.  Only mean-1/2 laws are
admitted: the half-cell offset is what keeps the sample averages on the
grid vertices, and the engine factors that offset out exactly.  The mean is
read off the characteristic function, so a law cannot declare one it does
not have.

Each law fixes once the centred cf phi(t) = e^{i pi t} cf(t) that the engine
integrates.  The built-in laws are symmetric about 1/2: each defines a real,
even phi and takes its cf from it.  Any other law's phi comes from its cf.
A built-in phi may overwrite its argument; the cf hands it a copy.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import _check_integer

#: Arguments at which a characteristic function is checked to be Hermitian.
_PROBES = np.array([0.25, 0.7, 1.3, 3.1])


class JitterDistribution:
    """A jitter law given by a sampler plus characteristic function.

    Instances are immutable; samplers take explicit seeds (or generators)
    so parallel trials can use disjoint streams.  The law's support is
    assumed to lie in the cell [0, 1); nothing checks it.  The
    characteristic function must be 1 at zero and Hermitian,
    cf(-t) = conj cf(t), as that of any real variate is, and give mean 1/2
    to within 1e-6, read as E[x] = -Im cf(t) / (2 pi t) + O(t^2) at
    t = 1e-4.  A law declared ``symmetric_about_half`` must have a real
    centred cf: |Im(e^{i pi t} cf(t))| at most 1e-12 at the probes.  The
    declaration selects no path.  The engine integrates every law's centred
    cf: the real one a built-in law defines, or e^{i pi t} cf(t).
    """

    def __init__(
        self,
        kind: str,
        cf: Callable[[np.ndarray], np.ndarray],
        draw: Callable[[np.random.Generator, tuple], np.ndarray],
        symmetric_about_half: bool,
    ) -> None:
        self.kind = kind
        self.symmetric_about_half = bool(symmetric_about_half)
        self._cf = cf
        self._draw = draw
        #: the centred cf, which ``integrate`` reads; it may overwrite its argument
        self._centred = cf.phi if isinstance(cf, _Centred) else self._centred_from_cf
        at_zero = complex(np.asarray(cf(np.array(0.0))).item())
        if abs(at_zero - 1.0) > 1e-12:
            raise ValueError(f"characteristic function must be 1 at t=0, got {at_zero}")
        # the moment engine halves its cubature on cf(-t) = conj cf(t),
        # which every real-valued law satisfies
        gap = np.abs(self.cf(-_PROBES) - np.conj(self.cf(_PROBES))).max()
        if gap > 1e-12:
            raise ValueError(
                f"characteristic function of {kind!r} is not Hermitian: "
                f"|cf(-t) - conj cf(t)| reaches {gap:.3e}"
            )
        mean = -complex(self.cf(1e-4)).imag / (2 * np.pi * 1e-4)
        if abs(mean - 0.5) > 1e-6:
            raise ValueError(
                f"jitter mean must equal 1/2, but the characteristic function "
                f"of {kind!r} gives {mean:.6f}: the grid offset is factored "
                "out under that assumption"
            )
        if self.symmetric_about_half:
            skew = np.abs((np.exp(1j * np.pi * _PROBES) * self.cf(_PROBES)).imag).max()
            if skew > 1e-12:
                raise ValueError(
                    f"{kind!r} is declared symmetric about 1/2, but its centred "
                    f"characteristic function is not real: |Im(e^(i pi t) cf(t))| "
                    f"reaches {skew:.3e}"
                )

    @property
    def identity(self) -> tuple:
        """(kind, characteristic function): what laws compare and hash by,
        and so what cached values are keyed on.

        The kind alone is a label that unrelated laws may share; the
        function object tells them apart, and laws built by one factory
        share it.
        """
        return (self.kind, self._cf)

    def __eq__(self, other) -> bool:
        return isinstance(other, JitterDistribution) and self.identity == other.identity

    def __hash__(self) -> int:
        return hash(self.identity)

    def cf(self, t) -> np.ndarray:
        """Characteristic value E[exp(-2*pi*i*t*x)] for scalar or array t."""
        return self._cf(np.asarray(t, dtype=float))

    def _centred_from_cf(self, t: np.ndarray) -> np.ndarray:
        """Complex centred cf e^{i pi t} cf(t) of a law that defines no real one."""
        return np.exp(1j * np.pi * t) * self.cf(t)

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draw i.i.d. variates into ``shape`` using an existing generator."""
        return self._draw(rng, shape)

    def sample(self, n: int, seed) -> np.ndarray:
        """Draw n i.i.d. variates; deterministic for a fixed seed >= 0."""
        n = _check_integer(n, "sample count")
        seed = _check_integer(seed, "seed", low=0)
        return self._draw(np.random.default_rng(seed), (n,))

    def __repr__(self) -> str:
        return f"JitterDistribution(kind={self.kind!r})"


class _Centred:
    """cf(t) = e^{-i pi t} phi(t) of a law symmetric about 1/2, from its real,
    even centred cf phi.  phi may overwrite its float64 argument, so the cf
    hands it a copy and leaves its caller's array as it was."""

    def __init__(self, phi: Callable[[np.ndarray], np.ndarray]) -> None:
        self.phi = phi

    def __call__(self, t: np.ndarray) -> np.ndarray:
        return np.exp(-1j * np.pi * t) * self.phi(np.array(t, dtype=float))


def _sinc(t: np.ndarray) -> np.ndarray:
    """np.sinc(t) bit for bit, with t overwritten by pi t: sin(pi t)/(pi t),
    and 1 at t = 0 without dividing there."""
    t *= np.pi
    out = np.sin(t, out=np.empty_like(t))
    np.divide(out, t, out=out, where=t != 0)
    out[t == 0] = 1.0
    return out


def _half_sinc_squared(t: np.ndarray) -> np.ndarray:
    """np.sinc(0.5 * t) ** 2 bit for bit, with t overwritten."""
    t *= 0.5
    out = _sinc(t)
    return np.square(out, out=out)


# U ~ [0,1) centred: sin(pi t)/(pi t)
_uniform_cf = _Centred(_sinc)
_point_mass_cf = _Centred(np.ones_like)
# sum of two independent uniforms on [0,1/2): the squared half-width factor
_triangular_cf = _Centred(_half_sinc_squared)


def uniform01() -> JitterDistribution:
    """Jitter uniform on the whole cell [0,1)."""
    return JitterDistribution(
        "uniform01",
        _uniform_cf,
        lambda rng, shape: rng.random(shape),
        symmetric_about_half=True,
    )


def point_mass_half() -> JitterDistribution:
    """Deterministic half-cell jitter; realizes exact equal spacing."""
    return JitterDistribution(
        "point_mass_half",
        _point_mass_cf,
        lambda rng, shape: np.full(shape, 0.5),
        symmetric_about_half=True,
    )


def triangular01() -> JitterDistribution:
    """Triangular jitter on [0,1): sum of two uniforms on [0,1/2)."""
    return JitterDistribution(
        "triangular01",
        _triangular_cf,
        lambda rng, shape: rng.uniform(0.0, 0.5, shape) + rng.uniform(0.0, 0.5, shape),
        symmetric_about_half=True,
    )


#: CLI spellings of the built-in jitter kinds.
JITTER_NAMES = {
    "uniform": uniform01,
    "point": point_mass_half,
    "triangular": triangular01,
}


def from_name(name: str) -> JitterDistribution:
    """Resolve a CLI jitter name ("uniform", "point", "triangular")."""
    try:
        return JITTER_NAMES[name]()
    except KeyError:
        raise ValueError(
            f"unknown jitter {name!r}; choose from {sorted(JITTER_NAMES)}"
        ) from None
