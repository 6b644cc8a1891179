"""Within-cell jitter distributions on [0,1) with mean exactly 1/2.

Each distribution carries both a seeded sampler (for Monte Carlo paths) and
a closed-form characteristic function evaluated on the imaginary axis,

    cf(t) = E[exp(-2*pi*i * t * x)],

which is what the analytic moment engine consumes.  Only mean-1/2 laws are
admitted: the half-cell offset is what keeps the sample averages on the
grid vertices, and the engine factors that offset out exactly.  The mean is
read off the characteristic function, so a law cannot declare one it does
not have.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

#: Arguments at which a characteristic function is checked to be Hermitian.
_PROBES = np.array([0.25, 0.7, 1.3, 3.1])


class JitterDistribution:
    """A jitter law given by a sampler plus characteristic function.

    Instances are immutable; samplers take explicit seeds (or generators)
    so parallel trials can use disjoint streams.  The characteristic
    function must be 1 at zero and Hermitian, cf(-t) = conj cf(t), as that
    of any real variate is, and give mean 1/2 to within 1e-6, read as
    E[x] = -Im cf(t) / (2 pi t) + O(t^2) at t = 1e-4.  The engine does not
    read ``symmetric_about_half``; the benchmark's traced laws pass it on.
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

    @property
    def identity(self) -> tuple:
        """(kind, characteristic function): what cached values are keyed on.

        The kind alone is a label that unrelated laws may share; the
        function object tells them apart, and laws built by one factory
        share it.
        """
        return (self.kind, self._cf)

    def cf(self, t) -> np.ndarray:
        """Characteristic value E[exp(-2*pi*i*t*x)] for scalar or array t."""
        return self._cf(np.asarray(t, dtype=float))

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Draw i.i.d. variates into ``shape`` using an existing generator."""
        return self._draw(rng, shape)

    def sample(self, n: int, seed) -> np.ndarray:
        """Draw n i.i.d. variates; deterministic for a fixed seed."""
        if n < 1:
            raise ValueError(f"sample count must be >= 1, got {n}")
        return self._draw(np.random.default_rng(seed), (n,))

    def __repr__(self) -> str:
        return f"JitterDistribution(kind={self.kind!r})"


def _uniform_cf(t: np.ndarray) -> np.ndarray:
    # E[e^{-2 pi i t U}] over U ~ [0,1): phase times sin(pi t)/(pi t)
    return np.exp(-1j * np.pi * t) * np.sinc(t)


def _point_mass_cf(t: np.ndarray) -> np.ndarray:
    return np.exp(-1j * np.pi * t)


def _triangular_cf(t: np.ndarray) -> np.ndarray:
    # sum of two independent uniforms on [0,1/2): squared half-width factor
    return (np.exp(-0.5j * np.pi * t) * np.sinc(0.5 * t)) ** 2


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
