"""Exception types shared across the package.

Argument validation raises the builtin ``ValueError`` through one helper
per kind of argument: ``_check_integer`` for counts, orders and offsets,
``_check_real`` for real numbers, ``_check_aspect_ratio`` for aspect ratios
and ``_check_law`` for jitter laws; a number helper returns the ``int`` or
``float`` it accepted, which callers compute with.  None of them takes a
bool or a string for a number.  The classes here cover failures of the
numerical machinery itself.
"""

import math
import numbers


def _check_integer(value, name: str, low: int = 1, high: float = math.inf) -> int:
    """Return a count in [low, high] as an ``int``; refuse one that is not an
    integer in that range, and a bool, which is not a count."""
    if (
        not isinstance(value, numbers.Integral)
        or isinstance(value, bool)
        or not low <= value <= high
    ):
        if high < math.inf:
            bound = f" in [{low}, {high}]"
        else:
            bound = f" >= {low}" if low > -math.inf else ""
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def _check_real(value, name: str) -> float:
    """Return a real number as a float; refuse a bool, a string or a
    complex number, which are not real numbers here."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _check_aspect_ratio(beta, name: str = "aspect ratio") -> float:
    """Return a ratio in (0, 1] as a float; refuse what is no real number,
    NaN and what rounds to 0."""
    value = _check_real(beta, name)
    if not 0 < beta <= 1 or not value > 0:
        raise ValueError(f"{name} must be in (0, 1], got {beta!r}")
    return value


def _check_law(dist) -> None:
    """Refuse a jitter law that is not a ``JitterDistribution``."""
    from .jitter import JitterDistribution  # jitter imports this module

    if not isinstance(dist, JitterDistribution):
        raise ValueError(f"jitter law must be a JitterDistribution, got {dist!r}")


class NumericalError(RuntimeError):
    """A numerical procedure failed or produced an inconsistent result."""


class BudgetError(RuntimeError):
    """An enumeration or matrix build exceeded its configured resource budget."""
