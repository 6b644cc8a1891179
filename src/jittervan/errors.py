"""Exception types shared across the package.

Argument validation raises the builtin ``ValueError`` through one helper
per kind of argument: ``_check_integer`` for counts and orders,
``_check_aspect_ratio`` for aspect ratios and ``_check_law`` for jitter
laws; a number helper returns the ``int`` or ``float`` it accepted, which
callers compute with.  The classes here cover failures of the numerical
machinery itself.
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
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value}")
    return int(value)


def _check_aspect_ratio(beta, name: str = "aspect ratio") -> float:
    """Return a ratio in (0, 1] as a float; refuse NaN and what rounds to 0."""
    if not 0 < beta <= 1 or not float(beta) > 0:
        raise ValueError(f"{name} must be in (0, 1], got {beta}")
    return float(beta)


def _check_law(dist) -> None:
    """Refuse a jitter law that is not a ``JitterDistribution``."""
    from .jitter import JitterDistribution  # jitter imports this module

    if not isinstance(dist, JitterDistribution):
        raise ValueError(f"jitter law must be a JitterDistribution, got {dist!r}")


class NumericalError(RuntimeError):
    """A numerical procedure failed or produced an inconsistent result."""


class BudgetError(RuntimeError):
    """An enumeration or matrix build exceeded its configured resource budget."""
