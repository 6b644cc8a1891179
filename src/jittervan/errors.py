"""Exception types shared across the package.

Argument validation raises the builtin ``ValueError`` through one helper
per kind of argument: ``_check_integer`` for counts and orders,
``_check_aspect_ratio`` for aspect ratios and ``_check_law`` for jitter
laws.  The classes here cover failures of the numerical machinery itself.
"""

import math
import numbers


def _check_integer(value, name: str, low: int = 1, high: float = math.inf) -> None:
    """Refuse a count that is not an integer in [low, high]; a bool is not a
    count."""
    if (
        not isinstance(value, numbers.Integral)
        or isinstance(value, bool)
        or not low <= value <= high
    ):
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value}")


def _check_aspect_ratio(beta, name: str = "aspect ratio") -> None:
    """Refuse an aspect ratio outside (0, 1]; NaN is refused too."""
    if not 0 < beta <= 1:
        raise ValueError(f"{name} must be in (0, 1], got {beta}")


def _check_law(dist) -> None:
    """Refuse a jitter law that is not a ``JitterDistribution``."""
    from .jitter import JitterDistribution  # jitter imports this module

    if not isinstance(dist, JitterDistribution):
        raise ValueError(f"jitter law must be a JitterDistribution, got {dist!r}")


class NumericalError(RuntimeError):
    """A numerical procedure failed or produced an inconsistent result."""


class BudgetError(RuntimeError):
    """An enumeration or matrix build exceeded its configured resource budget."""
