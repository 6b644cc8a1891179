"""Exception types shared across the package.

Argument validation raises the builtin ``ValueError``, the grid dimension's
through ``_check_dimension``; the classes here cover failures of the
numerical machinery itself.
"""

import numbers


def _check_dimension(d) -> None:
    """Refuse a grid dimension that is not an integer >= 1."""
    if not isinstance(d, numbers.Integral) or d < 1:
        raise ValueError(f"dimension must be an integer >= 1, got {d}")


class NumericalError(RuntimeError):
    """A numerical procedure failed or produced an inconsistent result."""


class BudgetError(RuntimeError):
    """An enumeration or matrix build exceeded its configured resource budget."""
