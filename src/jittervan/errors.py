"""Exception types shared across the package.

Argument validation raises the builtin ``ValueError``, that of integer
shape parameters through ``_check_integer``; the classes here cover
failures of the numerical machinery itself.
"""

import numbers


def _check_integer(value, name: str) -> None:
    """Refuse a shape parameter that is not an integer >= 1."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value}")


class NumericalError(RuntimeError):
    """A numerical procedure failed or produced an inconsistent result."""


class BudgetError(RuntimeError):
    """An enumeration or matrix build exceeded its configured resource budget."""
