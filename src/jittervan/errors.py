"""Exception types shared across the package.

Argument validation raises the builtin ``ValueError``; the classes here
cover failures of the numerical machinery itself.
"""


class NumericalError(RuntimeError):
    """A numerical procedure failed or produced an inconsistent result."""


class BudgetError(RuntimeError):
    """An enumeration or matrix build exceeded its configured resource budget."""
