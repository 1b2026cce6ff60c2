"""Exception classes shared across the package.

The CLI maps these onto distinct exit codes, so raise the most specific
class available.
"""


class ParseError(ValueError):
    """A spec string or input file could not be parsed."""


class ValidationError(ValueError):
    """A domain invariant was violated (probabilities, shapes, ranges)."""


class BudgetError(RuntimeError):
    """An enumeration or size budget was exceeded."""


class RegimeError(RuntimeError):
    """A stochastic estimate fell outside its usable regime."""
