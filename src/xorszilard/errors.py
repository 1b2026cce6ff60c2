"""Exception classes shared across the package, and the checks of the two
integer arguments every layer takes: counts and seeds.

The CLI maps these onto distinct exit codes, so raise the most specific
class available.
"""

import operator


class ParseError(ValueError):
    """A spec string or input file could not be parsed."""


class ValidationError(ValueError):
    """A domain invariant was violated (probabilities, shapes, ranges)."""


class BudgetError(RuntimeError):
    """An enumeration or size budget was exceeded."""


class RegimeError(RuntimeError):
    """An exact dissipation Sigma <= 0, which a log-log fit cannot use."""


def check_count(n, name: str) -> int:
    """n as an int if it is integral by operator.index (ints and numpy ints
    pass; floats, NaN included, do not), else ValidationError."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {n!r}") from None


def check_seed(seed) -> int:
    """seed as an int if it is a non-negative integer by operator.index, else
    ValidationError.  Generators are seeded [seed, stream index]."""
    n = check_count(seed, "seed")
    if n < 0:
        raise ValidationError(f"seed must be >= 0, got {seed!r}")
    return n
