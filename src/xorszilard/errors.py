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
    """A stochastic estimate fell outside its usable regime."""


def check_count(n, name: str) -> int:
    """n as an int if it is integral by operator.index (ints and numpy ints
    pass; floats, NaN included, do not), else ValidationError."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {n!r}") from None


def check_seed(seed) -> tuple[int, ...]:
    """The key of a seed, a non-negative integer or a nonempty tuple of them:
    (seed,) or the tuple itself, as ints (ValidationError otherwise).
    Generators are seeded with the key followed by a stream index."""
    key = seed if isinstance(seed, tuple) else (seed,)
    try:
        key = tuple(map(operator.index, key))
    except TypeError:
        key = ()
    if not key or min(key) < 0:
        raise ValidationError(f"seed must be a non-negative integer or a "
                              f"tuple of them, got {seed!r}")
    return key
