"""Exception types and the argument, range and cap checks shared across the package.

Every check of a scalar argument and every ``CapExceededError`` goes through
the three functions below, so a failure reads the same wherever it is raised.
"""

import math
import numbers


class HsfError(Exception):
    """Base class for every package-specific error."""


class InvalidInputError(HsfError, ValueError):
    """An argument violates a documented precondition."""


class CapExceededError(HsfError):
    """An exact computation was requested above the configured size cap."""


class DegenerateLtfError(InvalidInputError):
    """A weight vector with no nonzero entry cannot define a threshold function."""


def _as_float(name: str, value) -> float:
    try:
        if not isinstance(value, bool):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidInputError(f"{name} must convert to a float, got {value!r}")


def check_range(name: str, value, lo: float, hi: float,
                open_lo: bool = False, open_hi: bool = False) -> float:
    """``value`` as a float in [lo, hi]; ``open_lo`` / ``open_hi`` exclude an end.

    NaN, bools and values that ``float()`` rejects fail.
    """
    # Most calls pass an exact float, which needs no conversion.
    number = value if type(value) is float else _as_float(name, value)
    if (lo < number if open_lo else lo <= number) and (number < hi if open_hi else number <= hi):
        return number
    raise InvalidInputError(
        f"{name} must be in {'(' if open_lo else '['}{lo:g}, "
        f"{hi:g}{')' if open_hi else ']'}, got {number}"
    )


def check_int(name: str, value, lo: float = -math.inf, hi: float = math.inf) -> int:
    """``value`` as an int in [lo, hi]; floats, bools and non-numbers fail."""
    if type(value) is not int:  # plain ints skip the slow abstract-class check
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise InvalidInputError(f"{name} must be an int, got {value!r}")
        value = int(value)
    if lo <= value <= hi:
        return value
    raise InvalidInputError(f"{name} must be in [{lo}, {hi}], got {value}")


def check_cap(name: str, size: int, cap: int, cap_name: str = "cap") -> int:
    """``size`` unchanged; CapExceededError when it exceeds ``cap``, an int."""
    if size > check_int(cap_name, cap):
        raise CapExceededError(f"{name} {size} exceeds {cap_name} {cap}")
    return size
