"""Exception types and the range and int checks shared across the package."""

import numbers


class HsfError(Exception):
    """Base class for every package-specific error."""


class InvalidInputError(HsfError, ValueError):
    """An argument violates a documented precondition."""


class CapExceededError(HsfError):
    """An exact computation was requested above the configured size cap."""


class DegenerateLtfError(InvalidInputError):
    """A weight vector with no nonzero entry cannot define a threshold function."""


def check_range(name: str, value, lo: float, hi: float, open_lo: bool = False) -> float:
    """``value`` as a float in [lo, hi], or in (lo, hi] with ``open_lo``; NaN fails."""
    value = float(value)
    if not (lo < value <= hi if open_lo else lo <= value <= hi):
        bracket = "(" if open_lo else "["
        raise InvalidInputError(f"{name} must be in {bracket}{lo:g}, {hi:g}], got {value}")
    return value


def check_int(name: str, value) -> int:
    """``value`` as an int; floats, bools and non-numbers fail."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInputError(f"{name} must be an int, got {value!r}")
    return int(value)
