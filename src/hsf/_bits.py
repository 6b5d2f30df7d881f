"""Bitmask, point and seed helpers shared by the truth-table modules.

Convention used everywhere in this package: variables are 0-based, bit j of a
row index corresponds to variable j, and a set bit means the variable takes the
value -1.  Variable sets are plain Python ints read as bitmasks, so the parity
function of a set S evaluates to (-1)**popcount(k & S) at row k.

Reshaped to (2,)*n in C order, a table puts the highest bit on axis 0, so
variable c sits on axis n-1-c; whole-table reindexing (transposes to another
bit order, head blocks) works on that view.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from .errors import InvalidInputError


def reals(name: str, values) -> np.ndarray:
    """``values`` as a float64 array; InvalidInputError unless its entries are bool, int or float."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "biuf":
        raise InvalidInputError(f"{name} must be an array of real numbers")
    return np.asarray(raw, dtype=np.float64)


def read_only(values: np.ndarray) -> np.ndarray:
    """``values`` itself, its write flag cleared."""
    values.setflags(write=False)
    return values


def adopt(cls, **fields):
    """A ``cls`` instance holding ``fields`` as given, arrays made read-only.

    For frozen dataclasses built from fresh arrays that nothing else
    references: their ``__post_init__`` checks and defensive copies are skipped.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, read_only(value) if isinstance(value, np.ndarray) else value)
    return obj


def check_signs(values: np.ndarray, message: str) -> None:
    """InvalidInputError(message) unless every entry is an int or float +1 or -1."""
    if values.dtype.kind not in "iuf" or not np.all(np.abs(values) == 1):
        raise InvalidInputError(message)


def sign_points(x, width: int) -> tuple[np.ndarray, bool]:
    """One +-1 point (1-D) or a stack of them (2-D) as 2-D rows, and whether it was one."""
    x = np.asarray(x)
    if x.ndim not in (1, 2):
        raise InvalidInputError(f"points must be a 1-D point or a 2-D stack, got {x.ndim}-D")
    rows = np.atleast_2d(x)
    if rows.shape[1] != width:
        raise InvalidInputError(
            f"points have {rows.shape[1]} coordinates, the function has {width} inputs")
    check_signs(rows, "points must have +-1 coordinates")
    return rows, x.ndim == 1


def rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``; InvalidInputError for a seed it rejects."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise InvalidInputError(
            f"seed must be a nonnegative int, a sequence of them, None or a Generator, "
            f"got {seed!r}") from None


def bit_positions(mask: int) -> list[int]:
    """Set-bit positions of ``mask`` in ascending order."""
    return [j for j in range(int(mask).bit_length()) if (mask >> j) & 1]


@functools.cache
def popcounts(n: int) -> np.ndarray:
    """Popcount of every index in [0, 2**n), as a read-only uint8 array.

    Built by doubling in one preallocated array (the upper half of each prefix
    is the lower half plus one) and memoized per n.
    """
    counts = np.zeros(1 << n, dtype=np.uint8)
    s = 1
    while s < counts.size:
        np.add(counts[:s], 1, out=counts[s:2 * s])
        s *= 2
    return read_only(counts)


def head_cube(table: np.ndarray, positions: Sequence[int], n: int) -> np.ndarray:
    """The (2,)*n cube view of ``table`` with the axes of ``positions`` first.

    Reshaped to 2**len(positions) rows, row r is the block where the bit at
    ``positions[j]`` equals bit j of r; the other bits keep their order.
    """
    head = [n - 1 - p for p in reversed(positions)]
    return table.reshape((2,) * n).transpose(head + [a for a in range(n) if a not in head])


def head_sums(table: np.ndarray, positions: Sequence[int], n: int) -> np.ndarray:
    """Exact int64 sum of every :func:`head_cube` row of ``table``, by packed index.

    The bits above the highest position are summed first, in rows of at least
    2**10 entries as numpy sums many short rows slowly; exact in any order.
    """
    low = max(int(max(positions, default=-1)) + 1, min(n, 10))
    if low < n:
        table = table.reshape(-1, 1 << low).sum(axis=0, dtype=np.int64)
    return head_cube(table, positions, low).reshape(1 << len(positions), -1).sum(
        axis=1, dtype=np.int64)


def submasks(mask: int) -> np.ndarray:
    """All 2**popcount(mask) submasks of ``mask``, ordered by packed index."""
    subs = np.zeros(1, dtype=np.int64)
    for p in bit_positions(mask):  # ascending, so each doubling adds the next packed bit
        subs = np.concatenate([subs, subs | (1 << p)])
    return subs
