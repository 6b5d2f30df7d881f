"""Bitmask, point and seed helpers shared by the truth-table modules.

Convention used everywhere in this package: variables are 0-based, bit j of a
row index corresponds to variable j, and a set bit means the variable takes the
value -1.  Variable sets are plain Python ints read as bitmasks, so the parity
function of a set S evaluates to (-1)**popcount(k & S) at row k.

Reshaped to (2,)*n in C order, a table puts the highest bit on axis 0, so
variable c sits on axis n-1-c; whole-table reindexing (transposes, head
blocks, broadcasting over variables a function ignores) works on that view.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from .errors import InvalidInputError


def reals(name: str, values) -> np.ndarray:
    """``values`` as a float64 array; InvalidInputError when an entry is not real."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} must be an array of real numbers") from None


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


def popcount(mask: int) -> int:
    """Number of set bits of a nonnegative int."""
    return int(mask).bit_count()


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
    counts.setflags(write=False)
    return counts


def compress_bits(idx: np.ndarray | int, positions: Sequence[int]) -> np.ndarray | int:
    """Gather the bits of ``idx`` at ``positions`` into consecutive low bits."""
    out = idx * 0
    for j, p in enumerate(positions):
        out = out | (((idx >> p) & 1) << j)
    return out


def spread_bits(packed: np.ndarray | int, positions: Sequence[int]) -> np.ndarray | int:
    """Scatter the low bits of ``packed`` to ``positions`` (inverse of compress_bits)."""
    out = packed * 0
    for j, p in enumerate(positions):
        out = out | (((packed >> j) & 1) << p)
    return out


def spread_table(table: np.ndarray, positions: Sequence[int], n: int) -> np.ndarray:
    """Table over n bits holding ``table[k]`` at row spread_bits(k, positions).

    The result is constant along the bits that no position names.
    """
    k = len(positions)
    # Bit j of ``table`` is cube axis k-1-j; order the axes by target, highest first.
    axes = [k - 1 - j for j in np.argsort(np.negative(positions))]
    cube = table.reshape((2,) * k).transpose(axes)
    if k < n:
        shape = [2 if c in positions else 1 for c in range(n - 1, -1, -1)]
        cube = np.broadcast_to(cube.reshape(shape), (2,) * n)
    return cube.reshape(-1)


def submasks(mask: int) -> np.ndarray:
    """All 2**popcount(mask) submasks of ``mask``, ordered by packed index."""
    pos = bit_positions(mask)
    packed = np.arange(1 << len(pos), dtype=np.int64)
    return np.asarray(spread_bits(packed, pos), dtype=np.int64)
