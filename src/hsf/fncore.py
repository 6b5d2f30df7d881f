"""Exact truth-table engine for Boolean functions on {-1,+1}^n.

A function is stored as a dense value table of length 2**n over the row-index
convention of :mod:`hsf._bits`: bit j of row k set means variable j takes the
value -1.  Under that convention the parity of a variable set S (a bitmask)
evaluates to (-1)**popcount(k & S) at row k, so the transform computes Fourier
coefficients with no index remapping: coefficient S lands at array position S.

The transform uses H(2**n) = H(2**r) (x) H(64) (x) ... (x) H(64), r = n mod 6
(Fino & Algazi, IEEE Trans. Computers, 1976): each group of six bits, lowest
first, is one batched float32 product with the 64 x 64 Hadamard matrix (its
leading 2**r block for the top group).  Every operand and every partial sum
is an integer of magnitude at most 2**n <= 2**24, and float32 holds every
such integer, so the sums are exact in any order.  The passes alternate
between the two float32 halves of the float64 result, so the transform holds
no 2**n array beyond the table and the spectrum: 8 bytes an entry.

All operations are pure and deterministic.  Exact transforms take at most
64 * ceil(n / 6) multiply-adds per entry and are guarded by an arity cap
(default 20, raisable to 24 by callers that accept the memory cost).
:func:`wht` raises CapExceededError above 24, where float32 sums would round.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _bits
from .errors import InvalidInputError, check_cap, check_int

DEFAULT_ARITY_CAP = 20
MAX_ARITY_CAP = 24

# Entries per np.bincount or np.matmul call; bounds the temporaries (squares,
# casts and intp bins) independently of the arity.
_CHUNK = 1 << 16

# Multiply-adds per matrix product in the transform and in the degree weights.
# OpenBLAS runs products up to this size on one thread; threaded ones stalled
# whenever another process held the second core (0.5 ms became 12-16 ms at
# n = 16).
_MACS = 1 << 18

# Sylvester's Hadamard matrix of order 64; its leading 2**k block has order 2**k.
_H64 = functools.reduce(np.kron, [np.array([[1, 1], [1, -1]], dtype=np.float32)] * 6)

# Entry (j, d) is 1.0 when popcount(j) == d.
_LOW_DEGREE = np.equal.outer(_bits.popcounts(6), np.arange(7)).astype(np.float64)


@dataclass(frozen=True)
class BooleanFunction:
    """Dense {-1,+1} truth table over ``arity`` variables."""

    arity: int
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values)
        if values.shape != (1 << check_int("arity", self.arity, 0),):
            raise InvalidInputError(
                f"table for arity {self.arity} needs {1 << self.arity} entries, "
                f"got shape {values.shape}"
            )
        _bits.check_signs(values, "table entries must be +1 or -1")
        object.__setattr__(self, "values", _bits.read_only(values.astype(np.int8)))

    def __call__(self, x: np.ndarray) -> np.ndarray | int:
        """Evaluate at one +-1 point (1-D) or a stack of points (2-D)."""
        rows, single = _bits.sign_points(x, self.arity)
        bits = ((1 - rows.astype(np.int64)) // 2)
        idx = bits @ (np.int64(1) << np.arange(self.arity, dtype=np.int64))
        out = self.values[idx]
        return int(out[0]) if single else out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BooleanFunction):
            return NotImplemented
        return self.arity == other.arity and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.arity, self.values.tobytes()))


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    """All 2**arity Fourier coefficients, indexed by variable-set bitmask.

    The coefficients must be finite.  They are always a private read-only
    copy of the caller's array, so no later write through another reference
    (a writable base of a read-only view, say) can reach them or the memoized
    degree weights.
    """

    arity: int
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = _bits.reals("coefficients", self.coefficients)
        if coeffs.shape != (1 << check_int("arity", self.arity, 0),):
            raise InvalidInputError(
                f"spectrum for arity {self.arity} needs {1 << self.arity} coefficients, "
                f"got shape {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise InvalidInputError("coefficients must be finite")
        object.__setattr__(self, "coefficients", _bits.read_only(coeffs.copy()))

    def total_weight(self) -> float:
        """Sum of squared coefficients (1.0 for a +-1-valued function)."""
        return float(np.dot(self.coefficients, self.coefficients))

    @functools.cached_property
    def degree_weights(self) -> np.ndarray:
        """Read-only squared coefficient mass per degree, computed on first use.

        Each row of 2**low squares (low = min(arity, 6)) is summed per low-bit
        popcount by float64 products with _LOW_DEGREE of at most 2**15 squares
        each (under _MACS multiply-adds), then per row popcount by one
        np.bincount per low degree, 2**16 squares at a time.  For a +-1 table's
        spectrum every partial sum is a multiple of 4**-n of at most 1: exact
        in any order for n <= 26.
        """
        n = self.arity
        low = min(n, 6)
        rows = self.coefficients.reshape(-1, 1 << low)
        indicator = _LOW_DEGREE[:1 << low, :low + 1]
        high = _bits.popcounts(n - low)
        totals = np.zeros(n + 1)
        step = _CHUNK >> low  # rows per np.bincount
        span = min(step, len(rows), (_MACS // 8) >> low)  # rows per product
        for lo in range(0, len(rows), step):
            squares = np.square(rows[lo:lo + step]).reshape(-1, span, 1 << low)
            by_low = np.matmul(squares, indicator).reshape(-1, low + 1)
            del squares  # before the next chunk's squares exist
            for d in range(low + 1):
                totals[d:d + n - low + 1] += np.bincount(
                    high[lo:lo + step], weights=by_low[:, d], minlength=n - low + 1)
        return _bits.read_only(totals)


def _butterfly(a: np.ndarray) -> np.ndarray:
    # Unnormalized transform of ``a`` in place, returned for chaining.  Each
    # pass saves the left halves in one half-size scratch buffer, then forms
    # left + right and left - right in the array itself.
    scratch = np.empty(a.size // 2, dtype=a.dtype)
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        left, right, saved = pairs[:, 0], pairs[:, 1], scratch.reshape(-1, h)
        np.copyto(saved, left)
        left += right
        np.subtract(saved, right, out=right)
        h *= 2
    return a


def _hadamard_pass(src: np.ndarray, dst: np.ndarray, h: np.ndarray, stride: int) -> None:
    # dst = the symmetric width x width matrix h applied along the bits
    # [log2 stride, log2(stride * width)) of src: batches of products of at
    # most _MACS multiply-adds each, at most _CHUNK entries a np.matmul call.
    width = len(h)
    span = min(_CHUNK // width, _MACS // width**2)  # vectors per product
    if stride == 1:  # rows times the symmetric matrix
        span = min(span, src.size // width)
        x, y = src.reshape(-1, span, width), dst.reshape(-1, span, width)
        step = _CHUNK // (span * width)
        for lo in range(0, len(x), step):
            np.matmul(x[lo:lo + step], h, out=y[lo:lo + step])
        return
    span = min(span, stride)
    parts = stride // span  # products per block of width * stride entries
    x = src.reshape(-1, width, parts, span).swapaxes(1, 2)
    y = dst.reshape(-1, width, parts, span).swapaxes(1, 2)
    per_call = _CHUNK // (width * span)
    blocks, cols = max(1, per_call // parts), min(parts, per_call)
    for b in range(0, len(x), blocks):
        for c in range(0, parts, cols):
            np.matmul(h, x[b:b + blocks, c:c + cols], out=y[b:b + blocks, c:c + cols])


def _hadamard_coefficients(values: np.ndarray, n: int) -> np.ndarray:
    # Float64 Fourier coefficients of a 2**n-entry int8 table.  The passes
    # alternate between the two float32 halves of the result; the last writes
    # the upper half, with 2**-n folded into its matrix (exact: every sum is an
    # integer of magnitude at most 2**24 times 2**-n).  The upper half is then
    # widened in place, bottom up, one chunk at a time: entry j lands on the
    # float32 slots 2j and 2j + 1, below every entry after j still to be read.
    widths = [64] * (n // 6)
    if n % 6 or not widths:
        widths.append(1 << n % 6)
    coeffs = np.empty(values.size)
    halves = coeffs.view(np.float32).reshape(2, -1)
    src, stride = values, 1
    for later, width in zip(range(len(widths) - 1, -1, -1), widths):
        h = _H64[:width, :width] if later else _H64[:width, :width] * np.float32(2.0 ** -n)
        dst = halves[1 - later % 2]
        _hadamard_pass(src, dst, h, stride)
        src, stride = dst, stride * width
    for lo in range(0, values.size, _CHUNK):
        coeffs[lo:lo + _CHUNK] = src[lo:lo + _CHUNK]
    return coeffs


def wht(f: BooleanFunction) -> FourierSpectrum:
    """Fourier coefficients of ``f`` via the fast transform.

    One exact float32 Kronecker pass per six bits (see the module docstring),
    the last scaled by 2**-n and widened to the float64 result: exact, so each
    coefficient equals the exact integer sum divided by 2**n bit for bit, and
    the spectrum's ``degree_weights`` are exact too.

    Raises CapExceededError for arities above MAX_ARITY_CAP (24), where the
    float32 sums would round.
    """
    n = check_cap("arity", f.arity, MAX_ARITY_CAP)
    return _bits.adopt(FourierSpectrum, arity=n, coefficients=_hadamard_coefficients(f.values, n))


def synthesize(spectrum: FourierSpectrum) -> np.ndarray:
    """Real-valued table of the polynomial with the given coefficients.

    Inverse of :func:`wht` up to rounding: the in-place float64 butterfly on
    a copy of the coefficients, without the normalization.
    """
    return _butterfly(spectrum.coefficients.copy())


def random_function(arity: int, seed, cap: int = DEFAULT_ARITY_CAP) -> BooleanFunction:
    """Uniformly random +-1 table; identical seeds give identical tables."""
    cap = check_int("cap", cap, 0, MAX_ARITY_CAP)
    arity = check_cap("arity", check_int("arity", arity, 0), cap)
    values = _bits.rng(seed).integers(0, 2, size=1 << arity, dtype=np.int8)
    values *= 2
    values -= 1
    return _bits.adopt(BooleanFunction, arity=arity, values=values)

