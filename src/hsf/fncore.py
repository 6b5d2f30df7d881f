"""Exact truth-table engine for Boolean functions on {-1,+1}^n.

A function is stored as a dense value table of length 2**n over the row-index
convention of :mod:`hsf._bits`: bit j of row k set means variable j takes the
value -1.  Under that convention the parity of a variable set S (a bitmask)
evaluates to (-1)**popcount(k & S) at row k, so the in-place butterfly below
computes Fourier coefficients with no index remapping: coefficient S lands at
array position S.

All operations are pure and deterministic.  Exact transforms are O(n * 2**n)
and guarded by an arity cap (default 20, raisable to 24 by callers that accept
the memory cost).
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass

import numpy as np

from . import _bits
from .errors import InvalidInputError, check_cap, check_int

DEFAULT_ARITY_CAP = 20
MAX_ARITY_CAP = 24

# Entries per np.bincount call when summing degree weights; bounds the
# temporaries (squares and intp bins) independently of the arity.
_DEGREE_CHUNK = 1 << 16

# Sylvester's Hadamard matrix of order 64; its leading 2**k block has order 2**k.
_H64 = functools.reduce(np.kron, [np.array([[1, 1], [1, -1]], dtype=np.float32)] * 6)


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
        if not np.all(np.abs(values) == 1):
            raise InvalidInputError("table entries must be +1 or -1")
        values = values.astype(np.int8)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __call__(self, x: np.ndarray) -> np.ndarray | int:
        """Evaluate at one +-1 point (1-D) or a stack of points (2-D)."""
        x = np.asarray(x)
        single = x.ndim == 1
        rows = np.atleast_2d(x)
        if rows.shape[1] != self.arity:
            raise InvalidInputError(
                f"points have {rows.shape[1]} coordinates, function has arity {self.arity}"
            )
        if not np.all(np.abs(rows) == 1):
            raise InvalidInputError("points must have +-1 coordinates")
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


@dataclass(frozen=True)
class FourierSpectrum:
    """All 2**arity Fourier coefficients, indexed by variable-set bitmask.

    The coefficients are always a private read-only copy of the caller's
    array, so no later write through another reference (a writable base of
    a read-only view, say) can reach them or the memoized degree weights.
    """

    arity: int
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=np.float64)
        if coeffs.shape != (1 << check_int("arity", self.arity, 0),):
            raise InvalidInputError(
                f"spectrum for arity {self.arity} needs {1 << self.arity} coefficients, "
                f"got shape {coeffs.shape}"
            )
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    def total_weight(self) -> float:
        """Sum of squared coefficients (1.0 for a +-1-valued function)."""
        return float(np.dot(self.coefficients, self.coefficients))

    @functools.cached_property
    def degree_weights(self) -> np.ndarray:
        """Read-only squared coefficient mass per degree, computed on first use.

        Entry d sums the squares over |S| = d strictly in index order: each
        chunk goes through one np.bincount whose first n + 1 entries carry the
        running per-degree totals, so the sums equal a single bincount over
        the whole array bit for bit.  For a +-1 table's spectrum each partial
        sum is a multiple of 4**-n of at most 1: exact in any order for n <= 26.
        """
        n = self.arity
        counts = _bits.popcounts(n)
        bins = np.empty(n + 1 + _DEGREE_CHUNK, dtype=np.intp)
        bins[:n + 1] = np.arange(n + 1)
        terms = np.empty(n + 1 + _DEGREE_CHUNK)
        totals = np.zeros(n + 1)
        for lo in range(0, self.coefficients.size, _DEGREE_CHUNK):
            chunk = self.coefficients[lo:lo + _DEGREE_CHUNK]
            end = n + 1 + chunk.size
            bins[n + 1:end] = counts[lo:lo + chunk.size]
            np.multiply(chunk, chunk, out=terms[n + 1:end])
            terms[:n + 1] = totals
            totals = np.bincount(bins[:end], weights=terms[:end], minlength=n + 1)
        totals.setflags(write=False)
        return totals


def from_values(arity: int, values, cap: int = DEFAULT_ARITY_CAP) -> BooleanFunction:
    """Build a function from an explicit +-1 table of length 2**arity."""
    return BooleanFunction(check_cap("arity", check_int("arity", arity, 0), cap),
                           np.asarray(values))


def _butterfly(a: np.ndarray, h: int = 1) -> np.ndarray:
    # Unnormalized transform of ``a`` in place from block width h on (the
    # narrower passes already done), returned for chaining.  Each pass saves
    # the left halves in one half-size scratch buffer, then forms left + right
    # and left - right in the array itself.
    scratch = np.empty(a.size // 2, dtype=a.dtype)
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        left, right, saved = pairs[:, 0], pairs[:, 1], scratch.reshape(-1, h)
        np.copyto(saved, left)
        left += right
        np.subtract(saved, right, out=right)
        h *= 2
    return a


def wht(f: BooleanFunction) -> FourierSpectrum:
    """Fourier coefficients of ``f`` via the fast transform.

    H(2**n) = H(2**(n-6)) (x) H(64): the six lowest passes are one float32
    product of each 64-entry row with _H64 (its leading block when n < 6),
    exact because its entries are integers of magnitude at most 64.  The other
    passes run in int32, exact below n = 31 (the arity cap is 24).  The sums
    are divided by 2**n once in float64, so every coefficient is the correctly
    rounded value of the exact one.
    """
    width = 1 << min(f.arity, 6)
    rows = f.values.reshape(-1, width)
    sums = np.empty(rows.shape, dtype=np.int32)
    # 64-row tiles: 64**3 multiply-adds stay under OpenBLAS's threading
    # cutoff, and larger, threaded products stalled.
    for lo in range(0, len(rows), 64):
        sums[lo:lo + 64] = np.matmul(rows[lo:lo + 64], _H64[:width, :width])
    sums = _butterfly(sums.reshape(-1), width)
    coeffs = sums / float(sums.size)
    coeffs.setflags(write=False)
    # Nothing else references this fresh array, so FourierSpectrum's
    # defensive copy is skipped by setting the fields directly.
    spectrum = object.__new__(FourierSpectrum)
    object.__setattr__(spectrum, "arity", f.arity)
    object.__setattr__(spectrum, "coefficients", coeffs)
    return spectrum


def synthesize(spectrum: FourierSpectrum) -> np.ndarray:
    """Real-valued table of the polynomial with the given coefficients.

    Inverse of :func:`wht` up to rounding: the same butterfly, in float64 on
    a copy of the coefficients, without the final normalization.
    """
    return _butterfly(spectrum.coefficients.copy())


def mean(f: BooleanFunction) -> float:
    """E[f] under the uniform distribution."""
    return float(np.mean(f.values, dtype=np.float64))


def distance(f: BooleanFunction, g: BooleanFunction) -> float:
    """Fraction of inputs where f and g disagree."""
    if f.arity != g.arity:
        raise InvalidInputError(f"arity mismatch: {f.arity} vs {g.arity}")
    return float(np.count_nonzero(f.values != g.values)) / f.values.size


def is_junta_on(f: BooleanFunction, variables: int) -> bool:
    """True when f depends on no variable outside the bitmask ``variables``."""
    check_int("variables", variables, 0, (1 << f.arity) - 1)
    idx = np.arange(f.values.size)
    for j in range(f.arity):
        if (variables >> j) & 1:
            continue
        if not np.array_equal(f.values, f.values[idx ^ (1 << j)]):
            return False
    return True


def random_function(arity: int, seed, cap: int = DEFAULT_ARITY_CAP) -> BooleanFunction:
    """Uniformly random +-1 table; identical seeds give identical tables."""
    arity = check_cap("arity", check_int("arity", arity, 0), cap)
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 2, size=1 << arity, dtype=np.int8) * 2 - 1
    return BooleanFunction(arity, values)


def to_text(f: BooleanFunction) -> str:
    """Two-line text form: ``n=<arity>`` then space-separated +1/-1 entries."""
    entries = " ".join("+1" if v > 0 else "-1" for v in f.values)
    return f"n={f.arity}\n{entries}\n"


def from_text(text: str, cap: int = DEFAULT_ARITY_CAP) -> BooleanFunction:
    """Parse the two-line text form produced by :func:`to_text`."""
    lines = [line.strip() for line in io.StringIO(text) if line.strip()]
    if not lines or not lines[0].startswith("n="):
        raise InvalidInputError("first line must be 'n=<int>'")
    try:
        arity = int(lines[0][2:])
    except ValueError:
        raise InvalidInputError(f"malformed arity line {lines[0]!r}") from None
    check_cap("arity", check_int("arity", arity, 0), cap)
    if len(lines) != 2:
        raise InvalidInputError(f"expected one entry line after the header, got {len(lines) - 1}")
    tokens = lines[1].split()
    if len(tokens) != (1 << arity):
        raise InvalidInputError(
            f"expected {1 << arity} entries for n={arity}, got {len(tokens)}"
        )
    table = np.empty(1 << arity, dtype=np.int8)
    for i, tok in enumerate(tokens):
        if tok == "+1":
            table[i] = 1
        elif tok == "-1":
            table[i] = -1
        else:
            raise InvalidInputError(f"entry {i} is {tok!r}, must be +1 or -1")
    return BooleanFunction(arity, table)


def save_table(f: BooleanFunction, path) -> None:
    """Write the text form of ``f`` to a file."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(to_text(f))


def load_table(path, cap: int = DEFAULT_ARITY_CAP) -> BooleanFunction:
    """Read a function from the text form written by :func:`save_table`."""
    with open(path, "r", encoding="ascii") as fh:
        return from_text(fh.read(), cap=cap)
