"""Canonical linear threshold functions and critical-index analysis.

A threshold function is sign(w . x - theta) with sign(0) = +1.  The canonical
form drops exactly-zero weights (recording their coordinates), scales the rest
and the threshold by the inverse l2 norm, and sorts by decreasing magnitude
with ties broken by original coordinate.  Canonicalizing twice is the identity.

Sorted positions are 1-based in user-facing indices (critical index, head
sizes); arrays underneath are 0-based as usual.  All evaluation paths
accumulate the linear form left to right over sorted positions, so the dense
truth table and pointwise evaluation agree bit for bit.  The dense table is
built in blocks of 2**16 entries, one sorted position per index bit: the low
16 positions fill one row by doubling, and row i + 1 holds row i +- the weight
at position 16 + i, so every entry is reached by that same left-to-right
sequence of additions.  Blocks are visited in bit-reversed order of their
high bits, so consecutive blocks share every row below their lowest differing
bit, and each block is compared with theta straight into the table's signs:
beyond the table, the build holds one row per high bit.  :func:`truth_table`
transposes the table to input bit order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _bits
from .errors import DegenerateLtfError, InvalidInputError, check_cap, check_int, check_range
from .fncore import DEFAULT_ARITY_CAP, MAX_ARITY_CAP, BooleanFunction

INFINITE_INDEX = math.inf

# Sorted positions per block of the linear form; a block row is 512 KiB.
_BLOCK_BITS = 16


@dataclass(frozen=True, eq=False)
class Ltf:
    """Canonical threshold function.

    ``weights[p]`` is the weight at sorted position p (0-based internally) and
    ``original_index[p]`` the 0-based input coordinate it came from.
    ``n_inputs`` is the arity of the original weight vector, including dropped
    zero-weight coordinates.  Construction checks the invariants every table
    relies on: finite weights of non-increasing magnitude (an active weight
    may have underflowed to zero), a finite theta, one original coordinate
    per weight, and ``original_index`` with ``dropped`` exactly the
    coordinates ``range(n_inputs)``.
    """

    weights: np.ndarray
    theta: float
    original_index: np.ndarray
    dropped: tuple[int, ...]
    n_inputs: int

    def __post_init__(self) -> None:
        weights, theta = _finite(self.weights, self.theta)
        index = np.asarray(self.original_index)
        if index.dtype.kind not in "iu" or index.shape != weights.shape:
            raise InvalidInputError("original_index must hold one int coordinate per weight")
        index = index.astype(np.int64)
        magnitudes = np.abs(weights)
        if np.any(magnitudes[1:] > magnitudes[:-1]):
            raise InvalidInputError("weights must be sorted by non-increasing magnitude")
        n = check_int("n_inputs", self.n_inputs, 1)
        dropped = tuple(check_int("dropped coordinate", j) for j in self.dropped)
        coords = np.sort(np.concatenate([index, np.array(dropped, dtype=np.int64)]))
        if not np.array_equal(coords, np.arange(n)):
            raise InvalidInputError(
                "original_index and dropped must hold each of range(n_inputs) once")
        object.__setattr__(self, "weights", _bits.read_only(np.array(weights)))
        object.__setattr__(self, "original_index", _bits.read_only(index))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "dropped", dropped)
        object.__setattr__(self, "n_inputs", n)

    @property
    def n_active(self) -> int:
        """Number of nonzero-weight coordinates."""
        return self.weights.size

    def __call__(self, x: np.ndarray) -> np.ndarray | int:
        """Evaluate at one +-1 point (1-D) or a stack of points (2-D)."""
        rows, single = _bits.sign_points(x, self.n_inputs)
        out = np.where(linear_form(self, rows) - self.theta >= 0.0, 1, -1).astype(np.int8)
        return int(out[0]) if single else out


@dataclass(frozen=True, eq=False)
class RegularityProfile:
    """Tail norms sigma_k = l2 norm of weights from sorted position k on.

    ``tail_norms[k-1]`` holds sigma_k for k = 1..n_active; ``tau_star`` is the
    smallest tau at which the whole vector is tau-regular, |w_1| / sigma_1.
    """

    tail_norms: np.ndarray
    tau_star: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tail_norms",
                           _bits.read_only(np.array(self.tail_norms, dtype=np.float64)))


def _finite(weights, theta) -> tuple[np.ndarray, float]:
    # A nonempty 1-D float64 weight vector and a float theta, all finite.
    w = _bits.reals("weights", weights)
    if w.ndim != 1 or w.size == 0:
        raise InvalidInputError("weights must be a nonempty 1-D array")
    if not np.all(np.isfinite(w)):
        raise InvalidInputError("weights must be finite")
    return w, check_range("theta", theta, -math.inf, math.inf, open_lo=True, open_hi=True)


def canonicalize(weights, theta: float) -> Ltf:
    """Canonical form of sign(w . x - theta); see the module docstring."""
    w, theta = _finite(weights, theta)
    nonzero = np.flatnonzero(w != 0.0)
    if nonzero.size == 0:
        raise DegenerateLtfError("all weights are zero")
    dropped = tuple(int(j) for j in np.flatnonzero(w == 0.0))
    wa = w[nonzero]
    # Primary key |w| descending, tie key original coordinate ascending.
    order = np.lexsort((nonzero, -np.abs(wa)))
    # Norm of the weights rescaled by an exact power of two: it cannot overflow
    # or underflow, and w / ||w|| keeps every bit where ||w|| is representable.
    exponent = -math.frexp(float(wa[order[0]]))[1]
    scaled = np.ldexp(wa[order], exponent)
    norm = float(np.linalg.norm(scaled))
    try:
        theta = math.ldexp(theta, exponent) / norm
    except OverflowError:
        theta = math.inf
    if not math.isfinite(theta):
        raise InvalidInputError("theta is out of range of the weights: canonical theta overflows")
    return Ltf(
        weights=scaled / norm,
        theta=theta,
        original_index=nonzero[order],
        dropped=dropped,
        n_inputs=w.size,
    )


def linear_form(ltf: Ltf, x: np.ndarray) -> np.ndarray:
    """w . x for a (rows, n_inputs) array, in canonical accumulation order."""
    rows = np.atleast_2d(np.asarray(x))
    if rows.ndim != 2 or rows.shape[1] != ltf.n_inputs:
        raise InvalidInputError(
            f"points must be a (rows, {ltf.n_inputs}) array, got shape {np.shape(x)}")
    acc = np.zeros(rows.shape[0])
    for p in range(ltf.weights.size):
        acc += ltf.weights[p] * rows[:, ltf.original_index[p]]
    return acc


def truth_table(ltf: Ltf, cap: int = DEFAULT_ARITY_CAP) -> BooleanFunction:
    """Dense table over all n_inputs variables (dropped coordinates ignored)."""
    n = ltf.n_inputs
    by_position = canonical_table(ltf, cap).values.reshape((2,) * n)  # checks the cap first
    values = np.empty(1 << n, dtype=np.int8)
    # Canonical bit p is input bit [*original_index, *dropped][p].
    _bits.head_cube(values, [*ltf.original_index, *ltf.dropped], n)[...] = by_position
    return _bits.adopt(BooleanFunction, arity=n, values=values)


def canonical_table(ltf: Ltf, cap: int = DEFAULT_ARITY_CAP) -> BooleanFunction:
    """Dense table whose row bit p is sorted position p (0-based).

    The dropped coordinates take the top bits in ascending order, and the
    table ignores them: :func:`truth_table` with its variables renamed.
    """
    check_cap("arity", ltf.n_inputs, check_int("cap", cap, 0, MAX_ARITY_CAP))
    signs = np.empty(1 << ltf.n_inputs, dtype=np.int8)
    # For finite doubles a - b >= 0 exactly when a >= b: a difference is zero
    # only when a == b.  The signs are written in place over the comparison.
    for lo, row in _linear_form_blocks(ltf):
        block = signs[lo:lo + row.size]
        np.greater_equal(row, ltf.theta, out=block.view(np.bool_))
        block *= 2
        block -= 1
    signs.reshape(-1, 1 << ltf.n_active)[1:] = signs[:1 << ltf.n_active]
    return _bits.adopt(BooleanFunction, arity=ltf.n_inputs, values=signs)


def canonical_linear_form(ltf: Ltf, cap: int = DEFAULT_ARITY_CAP) -> np.ndarray:
    """w . x over the active coordinates, indexed by sorted position.

    Bit p of the index set means the coordinate at position p is -1, as in
    :func:`canonical_table`, and every entry is 0 +- w_0 +- w_1 ... summed
    left to right, exactly as :func:`linear_form` does.
    """
    check_cap("arity", ltf.n_inputs, check_int("cap", cap, 0, MAX_ARITY_CAP))
    acc = np.empty(1 << ltf.n_active)
    for lo, row in _linear_form_blocks(ltf):
        acc[lo:lo + row.size] = row
    return acc


def _linear_form_blocks(ltf: Ltf):
    # Yields (lo, row): row holds the linear form at entries lo, lo + 1, ...
    # of canonical_linear_form, one block of 2**16 (or all 2**n_active) at a
    # time; see the module docstring.  Each row is overwritten after its yield.
    w = ltf.weights
    low = min(w.size, _BLOCK_BITS)
    high = w.size - low
    rows = np.empty((high + 1, 1 << low))
    first = rows[0]
    first[0] = 0.0
    s = 1
    for x in w[:low]:  # doubling: bit p of the index set subtracts w_p
        np.subtract(first[:s], x, out=first[s:2 * s])
        np.add(first[:s], x, out=first[:s])
        s *= 2
    prev = 1  # differs from block 0 in bit 0, so block 0 fills every row
    for c in range(1 << high):
        b = int(format(c, f"0{high}b")[::-1], 2)
        diff, prev = b ^ prev, b
        for i in range((diff & -diff).bit_length() - 1, high):
            (np.subtract if b >> i & 1 else np.add)(rows[i], w[low + i], out=rows[i + 1])
        yield b << low, rows[high]


def regularity_profile(ltf: Ltf) -> RegularityProfile:
    """Tail norms and tau* of the canonical weight vector."""
    w = ltf.weights
    tail = np.sqrt(np.cumsum((w * w)[::-1])[::-1])
    return RegularityProfile(tail_norms=tail, tau_star=float(np.abs(w[0]) / tail[0]))


def critical_index(ltf: Ltf, tau: float) -> int | float:
    """Smallest 1-based position i with |w_i| <= tau * sigma_i, else INFINITE_INDEX.

    Compared on squares, so the result is exact whenever the defining
    inequality is not a floating-point knife edge.
    """
    tau = check_range("tau", tau, 0, 1, open_lo=True)
    sq = ltf.weights * ltf.weights
    tail_sq = np.cumsum(sq[::-1])[::-1]
    hits = np.flatnonzero(sq <= tau * tau * tail_sq)
    if hits.size == 0:
        return INFINITE_INDEX
    return int(hits[0]) + 1


def head_mask(ltf: Ltf, size: int) -> int:
    """Bitmask of the input coordinates at sorted positions 1..size."""
    check_int("size", size, 0, ltf.n_active)
    mask = 0
    for coord in ltf.original_index[:size]:
        mask |= 1 << int(coord)
    return mask


def random_ltf(
    n: int,
    family: str,
    *,
    rate: float | None = None,
    theta_law: str = "zero",
    seed=0,
) -> Ltf:
    """Seeded instance from a named weight family, already canonicalized.

    Families: 'equal' (all-ones weights), 'gaussian' (iid standard normal),
    'geometric' (w_i = rate**i, rate in (0, 1) required).  Theta laws: 'zero',
    'fixed:<v>', and 'gaussian:<scale>', which draws the canonical threshold
    as scale * N(0, 1) after the weights, so instances with the same seed
    share weights across theta laws.
    """
    check_int("n", n, 1)
    if family not in ("equal", "gaussian", "geometric"):
        raise InvalidInputError(f"unknown family {family!r}; expected equal, gaussian or geometric")
    if family == "geometric":
        if rate is None:
            raise InvalidInputError(f"family {family!r} needs a rate")
        rate = check_range("rate", rate, 0, 1, open_lo=True, open_hi=True)
    elif rate is not None:
        raise InvalidInputError(f"family {family!r} takes no rate")
    if not isinstance(theta_law, str):
        raise InvalidInputError(f"theta law must be a string, got {theta_law!r}")
    kind, sep, raw = theta_law.partition(":")
    if theta_law == "zero":
        value = 0.0
    elif kind in ("fixed", "gaussian") and sep:
        fixed = kind == "fixed"  # a gaussian scale is nonnegative
        value = check_range(f"value of theta law {theta_law!r}", raw, -math.inf if fixed else 0,
                            math.inf, open_lo=fixed, open_hi=True)
    else:
        raise InvalidInputError(f"unknown theta law {theta_law!r}; "
                                "expected 'zero', 'fixed:<v>' or 'gaussian:<scale>'")
    rng = _bits.rng(seed)
    if family == "equal":
        weights = np.ones(n)
    elif family == "gaussian":
        weights = rng.standard_normal(n)
    else:
        weights = rate ** np.arange(1, n + 1, dtype=np.float64)
    if kind == "gaussian":  # the golden theta column depends on this order of products
        value = value * rng.standard_normal() * float(np.linalg.norm(weights))
    return canonicalize(weights, value)


def save_ltf_file(path, weights, theta: float) -> None:
    """Write a weights/theta document readable by :func:`load_ltf_file`.

    Weights and theta must be finite: JSON has no NaN or infinity.
    """
    weights, theta = _finite(weights, theta)
    doc = {"weights": [float(v) for v in weights], "theta": theta}
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_ltf_file(path) -> Ltf:
    """Read a weights/theta document and return its canonical form."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        # Bad JSON or bytes and over-long ints are ValueErrors; deep nesting a RecursionError.
        except (ValueError, RecursionError) as exc:
            raise InvalidInputError(f"not a well-formed ASCII document: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidInputError("document must be an object with 'weights' and 'theta'")
    if "weights" not in doc:
        raise InvalidInputError("missing field 'weights'")
    if "theta" not in doc:
        raise InvalidInputError("missing field 'theta'")
    weights = doc["weights"]
    if not isinstance(weights, list) or not weights or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in weights
    ):
        raise InvalidInputError("field 'weights' must be a nonempty array of reals")
    theta = doc["theta"]
    if not isinstance(theta, (int, float)) or isinstance(theta, bool):
        raise InvalidInputError("field 'theta' must be a real")
    try:
        weights, theta = np.asarray(weights, dtype=np.float64), float(theta)
    except OverflowError:  # an integer literal beyond the float64 range
        raise InvalidInputError("a weight or theta is outside the float64 range") from None
    return canonicalize(weights, theta)
