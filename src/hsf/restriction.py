"""Restrictions of truth tables and the identities they must satisfy.

A restriction fixes the variables of a head set H (a bitmask) to +-1 values
and leaves a function of the remaining variables in ascending original order.
Assignments go by a packed index: bit j refers to the j-th smallest head
coordinate, and a set bit fixes it to -1, as in a row index.  Row a of the
head cube (``_bits.head_cube``) is the restriction to assignment a.

Two exact identities connect a function to its restrictions and are exposed as
checks: squared Fourier coefficients of restrictions average to coefficient
mass of the parent (over subsets attached to the head), and noise sensitivity
can only shrink on average under restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _bits
from .errors import InvalidInputError, check_int, check_range
from .fncore import BooleanFunction, block_degree_weights, wht
from .noise import CHECK_TOL, ns_exact, ns_rows


def _check_head(head: int, arity: int) -> list[int]:
    return _bits.bit_positions(check_int("head", head, 0, (1 << arity) - 1))


@dataclass(frozen=True)
class RestrictionEnergy:
    """Average restricted coefficient mass against parent coefficient mass."""

    lhs: float
    rhs: float
    gap: float


@dataclass(frozen=True)
class ThresholdCorollary:
    """Consequence of many restrictions being noise sensitive at once."""

    frac_exceeding: float
    fires: bool
    implied_bound: float
    holds: bool


@dataclass(frozen=True, eq=False)
class NsAggregation:
    """Noise sensitivity of a function against the mean over restrictions."""

    ns_value: float
    restricted_mean: float
    restricted: np.ndarray
    holds: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "restricted",
                           _bits.read_only(np.array(self.restricted, dtype=np.float64)))

    def threshold_corollary(self, t: float, delta: float) -> ThresholdCorollary:
        """If more than a delta fraction of restrictions exceed t, the parent
        noise sensitivity must be at least t * delta."""
        t = check_range("t", t, 0, math.inf)
        delta = check_range("delta", delta, 0, 1, open_lo=True, open_hi=True)
        frac = float(np.count_nonzero(self.restricted > t)) / self.restricted.size
        fires = frac > delta
        implied = t * delta if fires else 0.0
        holds = (not fires) or self.ns_value >= implied - CHECK_TOL
        return ThresholdCorollary(
            frac_exceeding=frac, fires=fires, implied_bound=implied, holds=holds
        )


def bias_profile(f: BooleanFunction, head: int) -> np.ndarray:
    """E[f] conditioned on every head assignment, by packed index (read-only)."""
    head_pos = _check_head(head, f.arity)
    sums = _bits.head_sums(f.values, head_pos, f.arity)
    return _bits.read_only(sums / (1 << (f.arity - len(head_pos))))


def restriction_energy_identity(
    f: BooleanFunction, head: int, subset: int
) -> RestrictionEnergy:
    """Average of squared restricted coefficients at a fixed tail subset.

    Both sides of the exact identity are computed by separate routes: the left
    from each assignment's restricted table (a row of the head cube), as its
    exact integer product with the parity at ``subset`` over 2**(n-h); the
    right by summing the parent's squared coefficients over all head subsets
    attached to ``subset``.  Keep the routes independent; their agreement is
    the point.
    """
    head_pos = _check_head(head, f.arity)
    subset = check_int("subset", subset, 0, (1 << f.arity) - 1)
    if head & subset:
        raise InvalidInputError(
            f"subset {subset:#x} must be disjoint from head {head:#x}"
        )
    rem_pos = [j for j in range(f.arity) if not (head >> j) & 1]
    packed_subset = sum(((subset >> c) & 1) << j for j, c in enumerate(rem_pos))
    h, m = len(head_pos), len(rem_pos)
    rows = _bits.head_cube(f.values, head_pos, f.arity).reshape(1 << h, 1 << m)
    parity = np.where(_bits.popcounts(m)[np.arange(1 << m) & packed_subset] & 1, -1, 1)
    coeffs = (rows @ parity / (1 << m)).tolist()  # each restriction's coefficient, exact
    lhs = sum(c * c for c in coeffs) / (1 << h)  # summed in assignment order
    parent = wht(f).coefficients
    attached = np.asarray(subset | _bits.submasks(head))
    rhs = float(np.sum(np.square(parent[attached], dtype=np.float64)))  # float32 squares round
    return RestrictionEnergy(lhs=lhs, rhs=rhs, gap=abs(lhs - rhs))


def ns_aggregation_check(f: BooleanFunction, head: int, epsilon: float) -> NsAggregation:
    """Noise sensitivity of f against its mean over head restrictions.

    Restricting can only lower noise sensitivity on average; the result also
    carries the per-assignment values for threshold corollaries.
    """
    epsilon = check_range("epsilon", epsilon, 0, 1)
    restricted = ns_rows(block_degree_weights(f, head), epsilon)  # checks the head first
    ns_value = ns_exact(wht(f), epsilon)
    restricted_mean = float(np.mean(restricted))
    return NsAggregation(
        ns_value=ns_value,
        restricted_mean=restricted_mean,
        restricted=restricted,
        holds=ns_value >= restricted_mean - CHECK_TOL,
    )
