"""Noise sensitivity, Gaussian surrogates, and the checks built on them.

Noise sensitivity at rate eps is the probability that f disagrees at a uniform
point and its eps-correlated copy (each coordinate flipped independently with
probability eps).  Three routes are implemented and kept separate on purpose:
the spectral formula (exact, via degree weights), direct summation over flip
patterns (exact, independent of any transform), and Monte Carlo with Hoeffding
error radii at fixed confidence.

The Gaussian side mirrors the Boolean one: correlated pairs (X, rho X +
sqrt(1-rho^2) Z), exact rectangle probabilities for the correlated pair via a
one-dimensional integral, and a closed-form lower-bound certificate for the
noise sensitivity of a threshold sign(X - theta).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _bits, ltf as ltf_mod
from .errors import InvalidInputError, check_cap, check_int, check_range
from .fncore import DEFAULT_ARITY_CAP, BooleanFunction, FourierSpectrum
from .ltf import Ltf

DEFAULT_BRUTEFORCE_CAP = 12

# Two-sided Hoeffding radii at failure probability 1e-6.
MC_FAILURE_PROB = 1e-6

# Slack for exact-arithmetic inequality checks run in floating point.
CHECK_TOL = 1e-12

_MC_CHUNK = 1 << 17
_FLIP_ROWS = 1 << 13  # flip uniforms drawn at once: 1 MiB of float64 at n = 16


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean of a {0,1} quantity with its Hoeffding radius.

    The true value lies within ``radius`` of ``value`` except with probability
    MC_FAILURE_PROB, with no asymptotics involved.
    """

    value: float
    samples: int
    radius: float


@dataclass(frozen=True)
class ConstantBoundCheck:
    """Noise sensitivity against its distance-from-constant lower bound."""

    ns_value: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class TailRatioBand:
    """Extremes of Phi_tail(t) * (t + 1) * exp(t^2 / 2) over a grid."""

    minimum: float
    maximum: float


@dataclass(frozen=True)
class QuadrantComparison:
    """Boolean pair-interval probability against its exact Gaussian twin."""

    boolean: McEstimate
    gaussian: float
    gap: float


def hoeffding_radius(samples: int) -> float:
    """Two-sided Hoeffding radius for a mean of ``samples`` {0,1} draws."""
    samples = check_int("samples", samples, 1, sys.float_info.max / 2)  # 2.0 * samples is finite
    return math.sqrt(math.log(2.0 / MC_FAILURE_PROB) / (2.0 * samples))


def _mc_estimate(samples: int, seed, hits) -> McEstimate:
    # Mean of the boolean arrays hits(rng, m) over ``samples`` draws: one
    # generator, _MC_CHUNK draws a chunk, so a seed fixes the estimate.  Each
    # chunk's hit array is freed once counted: keeping it alive until the next
    # exists, against glibc heap trimming, faulted more pages, not fewer (fresh
    # `hsf gaussian --samples 2000000`: 6,310 against 6,050, and 1 MiB more
    # peak RSS; a library process without the command's heap thresholds:
    # 6,943 against 6,674).
    radius = hoeffding_radius(samples)
    rng = _bits.rng(seed)
    total = 0
    for done in range(0, samples, _MC_CHUNK):
        total += int(np.count_nonzero(hits(rng, min(_MC_CHUNK, samples - done))))
    return McEstimate(value=total / samples, samples=samples, radius=radius)


def _flipped_pair(rng, m: int, n: int, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    # m uniform +-1 points and copies with each coordinate flipped w.p. eps; the
    # flip uniforms come in row blocks, in the stream order of one (m, n) draw.
    x = 1 - 2 * rng.integers(0, 2, size=(m, n), dtype=np.int8)
    flips = np.empty((m, n), dtype=bool)
    for rows in np.split(flips, range(_FLIP_ROWS, m, _FLIP_ROWS)):
        np.less(rng.random(size=rows.shape), epsilon, out=rows)
    return x, np.where(flips, -x, x)


def ns_exact(spectrum: FourierSpectrum, epsilon: float) -> float:
    """Noise sensitivity from the spectrum: 1/2 - 1/2 sum_d rho^d W_d.

    The degree weights of a +-1 table's spectrum are exact, so the result is
    the same bit for bit whatever the order of the table's coordinates.
    """
    epsilon = check_range("epsilon", epsilon, 0, 1)
    rho = 1.0 - 2.0 * epsilon
    weights = spectrum.degree_weights
    powers = rho ** np.arange(spectrum.arity + 1, dtype=np.float64)
    return 0.5 - 0.5 * float(np.dot(powers, weights))


def ns_bruteforce(f: BooleanFunction, epsilon: float) -> float:
    """Noise sensitivity by direct summation over all flip patterns.

    O(4^n): for every flip mask, counts rows where f changes, then weights the
    per-popcount totals by eps^d (1-eps)^(n-d).  Exists as an independent
    cross-check of :func:`ns_exact`; keep both routes intact.
    """
    epsilon = check_range("epsilon", epsilon, 0, 1)
    n = check_cap("arity", f.arity, DEFAULT_BRUTEFORCE_CAP, "brute-force cap")
    size = 1 << n
    idx = np.arange(size)
    disagreements = np.zeros(n + 1)
    for mask in range(size):
        d = mask.bit_count()
        disagreements[d] += np.count_nonzero(f.values != f.values[idx ^ mask])
    total = 0.0
    for d in range(n + 1):
        total += epsilon**d * (1.0 - epsilon) ** (n - d) * disagreements[d]
    return total / size


def _fn_arity(f) -> int:
    if isinstance(f, BooleanFunction):
        return f.arity
    if isinstance(f, Ltf):
        return f.n_inputs
    raise InvalidInputError(f"expected a BooleanFunction or Ltf, got {type(f).__name__}")


def ns_mc(f, epsilon: float, samples: int, seed) -> McEstimate:
    """Monte Carlo noise sensitivity of a truth table or threshold function.

    Sampling is chunked at a fixed size, so a given seed yields the same
    estimate regardless of platform or total sample count split.
    """
    epsilon = check_range("epsilon", epsilon, 0, 1)
    n = _fn_arity(f)

    def hits(rng, m):
        x, y = _flipped_pair(rng, m, n, epsilon)
        return f(x) != f(y)

    return _mc_estimate(samples, seed, hits)


def gaussian_tail(theta):
    """Upper tail P[N(0,1) >= theta], accurate to ~1e-15 relative."""
    from scipy import special  # loaded on first use: ~0.4 s that most commands never need
    t = _bits.reals("theta", theta)
    out = 0.5 * special.erfc(t / math.sqrt(2.0))
    return float(out) if t.ndim == 0 else out


def gaussian_cdf(t):
    """P[N(0,1) <= t]."""
    return gaussian_tail(-_bits.reals("t", t))


def tail_ratio(theta):
    """Phi_tail(t) * (t + 1) * exp(t^2 / 2), the bounded tail-shape ratio."""
    t = _bits.reals("theta", theta)
    if not np.all(np.isfinite(t)) or np.any(t < 0):
        raise InvalidInputError("theta values must be finite and nonnegative")
    if np.any(t > 37.0):
        raise InvalidInputError("theta values above 37 overflow the exp factor")
    out = gaussian_tail(t) * (t + 1.0) * np.exp(t * t / 2.0)
    return float(out) if np.ndim(theta) == 0 else out


def tail_ratio_check(theta_grid) -> TailRatioBand:
    """Extremes of the tail-shape ratio over a nonempty grid of t >= 0."""
    grid = _bits.reals("theta grid", theta_grid)
    if grid.size == 0:
        raise InvalidInputError("theta grid must be nonempty")
    values = tail_ratio(grid)
    values = np.atleast_1d(values)
    return TailRatioBand(minimum=float(values.min()), maximum=float(values.max()))


def gaussian_ns_bound(theta: float, epsilon: float) -> float:
    """Closed-form lower bound on Gaussian threshold noise sensitivity.

    For the pair (X, rho X + sqrt(1-rho^2) Z) with rho = 1 - 2 eps, the
    disagreement probability of sign(. - theta) is at least
    arccos(rho)/pi * exp(-theta^2 / (1 + rho)).
    """
    epsilon = check_range("epsilon", epsilon, 0, 0.5)
    theta = check_range("theta", theta, -math.inf, math.inf, open_lo=True, open_hi=True)
    rho = 1.0 - 2.0 * epsilon
    return math.acos(rho) / math.pi * math.exp(-theta * theta / (1.0 + rho))


def gaussian_ns_mc(theta: float, rho: float, samples: int, seed) -> McEstimate:
    """Monte Carlo disagreement probability of sign(. - theta) on a rho-pair."""
    rho = check_range("rho", rho, -1, 1)
    theta = check_range("theta", theta, -math.inf, math.inf, open_lo=True, open_hi=True)
    comp = math.sqrt(max(0.0, 1.0 - rho * rho))

    def hits(rng, m):
        x, z = rng.standard_normal(size=(2, m))
        return (x - theta >= 0.0) != (rho * x + comp * z - theta >= 0.0)

    return _mc_estimate(samples, seed, hits)


def _interval(bounds) -> tuple[float, float]:
    try:
        lo, hi = bounds
    except (TypeError, ValueError):
        raise InvalidInputError(f"interval must be a (lo, hi) pair, got {bounds!r}") from None
    lo = check_range("interval lo", lo, -math.inf, math.inf)
    return lo, check_range("interval hi", hi, lo, math.inf)


def _bvn_cdf(h: float, k: float, rho: float) -> float:
    # P[X <= h, Y <= k] for a standard rho-correlated pair.  The correlation
    # integral is taken in the angle variable, which removes the endpoint
    # singularity at |rho| = 1.
    if h == -math.inf or k == -math.inf:
        return 0.0
    if h == math.inf and k == math.inf:
        return 1.0
    if h == math.inf:
        return gaussian_cdf(k)
    if k == math.inf:
        return gaussian_cdf(h)
    if rho == 1.0:
        return gaussian_cdf(min(h, k))
    if rho == -1.0:
        return max(0.0, gaussian_cdf(h) + gaussian_cdf(k) - 1.0)

    def integrand(u: float) -> float:
        s = math.sin(u)
        c2 = math.cos(u) ** 2
        return math.exp(-(h * h - 2.0 * s * h * k + k * k) / (2.0 * c2))

    from scipy import integrate  # loaded on first use: ~0.4 s that most commands never need
    val, _ = integrate.quad(
        integrand, 0.0, math.asin(rho), epsabs=1e-14, epsrel=1e-13, limit=200
    )
    return gaussian_cdf(h) * gaussian_cdf(k) + val / (2.0 * math.pi)


def bivariate_rectangle(interval1, interval2, rho: float) -> float:
    """P[X in I1, Y in I2] for a standard rho-correlated Gaussian pair.

    Exact up to quadrature error (~1e-13 absolute); intervals are closed and
    may use +-inf endpoints.
    """
    rho = check_range("rho", rho, -1, 1)
    a1, b1 = _interval(interval1)
    a2, b2 = _interval(interval2)
    value = (
        _bvn_cdf(b1, b2, rho)
        - _bvn_cdf(a1, b2, rho)
        - _bvn_cdf(b1, a2, rho)
        + _bvn_cdf(a1, a2, rho)
    )
    return min(1.0, max(0.0, value))


def gaussian_disagreement(theta: float, rho: float) -> float:
    """Exact P[sign(X - theta) != sign(Y - theta)] for a rho-correlated pair."""
    rho = check_range("rho", rho, -1, 1)
    theta = check_range("theta", theta, -math.inf, math.inf)
    upper = bivariate_rectangle((theta, math.inf), (theta, math.inf), rho)
    return max(0.0, 2.0 * (gaussian_tail(theta) - upper))


def constant_bound_check(spectrum: FourierSpectrum, epsilon: float) -> ConstantBoundCheck:
    """Verify NS_eps(f) >= eps * (1 - E[f]^2), the distance-from-constant bound."""
    epsilon = check_range("epsilon", epsilon, 0, 0.5)
    ns_value = ns_exact(spectrum, epsilon)
    mean = float(spectrum.coefficients[0])
    bound = epsilon * (1.0 - mean * mean)
    return ConstantBoundCheck(ns_value=ns_value, bound=bound, holds=ns_value >= bound - CHECK_TOL)


def regular_cdf_gap(ltf: Ltf, t_grid=None, cap: int = DEFAULT_ARITY_CAP) -> float:
    """Sup gap between the CDF of w . x and the standard normal CDF.

    With no grid the sup is exact: both one-sided gaps are evaluated at every
    jump of the discrete CDF.  With a grid, the max of |F(t) - Phi(t)| over the
    grid points is returned instead.
    """
    values = ltf_mod.canonical_linear_form(ltf, cap=cap)
    size = values.size
    if t_grid is not None:
        grid = _bits.reals("t grid", t_grid)
        if grid.size == 0:
            raise InvalidInputError("t grid must be nonempty")
        if np.isnan(grid).any():
            raise InvalidInputError("t grid must not contain NaN")
        ecdf = np.searchsorted(np.sort(values), grid, side="right") / size
        return float(np.max(np.abs(ecdf - gaussian_cdf(grid))))
    uniq, counts = np.unique(values, return_counts=True)
    after = np.cumsum(counts) / size
    before = after - counts / size
    phi = gaussian_cdf(uniq)
    return float(max(np.max(np.abs(after - phi)), np.max(np.abs(before - phi))))


def boolean_pair_quadrant_mc(
    ltf: Ltf, interval1, interval2, epsilon: float, samples: int, seed
) -> QuadrantComparison:
    """Joint interval membership of (w . x, w . y) versus its Gaussian twin.

    x is uniform, y an eps-flipped copy; the Gaussian side is the exact
    rectangle probability at correlation rho = 1 - 2 eps.
    """
    epsilon = check_range("epsilon", epsilon, 0, 1)
    a1, b1 = _interval(interval1)
    a2, b2 = _interval(interval2)

    def hits(rng, m):
        x, y = _flipped_pair(rng, m, ltf.n_inputs, epsilon)
        sx, sy = ltf_mod.linear_form(ltf, x), ltf_mod.linear_form(ltf, y)
        return (sx >= a1) & (sx <= b1) & (sy >= a2) & (sy <= b2)

    boolean = _mc_estimate(samples, seed, hits)
    gaussian = bivariate_rectangle((a1, b1), (a2, b2), 1.0 - 2.0 * epsilon)
    return QuadrantComparison(
        boolean=boolean, gaussian=gaussian, gap=abs(boolean.value - gaussian)
    )
