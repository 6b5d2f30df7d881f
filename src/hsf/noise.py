"""Noise sensitivity, Gaussian surrogates, and the checks built on them.

Noise sensitivity at rate eps is the probability that f disagrees at a uniform
point and its eps-correlated copy (each coordinate flipped independently with
probability eps).  Three routes are implemented and kept separate on purpose:
the spectral formula (exact, via degree weights), direct summation over flip
patterns (exact, independent of any transform), and Monte Carlo with Hoeffding
error radii at fixed confidence.

The Gaussian side mirrors the Boolean one: correlated pairs (X, rho X +
sqrt(1-rho^2) Z), exact rectangle probabilities for the correlated pair, and a
closed-form lower-bound certificate for the noise sensitivity of a threshold
sign(X - theta).  The rectangles come from the bivariate normal CDF by one
20-point Gauss-Legendre rule in pure Python: on the angle integral below
|rho| = 0.925, and on Genz's (2004, Stat. Comput. 14) high-correlation form of
the Drezner-Wesolowsky (1990) integral above it.  The univariate normal tail
is Cephes' erfc (Moshier 1989), ported op for op, so it gives the bits of
scipy.special.erfc without scipy.
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

# Positive nodes of the 20-point Gauss-Legendre rule on [-1, 1] with their
# weights, correctly rounded; the rule is symmetric.  Literals, because
# building them with numpy.polynomial costs every command ~7 ms at import.
_GL_NODES = (
    (0.9931285991850949, 0.017614007139152118),
    (0.9639719272779138, 0.04060142980038694),
    (0.912234428251326, 0.06267204833410907),
    (0.8391169718222188, 0.08327674157670475),
    (0.7463319064601508, 0.10193011981724044),
    (0.636053680726515, 0.11819453196151841),
    (0.5108670019508271, 0.13168863844917664),
    (0.37370608871541955, 0.14209610931838204),
    (0.22778585114164507, 0.14917298647260374),
    (0.07652652113349734, 0.15275338713072584),
)
_GL_WEIGHT_SUM = math.fsum(w for _, w in _GL_NODES for _side in (-1, 1))

# Cephes' ndtr.c erfc tables, highest power first; a leading 1.0 marks a table
# that Cephes evaluates by p1evl, which adds x where polevl multiplies by 1.0,
# the same double.  P/Q serve 1 <= |x| < 8, R/S |x| >= 8, and T/U erf below 1.
_ERFC_MAXLOG = 7.09782712893383996843e2
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERFC_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
           7.00332514112805075473e3, 5.55923013010394962768e4)
_ERFC_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
           2.26290000613890934246e4, 4.92673942608635921086e4)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean of a {0,1} quantity with its Hoeffding radius.

    The true value lies within ``radius`` of ``value`` except with probability
    MC_FAILURE_PROB, with no asymptotics involved.
    """

    value: float
    radius: float


@dataclass(frozen=True)
class ConstantBoundCheck:
    """Noise sensitivity against its distance-from-constant lower bound."""

    ns_value: float
    bound: float
    holds: bool


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
    return McEstimate(value=total / samples, radius=radius)


def _flipped_pair(rng, m: int, n: int, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    # m uniform +-1 points and copies with each coordinate flipped w.p. eps; the
    # flip uniforms come in row blocks, in the stream order of one (m, n) draw.
    x = 1 - 2 * rng.integers(0, 2, size=(m, n), dtype=np.int8)
    flips = np.empty((m, n), dtype=bool)
    for rows in np.split(flips, range(_FLIP_ROWS, m, _FLIP_ROWS)):
        np.less(rng.random(size=rows.shape), epsilon, out=rows)
    return x, np.where(flips, -x, x)


def ns_exact(spectrum: FourierSpectrum, epsilon: float) -> float:
    """Noise sensitivity from the spectrum's degree weights by :func:`ns_rows`: for a
    +-1 table, the same bits whatever the order of the table's coordinates."""
    return float(ns_rows(spectrum.degree_weights[None], epsilon)[0])


def ns_rows(weights: np.ndarray, epsilon: float) -> np.ndarray:
    """1/2 - 1/2 sum_d rho^d W_d for each row of degree weights, one np.dot a
    row: a matrix product may add in another order and move the last bit."""
    epsilon = check_range("epsilon", epsilon, 0, 1)
    powers = (1.0 - 2.0 * epsilon) ** np.arange(weights.shape[1], dtype=np.float64)
    return np.fromiter((0.5 - 0.5 * float(np.dot(powers, w)) for w in weights),
                       dtype=np.float64, count=len(weights))


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


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    # Horner's rule in Cephes' order, one multiply and one add a step.
    y = coef[0]
    for c in coef[1:]:
        y = y * x + c
    return y


def _erfc(x: np.ndarray) -> np.ndarray:
    # Cephes' erfc on a NaN-free float64 array, op for op, so every bit is
    # scipy.special.erfc's: 1 - erf(x) below |x| = 1, exp(-x^2) P/Q or R/S
    # above it, 2 - that for negative x, and the limits 0 and 2 once x^2 >
    # MAXLOG.  exp is libm's, through math.exp, as Cephes calls it: numpy's
    # vectorised exp differs from it in the last bit.
    a = np.minimum(np.abs(x), 27.0)  # past sqrt(MAXLOG) ~ 26.64; keeps x^2 finite
    out = np.where(x < 0.0, 2.0, 0.0)
    inner = a < 1.0
    s = x[inner]
    out[inner] = 1.0 - s * _polevl(s * s, _ERFC_T) / _polevl(s * s, _ERFC_U)
    for tail, num, den in (((a >= 1.0) & (a < 8.0), _ERFC_P, _ERFC_Q),
                           ((a >= 8.0) & (a * a <= _ERFC_MAXLOG), _ERFC_R, _ERFC_S)):
        s = a[tail]
        e = np.fromiter(map(math.exp, (-(s * s)).tolist()), float, s.size)
        y = e * _polevl(s, num) / _polevl(s, den)
        out[tail] = np.where(x[tail] < 0.0, 2.0 - y, y)
    return out


def gaussian_tail(theta):
    """Upper tail P[N(0,1) >= theta].

    Within 2e-14 relative of a 40-digit mpmath tail for theta <= 10, and
    within 3e-13 up to theta = 37.5, on a 4,001-point grid from -8: the
    rounding of theta^2 inside exp(-theta^2 / 2) grows with theta.
    """
    t = _bits.reals("theta", theta)
    if np.isnan(t).any():
        raise InvalidInputError("Gaussian tail and CDF arguments must not be NaN")
    out = 0.5 * _erfc(t / math.sqrt(2.0))
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


def _gl_integral(g, length: float) -> float:
    # Integral of g over [0, length] by the 20-point Gauss-Legendre rule,
    # written as length times a weighted mean, so that g == 1 gives length
    # exactly.
    terms = [w * g(length * (1.0 + side * x) / 2.0)
             for x, w in _GL_NODES for side in (-1.0, 1.0)]
    return length * (math.fsum(terms) / _GL_WEIGHT_SUM)


def _bvn_upper_high(h: float, k: float, rho: float) -> float:
    # P[X >= h, Y >= k] for 0.925 <= |rho| < 1, by Genz's (2004) form of the
    # Drezner-Wesolowsky integral: an expansion in sqrt(1 - rho^2) plus a
    # smooth remainder, where the angle integrand steepens as |rho| -> 1.
    # Terms below exp(-100) are dropped, as in Genz's code.
    if rho < 0.0:
        k = -k
    hk = h * k
    s2 = (1.0 - abs(rho)) * (1.0 + abs(rho))  # 1 - rho^2 without cancellation
    s = math.sqrt(s2)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 80.0
    expansion = 0.0
    exponent = -(bs / s2 + hk) / 2.0
    if exponent > -100.0:
        expansion = s * math.exp(exponent) * (
            1.0 - c * (bs - s2) * (1.0 - d * bs) / 3.0 + c * d * s2 * s2)
    if hk > -100.0:
        b = math.sqrt(bs)
        expansion -= (math.exp(-hk / 2.0) * math.sqrt(2.0 * math.pi) * gaussian_cdf(-b / s)
                      * b * (1.0 - c * bs * (1.0 - d * bs) / 3.0))

    def remainder(x: float) -> float:
        xs = x * x
        exponent = -(bs / xs + hk) / 2.0
        if exponent <= -100.0:
            return 0.0
        rs = math.sqrt(1.0 - xs)
        return math.exp(exponent) * (
            1.0 + c * xs * (1.0 + 5.0 * d * xs) - math.exp(-hk / 2.0 * xs / (1.0 + rs) ** 2) / rs)

    value = (_gl_integral(remainder, s) - expansion) / (2.0 * math.pi)
    if rho > 0.0:
        return value + gaussian_tail(max(h, k))
    if h >= k:
        return -value
    between = gaussian_cdf(k) - gaussian_cdf(h) if h < 0.0 else gaussian_tail(h) - gaussian_tail(k)
    return between - value


def _bvn_cdf(h: float, k: float, rho: float) -> float:
    # P[X <= h, Y <= k] for a standard rho-correlated pair.  Below |rho| =
    # 0.925 the correlation integral is taken in the angle variable; above it,
    # by Genz's form for P[-X >= -h, -Y >= -k].
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
    # Beyond +-40 a marginal tail is below the smallest double, so clipping
    # changes no result and keeps every square and exponential finite.
    h, k = min(max(h, -40.0), 40.0), min(max(k, -40.0), 40.0)
    if abs(rho) >= 0.925:
        return _bvn_upper_high(-h, -k, rho)

    def integrand(u: float) -> float:
        s = math.sin(u)
        c2 = math.cos(u) ** 2
        return math.exp(-(h * h - 2.0 * s * h * k + k * k) / (2.0 * c2))

    val = _gl_integral(integrand, math.asin(rho))
    return gaussian_cdf(h) * gaussian_cdf(k) + val / (2.0 * math.pi)


def bivariate_rectangle(interval1, interval2, rho: float) -> float:
    """P[X in I1, Y in I2] for a standard rho-correlated Gaussian pair.

    Exact up to quadrature error: within 1e-14 absolute of a 40-digit mpmath
    integral up to |rho| = 1 - 1e-12.  Intervals are closed and may use +-inf
    endpoints.
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
    """Verify NS_eps(f) >= eps * (1 - E[f]^2), where E[f]^2 is the degree-0 weight W_0."""
    epsilon = check_range("epsilon", epsilon, 0, 0.5)
    ns_value = ns_exact(spectrum, epsilon)
    bound = epsilon * (1.0 - float(spectrum.degree_weights[0]))
    return ConstantBoundCheck(ns_value=ns_value, bound=bound, holds=ns_value >= bound - CHECK_TOL)


def regular_cdf_gap(ltf: Ltf, cap: int = DEFAULT_ARITY_CAP) -> float:
    """Exact sup gap between the CDF of w . x and the standard normal CDF.

    Both one-sided gaps, |F(v) - Phi(v)| and |F(v-) - Phi(v)|, are evaluated
    at every jump v of the discrete CDF, where the sup is attained.
    """
    values = ltf_mod.canonical_linear_form(ltf, cap=cap)
    size = values.size
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
