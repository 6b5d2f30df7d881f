"""Independent slow-route oracles and shared frozen calibration values.

Everything here deliberately avoids the fast code paths it is used to check:
the spectrum oracle is the quadratic-time inner-product definition, majority
tables come straight from popcounts, the support of a table is read by
flipping one variable at a time, the Gaussian tail references go through mpmath
at high precision, and the CDF gap is counted at every value of w . x over
the input-order cube against mpmath's normal CDF.  The per-instance kernels
(Walsh-Hadamard butterfly, linear-form table, popcounts, degree weights,
restriction, bias profiles) are kept here in their original float64,
blockwise and bit-loop forms, which the fast kernels must match byte for
byte; the degree weights of arbitrary real spectra are held to one
correctly rounded math.fsum per degree instead.
The bit-loop junta lift and table comparison are the oracle of the distances
extractions report, and the verdict rule that rebuilt each case's bound from
delta is the oracle of the verdicts.
"""

import math

import mpmath
import numpy as np

from hsf import linear_form

# Extremes of tail(t) * (t + 1) * exp(t^2 / 2) over linspace(0, 10, 1001),
# frozen from a calibration run and cross-checked against mpmath below.
TAIL_RATIO_BAND_MIN = 0.43457363511524927
TAIL_RATIO_BAND_MAX = 0.5255467141339553


def slow_spectrum(values: np.ndarray) -> np.ndarray:
    """Quadratic-time Fourier coefficients straight from the definition."""
    size = len(values)
    out = np.zeros(size)
    for s in range(size):
        acc = 0.0
        for x in range(size):
            sign = -1.0 if (x & s).bit_count() % 2 else 1.0
            acc += sign * float(values[x])
        out[s] = acc / size
    return out


def slow_butterfly(table: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform in float64, one copied half per pass."""
    a = np.asarray(table).astype(np.float64)
    h = 1
    while h < a.size:
        a = a.reshape(-1, 2 * h)
        left = a[:, :h].copy()
        a[:, :h] = left + a[:, h:]
        a[:, h:] = left - a[:, h:]
        h *= 2
    return a.reshape(-1)


def is_junta_on(f, variables: int) -> bool:
    """True when f's table is unchanged by flipping any variable outside ``variables``."""
    idx = np.arange(f.values.size)
    return all(np.array_equal(f.values, f.values[idx ^ (1 << j)])
               for j in range(f.arity) if not (variables >> j) & 1)


def majority_values(n: int) -> np.ndarray:
    """Majority truth table from popcounts alone (ties broken toward +1)."""
    k = np.arange(1 << n)
    popcounts = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):
        popcounts += (k >> j) & 1
    return np.where(n - 2 * popcounts >= 0, 1, -1).astype(np.int8)


def parity_values(n: int, subset: int) -> np.ndarray:
    """Truth table of the parity over the coordinates in ``subset``."""
    k = np.arange(1 << n)
    acc = np.zeros(1 << n, dtype=np.int64)
    for j in range(n):
        if (subset >> j) & 1:
            acc += (k >> j) & 1
    return np.where(acc % 2 == 0, 1, -1).astype(np.int8)


def point_of_row(n: int, row: int) -> np.ndarray:
    """The +-1 point encoded by a table row (set bit means -1)."""
    return np.array([-1 if (row >> j) & 1 else 1 for j in range(n)], dtype=np.int64)


def mp_gaussian_tail(t: float) -> float:
    """P[N(0,1) >= t] at 40 significant digits, rounded to a double."""
    with mpmath.workdps(40):
        return float(mpmath.ncdf(-mpmath.mpf(t)))


def mp_tail_ratio(t: float) -> float:
    """tail(t) * (t + 1) * exp(t^2 / 2) at 40 significant digits."""
    with mpmath.workdps(40):
        tt = mpmath.mpf(t)
        value = mpmath.ncdf(-tt) * (tt + 1) * mpmath.exp(tt * tt / 2)
        return float(value)


def mp_bvn_cdf(h: float, k: float, rho: float) -> float:
    """P[X <= h, Y <= k] for a standard rho-correlated pair, at 40 digits.

    The integral of phi(x) * Phi((k - rho x) / sqrt(1 - rho^2)) over x <= h,
    split at x = k / rho, where the inner CDF steps from 0 to 1 over a width
    of sqrt(1 - rho^2): without the split, the quadrature misses that step by
    1e-3 at rho = 1 - 1e-12.  Finite h and k, |rho| < 1.
    """
    with mpmath.workdps(40):
        h, k, rho = mpmath.mpf(h), mpmath.mpf(k), mpmath.mpf(rho)
        scale = mpmath.sqrt((1 - rho) * (1 + rho))

        def integrand(x):
            return mpmath.npdf(x) * mpmath.ncdf((k - rho * x) / scale)

        points = [-mpmath.inf, h]
        if rho != 0 and k / rho < h:
            points.insert(1, k / rho)
        return float(mpmath.quad(integrand, points))


def slow_cdf_gap(ltf) -> float:
    """sup |F(t) - Phi(t)| for the CDF F of w . x over the cube, at 40 digits.

    w . x comes from :func:`linear_form` at all 2**n input-order points; at
    each distinct value v, F(v) and F(v-) are counts of values <= v and < v.
    """
    n = ltf.n_inputs
    rows = np.arange(1 << n)[:, None]
    values = linear_form(ltf, 1 - 2 * ((rows >> np.arange(n)) & 1))
    worst = mpmath.mpf(0)
    with mpmath.workdps(40):
        for v in set(values.tolist()):
            phi = mpmath.ncdf(v)
            for count in (np.count_nonzero(values <= v), np.count_nonzero(values < v)):
                worst = max(worst, abs(mpmath.mpf(int(count)) / values.size - phi))
        return float(worst)


def slow_linear_form_table(weights, original_index, n: int) -> np.ndarray:
    """w . x at every row, blockwise over rows, one sorted weight at a time."""
    size = 1 << n
    block = 1 << 16
    out = np.empty(size)
    for lo in range(0, size, block):
        hi = min(lo + block, size)
        idx = np.arange(lo, hi, dtype=np.int64)
        acc = np.zeros(hi - lo)
        for p in range(len(weights)):
            col = 1.0 - 2.0 * ((idx >> int(original_index[p])) & 1)
            acc += weights[p] * col
        out[lo:hi] = acc
    return out


def slow_popcounts(n: int) -> np.ndarray:
    """Popcount of every index in [0, 2**n), one bit at a time, as uint8."""
    idx = np.arange(1 << n, dtype=np.uint32)
    counts = np.zeros(1 << n, dtype=np.uint8)
    for j in range(n):
        counts += ((idx >> j) & 1).astype(np.uint8)
    return counts


def slow_degree_weights(coefficients: np.ndarray, n: int) -> np.ndarray:
    """Squared coefficient mass per degree from one plain bincount."""
    sq = coefficients * coefficients
    return np.bincount(slow_popcounts(n), weights=sq, minlength=n + 1)


def fsum_degree_weights(coefficients: np.ndarray, n: int) -> np.ndarray:
    """Squared coefficient mass per degree, one math.fsum of the squares each."""
    sq = coefficients * coefficients
    degrees = slow_popcounts(n)
    return np.array([math.fsum(sq[degrees == d]) for d in range(n + 1)])


def _packed_index(positions, arity: int) -> np.ndarray:
    # Bit j of every row's packed index is the row's bit at positions[j].
    rows = np.arange(1 << arity, dtype=np.int64)
    packed = np.zeros(1 << arity, dtype=np.int64)
    for j, c in enumerate(positions):
        packed |= ((rows >> int(c)) & 1) << j
    return packed


def slow_restrict(values: np.ndarray, head: int, index: int, arity: int) -> np.ndarray:
    """Restricted table by a row gather: the head bits are fixed from the packed
    assignment ``index`` and the other bits spread out in ascending order."""
    fixed = 0
    j = 0
    for c in range(arity):
        if (head >> c) & 1:
            fixed |= ((index >> j) & 1) << c
            j += 1
    rest = [c for c in range(arity) if not (head >> c) & 1]
    sub = np.arange(1 << len(rest), dtype=np.int64)
    rows = np.full(sub.size, fixed, dtype=np.int64)
    for j, c in enumerate(rest):
        rows |= ((sub >> j) & 1) << c
    return values[rows]


def slow_spread_table(values: np.ndarray, positions, arity: int) -> np.ndarray:
    """Table over ``arity`` bits by a row gather: row r reads the entry whose
    bit j is the bit of r at ``positions[j]``, the positions in any order."""
    return values[_packed_index(positions, arity)]


def slow_embed_junta(values: np.ndarray, head: int, arity: int) -> np.ndarray:
    """Lift a head-junta table by gathering the head bits of every row."""
    return slow_spread_table(values, [c for c in range(arity) if (head >> c) & 1], arity)


def junta_distance(values: np.ndarray, junta_values: np.ndarray, head: int, arity: int) -> float:
    """Fraction of rows where a table differs from the lifted head junta."""
    lifted = slow_embed_junta(np.asarray(junta_values), head, arity)
    return float(np.count_nonzero(values != lifted)) / values.size


def slow_bias_profile(values: np.ndarray, positions, arity: int) -> np.ndarray:
    """Block means of a table by one bincount over the gathered packed index:
    bit j of the index is the bit at ``positions[j]``, the positions in any order."""
    sums = np.bincount(_packed_index(positions, arity),
                       weights=values.astype(np.float64), minlength=1 << len(positions))
    return sums / (1 << (arity - len(positions)))


def delta_multiple_verdict(report, tol: float) -> tuple[bool, bool, str]:
    """(passed, vacuous, label) by the verdict rule that rebuilt each case's
    bound from delta: 3 * delta for IIb_Projection, delta for the others."""
    d = report.diagnostics
    if not d.premise_holds:
        return True, True, "premise-violated"
    if str(report.case) == "IIa_PremiseViolated":
        return False, False, "fail"
    multiple = 3.0 if str(report.case) == "IIb_Projection" else 1.0
    ok = report.distance <= multiple * d.delta + tol and report.junta_size <= d.budget
    return ok, False, "pass" if ok else "fail"
