"""Per-instance kernels against their slow routes, byte for byte, and aliasing.

The fast kernels (truth tables built in 2**16-entry blocks, doubling
popcounts, head-cube restrictions, axis-sum bias profiles) promise the same
floating-point addition sequence, or the same gathered rows, as the slow
routes in ``_oracles``, so equality is asserted on ``tobytes()``, never with a
tolerance.  Arities reach 18 so the 2**16-entry chunking boundary is crossed,
and fixed cases with 17 and 21 active coordinates run the table's block path
with one and five high bits.  The transform, one float32 Kronecker pass with
the 64 x 64 Hadamard matrix per six bits in place in its float32 result, must
return float32 coefficients that, widened, match the float64 butterfly divided
by 2**n exactly up to arity 22, and the exact spectrum at arity 24, where its
sums reach 2**24, the end of float32's exact integers.  Every reader of such a
spectrum widens before it squares or sums, so it reads byte for byte as its
float64 twin does.  The degree weights, one chunked route for every spectrum,
must equal one plain bincount for the spectrum of a +-1 table, where every
sum is exact, and stay within their chain of roundings of one math.fsum per
degree for arbitrary reals.  The total weight and the constant bound read
those weights: for any real spectrum W_0 is the square of the empty-set
coefficient bit for bit and the total stays within its rounding chain of a
math.fsum, and every wht spectrum's total is exactly 1.0.  The noise
sensitivity of every head restriction, read from one transform of the head
cube's rows, must equal one gathered table, transform and ns_exact per
assignment at every head up to arity 7.  The table, the transform, the
weights and the restrictions must stay within their memory bounds.  The
distance an extraction reads from block counts must equal, byte for byte, the
distance of its junta lifted to the full table by the bit-loop oracle, in
every case.  A prepared instance is
built in sorted-position order, and everything an extraction reads from it
must equal, byte for byte, the same value read from the input-order table, and
an instance reused across (eps, delta) cells must report what fresh ones do.
The verdict of every such report must equal the rule that rebuilt each case's
bound from delta, and an extraction reads the head blocks once on a head route
and never on a constant one, so the golden sweep reads none.
"""

import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import hsf
from hsf import (
    BooleanFunction,
    FourierSpectrum,
    JuntaCase,
    bias_profile,
    canonical_linear_form,
    canonical_table,
    canonicalize,
    cli,
    constant_bound_check,
    extract_junta,
    head_mask,
    ns_exact,
    prepare,
    random_function,
    random_ltf,
    regular_cdf_gap,
    regularity_profile,
    ns_aggregation_check,
    restriction_energy_identity,
    synthesize,
    theorem_verify,
    truth_table,
    wht,
)
from hsf._bits import bit_positions, head_sums, popcounts, submasks
from hsf.fncore import _butterfly, block_degree_weights
from hsf.noise import CHECK_TOL

from _oracles import (
    delta_multiple_verdict,
    fsum_degree_weights,
    junta_distance,
    slow_bias_profile,
    slow_butterfly,
    slow_degree_weights,
    slow_linear_form_table,
    slow_popcounts,
    slow_restrict,
    slow_restricted_ns,
)
from test_head_routes import _weights_theta_delta

MAX_N = 18

# One draw at the top arity: ties, two dropped coordinates, decimal weights
# and a threshold on an exact tie row.
_WIDE_W = np.r_[np.full(6, 0.7), 0.0, np.arange(1, 10) * 0.1, 0.0, 2.1]
_WIDE = (_WIDE_W, float(np.dot(_WIDE_W, np.resize([1.0, -1.0, -1.0], MAX_N))))
# The table's block path: 17 active coordinates (one high bit) with one
# dropped, and 21 (five high bits) with one dropped and a threshold on an
# exact tie row.
_BLOCK17 = (np.r_[np.full(6, 0.7), 0.0, np.arange(1, 12) * 0.1], 0.37)
_BLOCK21_W = np.r_[np.full(7, 0.7), 0.0, np.arange(1, 14) * 0.1, 2.1]
_BLOCK21 = (_BLOCK21_W, float(np.dot(_BLOCK21_W, np.resize([1.0, -1.0, -1.0], 22))))


@st.composite
def weights_and_theta(draw, max_n=MAX_N):
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "decimal", "integer"]))
    if kind == "gaussian":
        w = rng.standard_normal(n)
    elif kind == "decimal":
        w = rng.integers(-9, 10, size=n) * draw(st.sampled_from([0.1, 0.7, 1.1]))
    else:
        w = rng.integers(-4, 5, size=n).astype(np.float64)
    if draw(st.booleans()):  # equal-weight ties
        w[rng.random(n) < 0.5] = w[0]
    if draw(st.booleans()):  # dropped coordinates
        w[rng.random(n) < 0.3] = 0.0
    if not np.any(w):
        w[draw(st.integers(0, n - 1))] = 1.0
    theta_kind = draw(st.sampled_from(["gaussian", "lattice", "zero"]))
    if theta_kind == "gaussian":
        theta = float(rng.normal()) * float(np.linalg.norm(w))
    elif theta_kind == "lattice":  # w . x for one cube point: an exact tie row
        theta = float(np.dot(w, rng.choice([-1.0, 1.0], size=n)))
    else:
        theta = 0.0
    return w, theta


@settings(max_examples=60, deadline=None)
@given(weights_and_theta())
@example(_WIDE)
@example(_BLOCK17)
@example(_BLOCK21)
def test_linear_form_table_matches_blockwise_loop(wt):
    lt = canonicalize(*wt)
    m = lt.n_active
    slow = slow_linear_form_table(lt.weights, np.arange(m), m)
    assert canonical_linear_form(lt, cap=lt.n_inputs).tobytes() == slow.tobytes()


@settings(max_examples=60, deadline=None)
@given(weights_and_theta())
@example(_WIDE)
@example(_BLOCK17)
@example(_BLOCK21)
def test_truth_table_matches_blockwise_loop(wt):
    lt = canonicalize(*wt)
    slow = slow_linear_form_table(lt.weights, lt.original_index, lt.n_inputs)
    expected = np.where(slow - lt.theta >= 0.0, 1, -1).astype(np.int8)
    assert truth_table(lt, cap=lt.n_inputs).values.tobytes() == expected.tobytes()


@settings(max_examples=40, deadline=None)
@given(weights_and_theta(max_n=10))
def test_pointwise_evaluation_matches_table_rows(wt):
    lt = canonicalize(*wt)
    n = lt.n_inputs
    rows = np.arange(1 << n)[:, None]
    points = 1 - 2 * ((rows >> np.arange(n)) & 1)
    assert np.array_equal(lt(points), truth_table(lt).values)


@pytest.mark.parametrize("n", range(0, 21))
def test_popcounts_match_bit_loop(n):
    assert popcounts(n).tobytes() == slow_popcounts(n).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, MAX_N), st.integers(0, 2**32 - 1))
@example(MAX_N, 0)
def test_degree_weights_match_fsum_within_their_rounding_chain(n, seed):
    # Arbitrary reals, not only multiples of 2**-n, so every addition rounds.
    # A degree's positive terms pass through one square, a 64-term row
    # product, a bincount over at most 1,024 rows and 7 running totals per
    # 2**16-entry chunk; each rounding adds at most 2**-53 relative error.
    coeffs = np.random.default_rng(seed).standard_normal(1 << n)
    expected = fsum_degree_weights(coeffs, n)
    roundings = 1 + 63 + 1023 + 7 * 2 ** max(0, n - 16)
    error = np.abs(FourierSpectrum(n, coeffs).degree_weights - expected)
    assert np.all(error <= roundings * 2.0**-53 * expected)


@settings(max_examples=20, deadline=None)
@given(weights_and_theta())
@example(_WIDE)
def test_degree_weights_of_tables_match_single_bincount(wt):
    lt = canonicalize(*wt)
    spectrum = wht(truth_table(lt, cap=MAX_N))
    assert type(spectrum) is FourierSpectrum
    expected = slow_degree_weights(spectrum.coefficients, lt.n_inputs)
    for spec in (spectrum, FourierSpectrum(lt.n_inputs, spectrum.coefficients)):
        assert spec.degree_weights.tobytes() == expected.tobytes()


def _check_prepared_degree_weights(lt, cap):
    spectrum = prepare(lt, cap=cap).spectrum
    assert "degree_weights" not in vars(spectrum)  # computed on first use
    weights = spectrum.degree_weights
    assert spectrum.degree_weights is weights
    expected = slow_degree_weights(spectrum.coefficients, lt.n_inputs)
    assert weights.tobytes() == expected.tobytes()
    assert not weights.flags.writeable


@settings(max_examples=40, deadline=None)
@given(weights_and_theta(max_n=16))
def test_prepared_degree_weights_match_single_bincount(wt):
    _check_prepared_degree_weights(canonicalize(*wt), 16)


# n = 5 takes the leading block of the row indicator; 6 is one row, 20 and 22
# cross many 2**16-entry chunks.
@pytest.mark.parametrize("n, family", [(5, "equal"), (6, "geometric"), (20, "gaussian"),
                                       (22, "geometric")])
def test_prepared_degree_weights_match_single_bincount_at_chunk_edges(n, family):
    rate = 0.9 if family == "geometric" else None
    lt = random_ltf(n, family, rate=rate, theta_law="gaussian:1", seed=n)
    _check_prepared_degree_weights(lt, n)


def _check_restricted_ns(f, head, epsilon):
    got = ns_aggregation_check(f, head, epsilon).restricted
    assert got.tobytes() == slow_restricted_ns(f, head, epsilon).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_restricted_ns_matches_per_assignment_oracle(data):
    arity = data.draw(st.integers(0, 12))
    head = data.draw(st.integers(0, (1 << arity) - 1))
    epsilon = data.draw(st.floats(0, 1))
    _check_restricted_ns(random_function(arity, seed=data.draw(st.integers(0, 2**32 - 1))),
                         head, epsilon)


def test_restricted_ns_matches_per_assignment_oracle_on_every_head():
    # Every head at n <= 7, the empty head and the whole head (m = 0) among them.
    for n in range(8):
        f = random_function(n, seed=11 + n)
        for head in range(1 << n):
            for epsilon in (0.0, 0.1, 0.5, 1.0):
                _check_restricted_ns(f, head, epsilon)


def test_block_degree_weights_are_each_restrictions_spectrum_weights():
    n = 7
    f = random_function(n, seed=5)
    for head in range(1 << n):
        rows = block_degree_weights(f, head)
        m = n - head.bit_count()
        assert rows.shape == (1 << head.bit_count(), m + 1)
        for a, row in enumerate(rows):
            g = BooleanFunction(m, slow_restrict(f.values, head, a, n))
            assert row.tobytes() == wht(g).degree_weights.tobytes()
    for head in (-1, 1 << n, 1.0):
        with pytest.raises(hsf.InvalidInputError, match="^head must be"):
            block_degree_weights(f, head)


def test_submasks_are_every_submask_in_packed_order():
    for mask in range(1 << 10):
        expected = [s for s in range(mask + 1) if s & ~mask == 0]
        assert submasks(mask).tolist() == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bias_profile_matches_gathered_bincount(data):
    arity = data.draw(st.integers(0, 14))
    head = data.draw(st.integers(0, (1 << arity) - 1))
    f = random_function(arity, seed=data.draw(st.integers(0, 2**32 - 1)))
    expected = slow_bias_profile(f.values, bit_positions(head), arity)
    assert bias_profile(f, head).tobytes() == expected.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_head_sums_match_gathered_bincount_for_positions_in_any_order(data):
    # The one block-sum reduction: bias_profile passes ascending input bits,
    # Instance.head_biases sorted positions in the order of their coordinates.
    n = data.draw(st.integers(0, 12))
    kind = data.draw(st.sampled_from(["empty", "every", "descending", "permutation"]))
    if kind == "permutation":
        positions = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
    else:
        positions = {"empty": [], "every": list(range(n)),
                     "descending": list(range(n - 1, -1, -1))}[kind]
    if data.draw(st.booleans()):
        positions = np.array(positions, dtype=np.int64)
    f = random_function(n, seed=data.draw(st.integers(0, 2**32 - 1)))
    sums = head_sums(f.values, positions, n)
    expected = slow_bias_profile(f.values, positions, n) * (1 << (n - len(positions)))
    assert sums.dtype == np.int64
    assert sums.astype(np.float64).tobytes() == expected.tobytes()


def _wht_oracle(f):
    return slow_butterfly(f.values) / float(f.values.size)


def _widened(f):
    # wht's exact float32 coefficients, widened for a byte comparison with a
    # float64 route.
    coeffs = wht(f).coefficients
    assert coeffs.dtype == np.float32
    return coeffs.astype(np.float64)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 16), st.integers(0, 2**32 - 1))
def test_wht_matches_float64_butterfly(n, seed):
    f = random_function(n, seed=seed)
    assert _widened(f).tobytes() == _wht_oracle(f).tobytes()


@pytest.mark.parametrize("n", range(0, 13))
def test_wht_tiles_match_float64_butterfly(n):
    # n < 6 is one pass with a leading block of the 64 x 64 matrix; n = 6 and
    # 12 are whole 64-wide passes, and the others end with a narrower top pass.
    f = random_function(n, seed=n)
    assert _widened(f).tobytes() == _wht_oracle(f).tobytes()


@pytest.mark.parametrize("n", [18, 19])
def test_wht_widening_matches_float64_butterfly(n):
    # Three and four passes, so two or three of them run in place in the
    # result, each over several chunks.
    f = random_function(n, seed=n, cap=n)
    assert _widened(f).tobytes() == _wht_oracle(f).tobytes()


@pytest.mark.parametrize("n", [16, 20, 22])
def test_wht_tiles_match_float64_butterfly_at_large_arity(n):
    f = random_function(n, seed=n, cap=n)
    expected = _butterfly(f.values.astype(np.float64)) / float(1 << n)
    assert _widened(f).tobytes() == expected.tobytes()


def test_wht_of_constant_table_at_n20_reaches_the_largest_sum():
    f = BooleanFunction(20, np.ones(1 << 20, dtype=np.int8))
    coeffs = _widened(f)
    assert coeffs[0] == 1.0 and not np.any(coeffs[1:])
    assert coeffs.tobytes() == _wht_oracle(f).tobytes()


def test_wht_of_random_table_at_n22_matches_float64_butterfly():
    f = random_function(22, seed=22, cap=22)
    assert _widened(f).tobytes() == _wht_oracle(f).tobytes()


@pytest.mark.parametrize("variables", [0, 0b1])
def test_wht_at_n24_matches_the_exact_spectrum(variables):
    # The constant table's empty-set sum is 2**24, the end of the range where
    # float32 holds every integer; the parity of variable 0 cancels to zero
    # everywhere else.  Each coefficient is 1.0 at ``variables`` and +0.0
    # elsewhere, checked on the bits of each float32 entry on its own without
    # a 64 MiB expected array.
    n = 24
    values = np.ones(1 << n, dtype=np.int8)
    if variables:
        values[1::2] = -1
    coeffs = wht(BooleanFunction(n, values)).coefficients
    assert coeffs[variables] == 1.0
    assert coeffs.dtype == np.float32
    assert np.count_nonzero(coeffs.view(np.uint32)) == 1


def test_wht_refuses_arities_where_float32_sums_round():
    # Built without its 32 MiB of entries: the cap is checked before any work.
    f = object.__new__(BooleanFunction)
    object.__setattr__(f, "arity", 25)
    object.__setattr__(f, "values", np.broadcast_to(np.int8(1), (1 << 25,)))
    with pytest.raises(hsf.CapExceededError, match="^arity 25 exceeds cap 24$"):
        wht(f)


def test_wht_products_stay_under_the_blas_threading_cutoff(monkeypatch):
    # OpenBLAS runs a product of at most 2**18 multiply-adds on one thread;
    # each np.matmul call of the transform and of the degree weights, of a
    # table's spectrum or of arbitrary reals, covers at most 2**16 entries.
    shapes = []
    matmul = np.matmul

    def spy(a, b, out=None):
        result = matmul(a, b, out=out)
        shapes.append((a.shape[-2:], b.shape[-1], max(a.size, b.size, result.size)))
        return result

    monkeypatch.setattr(np, "matmul", spy)
    for n in (0, 5, 7, 16, 19, 22):
        wht(random_function(n, seed=n, cap=n)).degree_weights
    FourierSpectrum(20, np.random.default_rng(20).standard_normal(1 << 20)).degree_weights
    assert shapes
    for (rows, inner), cols, entries in shapes:
        assert rows * inner * cols <= 1 << 18 and entries <= 1 << 16


def test_canonical_table_stays_within_its_memory_bound():
    # The table holds its int8 signs and one 2**16-entry float64 row per high
    # bit, plus the first: n_active - 15 rows of 512 KiB.  A whole-table
    # linear form, comparison or validation copy breaks the bound.
    n = 20
    lt = random_ltf(n, "gaussian", theta_law="gaussian:1", seed=n)
    tracemalloc.start()
    try:
        canonical_table(lt, cap=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (1 << n) + (lt.n_active - 15) * (1 << 19) + (1 << 20)


def test_wht_and_degree_weights_stay_within_memory_bounds():
    # The transform runs in place in its float32 result: 4 bytes an entry.  A
    # float64 result, a float32 spare, or a buffer kept alive by a view that
    # outlives its pass, breaks the first bound; squaring a whole spectrum at
    # once, or a 2**n popcount array, breaks the second, for a table's
    # spectrum and for arbitrary reals alike.
    n = 20
    f = random_function(n, seed=n)
    normal = FourierSpectrum(n, np.random.default_rng(n).standard_normal(1 << n))
    fills = []
    tracemalloc.start()
    try:
        spectrum = wht(f)
        _, wht_peak = tracemalloc.get_traced_memory()
        for spec in (spectrum, normal):
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            spec.degree_weights
            _, fill_peak = tracemalloc.get_traced_memory()
            fills.append(fill_peak - before)
    finally:
        tracemalloc.stop()
    assert wht_peak <= 4 * (1 << n) + (1 << 20)
    assert max(fills) <= 1 << 20


@pytest.mark.parametrize("h", [10, 16])
def test_ns_aggregation_stays_within_memory_bound(h):
    # One int8 copy of the head cube and its float32 block spectra, 5 bytes an
    # entry, then a few float64 values per restriction: a float64 spectrum,
    # a second cube copy, or a Python float per restriction breaks the bound.
    n = 20
    f = random_function(n, seed=h)
    # Scattered, so the head cube is a transposed copy, not a view.
    head = sum(1 << int(c) for c in np.random.default_rng(h).choice(n, h, replace=False))
    tracemalloc.start()
    try:
        ns_aggregation_check(f, head, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5 * (1 << n) + 32 * (1 << h) + (1 << 20)


@pytest.mark.parametrize("n", [0, 1, 3, 9, 14])
def test_synthesize_non_integer_coefficients_matches_float64_butterfly(n):
    coeffs = np.random.default_rng(n).standard_normal(1 << n) / 3.0
    spectrum = FourierSpectrum(n, coeffs)
    assert synthesize(spectrum).tobytes() == slow_butterfly(coeffs).tobytes()
    assert spectrum.coefficients.tobytes() == coeffs.tobytes()


@st.composite
def _tables(draw):
    # A random table, or the sorted-position table of an LTF family.
    family = draw(st.sampled_from(["random", "equal", "gaussian", "geometric"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if family == "random":
        return random_function(draw(st.integers(0, 16)), seed=seed, cap=16)
    rate = 0.9 if family == "geometric" else None
    lt = random_ltf(draw(st.integers(1, 16)), family, rate=rate, theta_law="gaussian:1",
                    seed=seed)
    return canonical_table(lt, cap=16)


def _float_bytes(*values):
    return np.array(values, dtype=np.float64).tobytes()


@settings(max_examples=40, deadline=None)
@given(_tables(), st.sampled_from([0.001, 0.05, 0.25, 0.5]))
def test_wht_spectrum_and_its_float64_twin_agree_byte_for_byte(f, epsilon):
    # Every reader widens a float32 spectrum before it squares or sums, so the
    # exact float32 coefficients and the same values in float64 read alike.
    spectrum = wht(f)
    twin = FourierSpectrum(f.arity, spectrum.coefficients.astype(np.float64))
    assert spectrum.coefficients.dtype == np.float32 and twin.coefficients.dtype == np.float64
    assert spectrum.degree_weights.tobytes() == twin.degree_weights.tobytes()
    assert _float_bytes(spectrum.total_weight()) == _float_bytes(twin.total_weight())
    assert synthesize(spectrum).tobytes() == synthesize(twin).tobytes()
    assert _float_bytes(ns_exact(spectrum, epsilon)) == _float_bytes(ns_exact(twin, epsilon))
    checks = [constant_bound_check(spec, epsilon) for spec in (spectrum, twin)]
    assert _float_bytes(*dataclasses.astuple(checks[0])) == _float_bytes(
        *dataclasses.astuple(checks[1]))


def _one_minus_one(n):
    # Every entry +1 but one, so the empty-set coefficient is (2**n - 2) / 2**n:
    # at n = 14 the numerator's square, 16382**2, has 28 significant bits and
    # rounds in float32.
    values = np.ones(1 << n, dtype=np.int8)
    values[0] = -1
    return BooleanFunction(n, values)


def test_total_weight_of_a_float32_spectrum_is_exact():
    assert wht(_one_minus_one(14)).total_weight() == 1.0


@pytest.mark.parametrize("n", [0, 1, 6, 7, 16, 17, 20])
def test_total_weight_of_a_wht_spectrum_is_one(n):
    # Both sides of the 64-entry row and of the 2**16-entry chunk.
    assert wht(random_function(n, seed=n)).total_weight() == 1.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 18), st.integers(0, 2**32 - 1), st.integers(-560, 480),
       st.floats(-1e150, 1e150))
@example(0, 0, 0, 0.5)
@example(6, 1, 0, -0.25)
@example(7, 2, -560, 1e-160)
@example(16, 3, 480, 1e150)
@example(17, 4, 0, 0.0)
@example(18, 5, 0, 5e-324)
def test_degree_weights_own_the_squares_of_real_spectra(n, seed, scale, c0):
    # W_0 is f^(0)**2 bit for bit: only row 0 has high popcount 0 and only its
    # first entry low popcount 0, and every other term added is an exact 0.0.
    # The total passes each square through the rounding chain of its degree's
    # weight (a 64-term row product, a bincount over at most 1,024 rows and 7
    # running totals per 2**16-entry chunk) and n additions across degrees;
    # every term is positive, so each rounding adds at most 2**-53 of the sum.
    coeffs = np.random.default_rng(seed).standard_normal(1 << n) * 2.0**scale
    coeffs[0] = c0
    spectrum = FourierSpectrum(n, coeffs)
    for epsilon in (0.001, 0.25, 0.5):
        assert _float_bytes(constant_bound_check(spectrum, epsilon).bound) == _float_bytes(
            epsilon * (1.0 - c0 * c0))
    expected = math.fsum(np.square(coeffs))
    roundings = 63 + 1023 + 7 * 2 ** max(0, n - 16) + n
    assert abs(spectrum.total_weight() - expected) <= roundings * 2.0**-53 * expected


def test_restriction_energy_parent_side_is_squared_in_float64():
    f = _one_minus_one(14)
    head = 0b111
    coeffs = slow_butterfly(f.values)[:1 << 3] / float(1 << 14)  # every subset of the head
    assert restriction_energy_identity(f, head, 0).rhs == math.fsum(coeffs * coeffs)


@pytest.mark.parametrize("case, lt, epsilon, delta", [
    ("SmallDeltaConstant", canonicalize(np.ones(15), 0.0), 0.25, 0.05),
    ("I_Constant", canonicalize(np.ones(16), 8.0), 0.25, 0.62),
])
def test_constant_cells_read_no_float32(monkeypatch, case, lt, epsilon, delta):
    # The empty head's bias comes from the float32 spectrum; widened, no
    # float32 reaches a np.dot of the extraction, the distance or a field.
    operands = []
    dot = np.dot

    def spy(a, b, *args, **kwargs):
        operands.extend(np.asarray(x).dtype for x in (a, b))
        return dot(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "dot", spy)
    report = extract_junta(lt, epsilon, delta)
    assert report.case == case and report.junta_set == 0
    assert operands and np.dtype(np.float32) not in operands
    fields = [report.distance, *dataclasses.astuple(report.diagnostics)]
    assert all(type(v) in (float, np.float64, int, bool) for v in fields)


class TestAliasing:
    def test_spectrum_of_wht_is_read_only(self):
        spectrum = wht(random_function(6, seed=1))
        assert not spectrum.coefficients.flags.writeable
        assert not spectrum.degree_weights.flags.writeable

    def test_popcounts_are_read_only(self):
        counts = popcounts(8)
        assert not counts.flags.writeable
        with pytest.raises(ValueError):
            counts[3] = 0

    def test_spectrum_copies_writable_input(self):
        arr = np.array([0.5, 0.5, 0.5, -0.5])
        spectrum = FourierSpectrum(2, arr)
        arr[0] = 9.0
        assert spectrum.coefficients[0] == 0.5
        assert not np.shares_memory(arr, spectrum.coefficients)

    def test_degree_weights_memo_is_read_only(self):
        # The spectrum of a table and one of arbitrary coefficients.
        for spectrum in (wht(random_function(7, seed=2)),
                         FourierSpectrum(2, [0.5, 0.5, 0.5, -0.5])):
            before = ns_exact(spectrum, 0.1)
            with pytest.raises(ValueError):
                spectrum.degree_weights[:] = 0.0
            assert ns_exact(spectrum, 0.1) == before

    def test_spectrum_copies_read_only_view_of_writable_base(self):
        base = np.array([1.0, 0.0, 0.0, 0.0])
        view = base.view()
        view.setflags(write=False)
        spectrum = FourierSpectrum(2, view)
        assert ns_exact(spectrum, 0.1) == 0.0
        base[:] = [0.0, 0.0, 0.0, 1.0]
        assert spectrum.coefficients.tobytes() == np.array([1.0, 0, 0, 0]).tobytes()
        assert ns_exact(spectrum, 0.1) == 0.0
        assert ns_exact(FourierSpectrum(2, base), 0.1) == pytest.approx(0.18)
        assert not np.shares_memory(base, spectrum.coefficients)

    def test_spectrum_copies_coefficients_of_another_spectrum(self):
        first = wht(random_function(5, seed=3))
        second = FourierSpectrum(5, first.coefficients)
        assert not np.shares_memory(first.coefficients, second.coefficients)
        assert not second.coefficients.flags.writeable


# Exact distances from block counts against the lifted junta.  Explicit inputs
# reach every case label and the head that is every active coordinate:
# (label, ltf, epsilon, delta, c_l, whole head).
_LATTICE_14 = np.r_[1.5, np.ones(13)]
_CASE_INPUTS = [
    ("SmallDeltaConstant", canonicalize(np.ones(15), 0.0), 0.25, 0.05, 1.0, False),
    ("I_Constant", canonicalize(np.ones(16), 8.0), 0.25, 0.62, 1.0, False),
    ("IIb_Projection", canonicalize(_LATTICE_14, 0.0), 0.3, 0.7, 3.0, False),
    ("IIa_PremiseViolated", canonicalize(_LATTICE_14, 0.5), 0.3, 0.7, 3.0, False),
    *[
        (case, canonicalize(*_weights_theta_delta(seed)[:2]), 0.25,
         _weights_theta_delta(seed)[2], 1.0, False)
        for case, seed in [("IIb_Projection", 2), ("IIa_PremiseViolated", 23),
                           ("III_HeadJunta", 0)]
    ],
    ("III_HeadJunta", canonicalize([8, 0, 4, 2, 1], 0.3), 0.25, 0.8, 1.0, True),
    ("III_HeadJunta", canonicalize([1.0, 1.0, 1.0], 5.0), 0.25, 0.62, 1.0, True),
]


def _check_distance_against_lift(instance, epsilon, delta, c_l):
    report = extract_junta(instance, epsilon, delta, c_l=c_l)
    table = truth_table(instance.ltf)  # instance.table is in sorted-position order
    assert type(report.distance) is float
    expected = junta_distance(table.values, report.approximator.values, report.junta_set,
                              table.arity)
    assert np.float64(report.distance).tobytes() == np.float64(expected).tobytes()
    return report


@pytest.mark.parametrize("case, lt, epsilon, delta, c_l, whole", _CASE_INPUTS)
def test_distance_matches_lifted_junta_in_every_case(case, lt, epsilon, delta, c_l, whole):
    report = _check_distance_against_lift(prepare(lt), epsilon, delta, c_l)
    assert str(report.case) == case
    assert (report.junta_size == lt.n_active) == whole


@st.composite
def head_over_lattice(draw):
    # 1-3 dominant weights over an equal-weight tail, at eps and delta where
    # the critical index is small and finite: the head routes.  One weight of
    # 1.5 over an equal tail at n = 14 or 16 reaches IIa_PremiseViolated for
    # most of its (n, theta, delta), which random head weights almost never do.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.sampled_from([14, 16]))
        w = np.r_[1.5, np.ones(n - 1)]
        theta = draw(st.sampled_from([0.5, 1.5]))
        epsilon, delta = 0.3, draw(st.sampled_from([0.66, 0.7]))
    else:
        n = draw(st.integers(8, 16))
        h = int(rng.integers(1, 4))
        w = np.concatenate([rng.uniform(1.0, 2.0, size=h), np.ones(n - h)])
        theta = draw(st.sampled_from([0.0, float(rng.normal())]))
        epsilon = draw(st.sampled_from([0.3, 0.35, 0.45]))
        delta = draw(st.sampled_from([0.66, 0.7, 0.8, 0.95]))
    # Permuted and sign-flipped, so the head sits on scattered input coordinates.
    w = (w * rng.choice([-1.0, 1.0], size=n))[rng.permutation(n)]
    return (w, theta), epsilon, delta, 3.0


@st.composite
def any_weights(draw):
    epsilon = draw(st.sampled_from([0.05, 0.1, 0.25, 0.45]))
    delta = draw(st.sampled_from([0.05, 0.3, 0.62, 0.8, 0.95]))
    c_l = draw(st.sampled_from([0.03, 1.0, 3.0]))
    return draw(weights_and_theta(max_n=16)), epsilon, delta, c_l


@settings(max_examples=150, deadline=None)
@given(st.one_of(any_weights(), head_over_lattice()))
def test_distance_matches_lifted_junta(args):
    wt, epsilon, delta, c_l = args
    report = _check_distance_against_lift(prepare(canonicalize(*wt)), epsilon, delta, c_l)
    event(str(report.case))


@st.composite
def instance_and_cells(draw):
    # Weights and up to nine (eps, delta, c_ns, c_l) cells over a few eps, so
    # eps repeats; a head-route draw contributes its own cell.
    if draw(st.booleans()):
        wt, epsilon, delta, c_l = draw(head_over_lattice())
        own = [(epsilon, delta, 1.0, c_l)]
    else:
        wt, own = draw(weights_and_theta(max_n=14)), []
    cells = st.lists(st.tuples(
        st.sampled_from([0.05, 0.25, 0.3, 0.35, 0.45]),
        st.sampled_from([0.05, 0.3, 0.62, 0.7, 0.95]),
        st.sampled_from([0.1, 1.0, 10.0]),
        st.sampled_from([0.03, 1.0, 3.0]),
    ), min_size=1, max_size=8)
    return wt, draw(st.permutations(own + draw(cells)))


@settings(max_examples=60, deadline=None)
@given(instance_and_cells())
def test_reused_instance_reports_equal_fresh_ones(args):
    # The instance remembers ns and the critical index per eps; every report
    # from it must equal, field for field, the report from a fresh instance.
    wt, cells = args
    lt = canonicalize(*wt)
    reused = prepare(lt)
    for eps, delta, c_ns, c_l in cells:
        got = extract_junta(reused, eps, delta, c_ns=c_ns, c_l=c_l)
        want = extract_junta(prepare(lt), eps, delta, c_ns=c_ns, c_l=c_l)
        assert (got.case, got.junta_set, got.approximator) == (
            want.case, want.junta_set, want.approximator)
        assert np.float64(got.distance).tobytes() == np.float64(want.distance).tobytes()
        assert repr(got.diagnostics) == repr(want.diagnostics)  # nan-safe, every bit
        event(str(got.case))
    assert "_per_eps" not in repr(reused)


@settings(max_examples=60, deadline=None)
@given(instance_and_cells())
def test_verdict_matches_the_delta_multiple_rule(args):
    # theorem_verify judges the guarantee_bound the route set; the rule it
    # replaced rebuilt each case's bound from delta.  Each report is judged as
    # made, then with its premise forced to hold at its own distance and at
    # 2 delta, which only the projection's bound of 3 delta admits.
    wt, cells = args
    instance = prepare(canonicalize(*wt))
    for eps, delta, c_ns, c_l in cells:
        report = extract_junta(instance, eps, delta, c_ns=c_ns, c_l=c_l)
        holding = dataclasses.replace(report.diagnostics, premise_holds=True)
        for judged in (report, *(dataclasses.replace(report, diagnostics=holding, distance=d)
                                 for d in (report.distance, 2.0 * delta))):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # IIa with its premise holding warns
                verdict = theorem_verify(judged)
            assert (verdict.passed, verdict.vacuous, verdict.label) == delta_multiple_verdict(
                judged, CHECK_TOL)
        event(str(report.case))


# Sorted-position instances against the input-order table, drawn at n <= 16.
# One explicit draw has ties, two dropped coordinates and a threshold on an
# exact tie row; another, at n = 18, reads heads of 17 and 18 coordinates.
_WIDE16_W = np.r_[np.full(5, 0.7), 0.0, np.arange(1, 9) * 0.1, 0.0, 2.1]
_WIDE16 = (_WIDE16_W, float(np.dot(_WIDE16_W, np.resize([1.0, -1.0, -1.0], 16))))
_WIDE18_W = np.r_[np.full(6, 0.7), np.arange(1, 12) * 0.1, 2.1]
_WIDE18 = (_WIDE18_W, float(np.dot(_WIDE18_W, np.resize([1.0, -1.0, -1.0], 18))))


@settings(max_examples=60, deadline=None)
@given(weights_and_theta(max_n=16))
@example(_WIDE16)
@example(_WIDE18)
def test_sorted_position_instance_matches_input_order_table(wt):
    lt = canonicalize(*wt)
    instance = prepare(lt)
    table = truth_table(lt)
    spectrum = wht(table)
    assert instance.spectrum.degree_weights.tobytes() == spectrum.degree_weights.tobytes()
    assert instance.spectrum.coefficients[:1].tobytes() == spectrum.coefficients[:1].tobytes()
    for size in range(lt.n_active + 1):
        got = instance.head_biases(size).tobytes()
        assert got == bias_profile(table, head_mask(lt, size)).tobytes()
        oracle = slow_bias_profile(table.values, np.sort(lt.original_index[:size]), lt.n_inputs)
        assert got == oracle.tobytes()
    # Below every |w_i| / sigma_i the critical index is infinite, and with a
    # large c_l the budget covers every active coordinate: the whole-fits route.
    ratios = np.abs(lt.weights) / regularity_profile(lt).tail_norms
    epsilon = min(0.49, 0.5 * float(ratios.min()))
    report = extract_junta(instance, epsilon, 0.9, c_l=1e6)
    assert report.case is JuntaCase.HEAD_JUNTA and report.junta_size == lt.n_active
    rest = ((1 << lt.n_inputs) - 1) ^ report.junta_set
    assert report.approximator.values.tobytes() == slow_restrict(table.values, rest, 0,
                                                                 lt.n_inputs).tobytes()


def _count_head_reads(monkeypatch) -> list:
    # The sizes every Instance.head_biases call asks for, in call order.
    sizes = []

    def counting(self, size, real=hsf.junta.Instance.head_biases):
        sizes.append(size)
        return real(self, size)

    monkeypatch.setattr(hsf.junta.Instance, "head_biases", counting)
    return sizes


def test_head_blocks_are_read_once_per_head_route(monkeypatch):
    sizes = _count_head_reads(monkeypatch)
    for case, lt, eps, delta, c_l, _ in _CASE_INPUTS:
        sizes.clear()
        report = extract_junta(prepare(lt), eps, delta, c_l=c_l)
        assert str(report.case) == case
        assert sizes == ([report.junta_size] if report.junta_size else [])


def test_each_head_route_builds_its_junta_once(monkeypatch):
    # One sign table per head route, from the block means when the projection
    # is certified and from the biases otherwise; the constant routes share
    # theirs.  Demo 4's premise violation has a 2-coordinate head.
    sizes = []

    def counting(values, real=hsf.junta._signs):
        sizes.append(values.size)
        return real(values)

    monkeypatch.setattr(hsf.junta, "_signs", counting)
    demo = canonicalize(np.r_[1.6, 1.03, np.ones(17)], 0.0)
    for case, lt, eps, delta, c_l, _ in [*_CASE_INPUTS,
                                         ("IIa_PremiseViolated", demo, 0.25, 0.62, 1.0, False)]:
        sizes.clear()
        report = extract_junta(prepare(lt), eps, delta, c_l=c_l)
        assert str(report.case) == case
        assert sizes == ([1 << report.junta_size] if report.junta_size else [])
        assert report.approximator.arity == report.junta_size
    assert sizes == [4]


def test_golden_sweep_reads_no_head_blocks(monkeypatch, tmp_path):
    # Every golden cell takes a constant route, whose one block is f-hat(empty).
    sizes = _count_head_reads(monkeypatch)
    out = tmp_path / "sweep.csv"
    assert cli.main([
        "sweep", "--families", "equal,gaussian,geometric:0.97", "--n", "16",
        "--count", "168", "--seed", "20260815", "--theta-law", "gaussian:2", "--quiet",
        "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (Path(__file__).parent / "golden" / "sweep_golden.csv").read_bytes()
    assert sizes == []


def test_instances_never_build_input_order_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an instance reached an input-order 2^n table")

    monkeypatch.setattr(hsf.ltf, "truth_table", refuse)
    assert not hasattr(hsf.junta, "truth_table")
    for case, lt, eps, delta, c_l, _ in _CASE_INPUTS:
        report = extract_junta(prepare(lt), eps, delta, c_l=c_l)
        assert str(report.case) == case


def test_cdf_gap_never_builds_the_input_order_linear_form():
    # The gap depends only on the multiset of w . x values, which dropped
    # coordinates repeat evenly, so the sorted-position form is enough.
    active = canonicalize([3.0, 1.0, 2.0, 1.0, 0.5], 0.25)
    dropped = canonicalize([0.0, 3.0, 1.0, 0.0, 2.0, 1.0, 0.5], 0.25)
    assert regular_cdf_gap(dropped) == regular_cdf_gap(active) > 0
