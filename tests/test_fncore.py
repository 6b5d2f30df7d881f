"""Truth-table engine: transform oracles, invariants, evaluation, and the support oracle."""

import numpy as np
import pytest

from hsf import (
    BooleanFunction,
    CapExceededError,
    FourierSpectrum,
    InvalidInputError,
    distance,
    from_values,
    mean,
    random_function,
    synthesize,
    wht,
)

from _oracles import is_junta_on, majority_values, parity_values, point_of_row, slow_spectrum

MAJ3 = from_values(3, [1, 1, 1, -1, 1, -1, -1, -1])
MAJ3_SPECTRUM = [0.0, 0.5, 0.5, 0.0, 0.5, 0.0, 0.0, -0.5]


class TestBooleanFunction:
    def test_rejects_wrong_table_length(self):
        with pytest.raises(InvalidInputError, match="needs 8 entries"):
            from_values(3, [1, -1])

    def test_rejects_non_sign_entries(self):
        with pytest.raises(InvalidInputError, match=r"\+1 or -1"):
            from_values(1, [1, 0])

    def test_rejects_negative_arity(self):
        with pytest.raises(InvalidInputError):
            from_values(-1, [])

    def test_rejects_arity_beyond_cap(self):
        with pytest.raises(CapExceededError, match="exceeds cap 20"):
            from_values(21, np.ones(1 << 21, dtype=np.int8))

    def test_cap_is_adjustable_but_bounded(self):
        f = from_values(4, np.ones(16), cap=4)
        assert f.arity == 4
        with pytest.raises(CapExceededError):
            from_values(5, np.ones(32), cap=4)

    def test_values_are_read_only(self):
        with pytest.raises(ValueError):
            MAJ3.values[0] = -1

    def test_call_matches_table_rows(self):
        rng = np.random.default_rng(11)
        for n in range(6):
            f = random_function(n, seed=rng.integers(1 << 30))
            for row in range(1 << n):
                assert f(point_of_row(n, row)) == f.values[row]

    def test_call_batch_shape_and_type(self):
        pts = np.array([[1, 1, 1], [-1, 1, -1]])
        out = MAJ3(pts)
        assert out.shape == (2,)
        assert list(out) == [1, -1]
        assert isinstance(MAJ3(pts[0]), int)

    def test_call_rejects_bad_points(self):
        with pytest.raises(InvalidInputError, match="coordinates"):
            MAJ3(np.array([1, -1]))
        with pytest.raises(InvalidInputError, match=r"\+-1"):
            MAJ3(np.array([1, 0, -1]))

    def test_equality_and_hash(self):
        g = from_values(3, MAJ3.values.copy())
        assert g == MAJ3
        assert hash(g) == hash(MAJ3)
        assert from_values(1, [1, -1]) != from_values(1, [1, 1])


class TestWht:
    def test_majority3_spectrum_frozen(self):
        np.testing.assert_allclose(wht(MAJ3).coefficients, MAJ3_SPECTRUM, atol=1e-15)

    @pytest.mark.parametrize("n", range(7))
    def test_matches_slow_oracle(self, n):
        f = random_function(n, seed=[17, n])
        np.testing.assert_allclose(
            wht(f).coefficients, slow_spectrum(f.values), atol=1e-12
        )

    @pytest.mark.parametrize("n,subset", [(1, 1), (3, 0b101), (5, 0b11111), (6, 0b10)])
    def test_parity_spectrum_is_one_indicator(self, n, subset):
        coeffs = wht(from_values(n, parity_values(n, subset))).coefficients
        expected = np.zeros(1 << n)
        expected[subset] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-15)

    def test_constant_spectrum(self):
        coeffs = wht(from_values(2, [-1, -1, -1, -1])).coefficients
        np.testing.assert_allclose(coeffs, [-1.0, 0, 0, 0], atol=1e-15)

    def test_parseval_on_random_functions(self):
        for i in range(20):
            rng = np.random.default_rng([23, i])
            f = random_function(int(rng.integers(0, 11)), seed=rng)
            assert abs(wht(f).total_weight() - 1.0) < 1e-12

    def test_roundtrip_is_exact(self):
        # Coefficients are dyadic rationals, so the inverse pass loses nothing.
        for i in range(10):
            rng = np.random.default_rng([29, i])
            f = random_function(int(rng.integers(0, 13)), seed=rng)
            assert np.array_equal(synthesize(wht(f)), f.values.astype(np.float64))

    def test_synthesize_general_polynomial(self):
        # 0.25 + 0.5 x1 on two variables, evaluated at all four rows.
        spec = FourierSpectrum(2, [0.25, 0.5, 0.0, 0.0])
        np.testing.assert_allclose(synthesize(spec), [0.75, -0.25, 0.75, -0.25])

    def test_spectrum_rejects_wrong_length(self):
        with pytest.raises(InvalidInputError):
            FourierSpectrum(2, [1.0, 0.0])


class TestSummaries:
    def test_mean_frozen(self):
        assert mean(MAJ3) == 0.0
        assert mean(from_values(1, [1, 1])) == 1.0
        assert mean(from_values(2, [1, -1, -1, -1])) == -0.5

    def test_distance_to_dictator_frozen(self):
        dictator = from_values(3, parity_values(3, 0b001))
        assert distance(MAJ3, dictator) == 0.25
        assert distance(MAJ3, MAJ3) == 0.0

    def test_distance_rejects_arity_mismatch(self):
        with pytest.raises(InvalidInputError, match="mismatch"):
            distance(MAJ3, from_values(1, [1, -1]))

    def test_majority_oracle_agrees_with_call(self):
        f = from_values(5, majority_values(5))
        point = np.array([1, 1, -1, -1, 1])
        assert f(point) == 1


class TestJuntaPredicate:
    def test_dictator_masks(self):
        dictator = from_values(3, parity_values(3, 0b010))
        assert is_junta_on(dictator, 0b010)
        assert is_junta_on(dictator, 0b011)
        assert not is_junta_on(dictator, 0b101)

    def test_majority_needs_all_variables(self):
        assert is_junta_on(MAJ3, 0b111)
        assert not is_junta_on(MAJ3, 0b011)

    def test_constant_is_junta_on_nothing(self):
        assert is_junta_on(from_values(2, [1, 1, 1, 1]), 0)


class TestRandomAndIo:
    def test_random_function_is_seed_deterministic(self):
        assert random_function(8, seed=5) == random_function(8, seed=5)
        assert random_function(8, seed=5) != random_function(8, seed=6)
