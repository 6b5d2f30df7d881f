"""Noise sensitivity routes, Gaussian surrogates, and inequality checks."""

import math

import numpy as np
import pytest

from hsf import noise
from hsf import (
    CapExceededError,
    InvalidInputError,
    bivariate_rectangle,
    boolean_pair_quadrant_mc,
    canonicalize,
    constant_bound_check,
    from_values,
    gaussian_cdf,
    gaussian_disagreement,
    gaussian_ns_bound,
    gaussian_ns_mc,
    gaussian_tail,
    hoeffding_radius,
    ns_bruteforce,
    ns_exact,
    ns_mc,
    random_function,
    regular_cdf_gap,
    tail_ratio,
    tail_ratio_check,
    wht,
)

from _oracles import (
    TAIL_RATIO_BAND_MAX,
    TAIL_RATIO_BAND_MIN,
    majority_values,
    mp_tail_ratio,
    parity_values,
)

MAJ3_SPECTRUM = wht(from_values(3, majority_values(3)))


class TestParams:
    def test_hoeffding_radius_frozen(self):
        assert hoeffding_radius(200_000) == pytest.approx(
            0.006022594486291647, abs=1e-18
        )
        assert hoeffding_radius(1_000_000) == pytest.approx(
            0.0026933861344527097, abs=1e-18
        )
        with pytest.raises(InvalidInputError):
            hoeffding_radius(0)


class TestNoiseSensitivityRoutes:
    def test_degree_weights_frozen(self):
        np.testing.assert_allclose(
            MAJ3_SPECTRUM.degree_weights, [0.0, 0.75, 0.0, 0.25], atol=1e-15
        )

    def test_degree_weights_of_parity(self):
        spec = wht(from_values(4, parity_values(4, 0b1011)))
        np.testing.assert_allclose(spec.degree_weights, [0, 0, 0, 1, 0], atol=1e-15)

    def test_majority3_frozen_value(self):
        assert ns_exact(MAJ3_SPECTRUM, 0.1) == pytest.approx(0.136, abs=1e-12)

    def test_dictator_closed_form(self):
        spec = wht(from_values(3, parity_values(3, 0b001)))
        for eps in (0.05, 0.2, 0.5):
            assert ns_exact(spec, eps) == pytest.approx(eps, abs=1e-15)

    def test_parity_closed_form(self):
        spec = wht(from_values(2, parity_values(2, 0b11)))
        for eps in (0.05, 0.2, 0.5):
            assert ns_exact(spec, eps) == pytest.approx(
                2 * eps * (1 - eps), abs=1e-15
            )

    def test_edge_epsilons(self):
        assert ns_exact(MAJ3_SPECTRUM, 0.0) == 0.0
        # Flipping every coordinate negates an odd function.
        assert ns_exact(MAJ3_SPECTRUM, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_exact_equals_bruteforce(self):
        for i in range(12):
            rng = np.random.default_rng([31, i])
            f = random_function(int(rng.integers(1, 9)), seed=rng)
            for eps in (0.05, 0.1, 0.25, 0.5):
                assert ns_exact(wht(f), eps) == pytest.approx(
                    ns_bruteforce(f, eps), abs=1e-12
                )

    def test_bruteforce_cap(self):
        with pytest.raises(CapExceededError):
            ns_bruteforce(random_function(13, seed=0), 0.1)

    def test_epsilon_validation(self):
        with pytest.raises(InvalidInputError):
            ns_exact(MAJ3_SPECTRUM, -0.01)
        with pytest.raises(InvalidInputError):
            ns_bruteforce(from_values(1, [1, -1]), 1.01)

    def test_mc_within_radius_of_exact(self):
        f = from_values(5, majority_values(5))
        exact = ns_exact(wht(f), 0.2)
        est = ns_mc(f, 0.2, samples=200_000, seed=51)
        assert abs(est.value - exact) <= est.radius
        assert est.samples == 200_000

    def test_mc_deterministic_and_ltf_compatible(self):
        # A threshold function and its dense table see identical draws.
        lt = canonicalize(np.ones(5), 0.0)
        table = from_values(5, majority_values(5))
        a = ns_mc(lt, 0.25, samples=50_000, seed=53)
        b = ns_mc(table, 0.25, samples=50_000, seed=53)
        assert a.value == b.value
        assert ns_mc(lt, 0.25, samples=50_000, seed=53).value == a.value

    def test_mc_rejects_other_callables(self):
        with pytest.raises(InvalidInputError, match="BooleanFunction or Ltf"):
            ns_mc(lambda x: 1, 0.1, samples=10, seed=0)


class TestGaussianTail:
    def test_tail_frozen_and_symmetric(self):
        assert gaussian_tail(0.0) == 0.5
        assert gaussian_tail(1.0) == pytest.approx(0.15865525393145707, abs=1e-16)
        for t in (0.3, 1.7, 4.0):
            assert gaussian_tail(-t) == pytest.approx(1 - gaussian_tail(t), abs=1e-15)
            assert gaussian_cdf(t) == pytest.approx(1 - gaussian_tail(t), abs=1e-15)

    def test_cdf_is_the_erfc_formula_bit_for_bit(self):
        from scipy import special

        t = np.concatenate([
            5.0 * np.random.default_rng(7).standard_normal(10_000),
            [0.0, -0.0, math.inf, -math.inf, math.nan, 40.0, -40.0, 1e-300, -1e-300],
        ])
        expected = 0.5 * special.erfc(-t / math.sqrt(2.0))
        assert gaussian_cdf(t).tobytes() == expected.tobytes()
        assert isinstance(gaussian_cdf([0.0, 1.0]), np.ndarray)
        assert type(gaussian_cdf(np.asarray(1.0))) is float
        assert type(gaussian_cdf(1.0)) is float

    def test_tail_ratio_frozen(self):
        assert tail_ratio(0.0) == 0.5
        assert tail_ratio(1.0) == pytest.approx(0.5231565837302469, abs=1e-15)
        assert tail_ratio(1.0) == pytest.approx(mp_tail_ratio(1.0), abs=1e-13)

    def test_tail_ratio_domain(self):
        for t in (-0.01, 37.5, math.inf, math.nan):
            with pytest.raises(InvalidInputError):
                tail_ratio(t)

    def test_band_frozen_and_cross_checked(self):
        grid = np.linspace(0.0, 10.0, 1001)
        band = tail_ratio_check(grid)
        assert band.minimum == pytest.approx(TAIL_RATIO_BAND_MIN, abs=1e-13)
        assert band.maximum == pytest.approx(TAIL_RATIO_BAND_MAX, abs=1e-13)
        # High-precision oracle at the band's extremes.
        assert band.minimum == pytest.approx(mp_tail_ratio(10.0), abs=1e-12)
        idx = int(np.argmax(tail_ratio(grid)))
        assert band.maximum == pytest.approx(mp_tail_ratio(grid[idx]), abs=1e-12)

    def test_band_rejects_empty_grid(self):
        with pytest.raises(InvalidInputError, match="nonempty"):
            tail_ratio_check([])


class TestGaussianPairs:
    def test_bound_frozen_values(self):
        assert gaussian_ns_bound(0.0, 0.5) == pytest.approx(0.5, abs=1e-16)
        assert gaussian_ns_bound(1.0, 0.5) == pytest.approx(
            0.18393972058572117, abs=1e-16
        )
        assert gaussian_ns_bound(2.0, 0.0) == 0.0

    def test_bound_validation(self):
        with pytest.raises(InvalidInputError):
            gaussian_ns_bound(0.0, 0.6)
        with pytest.raises(InvalidInputError):
            gaussian_ns_bound(math.inf, 0.1)

    def test_quadrant_independence(self):
        assert bivariate_rectangle((0, math.inf), (0, math.inf), 0.0) == pytest.approx(
            0.25, abs=1e-14
        )

    def test_quadrant_closed_form(self):
        # P[X >= 0, Y >= 0] = 1/4 + asin(rho) / (2 pi).
        for rho in (-0.9, -0.3, 0.5, 0.8):
            expected = 0.25 + math.asin(rho) / (2 * math.pi)
            assert bivariate_rectangle(
                (0, math.inf), (0, math.inf), rho
            ) == pytest.approx(expected, abs=1e-13)

    def test_full_plane_and_degenerate_correlations(self):
        inf = math.inf
        assert bivariate_rectangle((-inf, inf), (-inf, inf), 0.3) == pytest.approx(
            1.0, abs=1e-14
        )
        assert bivariate_rectangle((1, inf), (0.5, inf), 1.0) == pytest.approx(
            gaussian_tail(1.0), abs=1e-14
        )
        assert bivariate_rectangle((0.5, inf), (0.5, inf), -1.0) == 0.0

    def test_rectangle_additivity(self):
        a = bivariate_rectangle((-1, 0), (-0.5, 2), 0.6)
        b = bivariate_rectangle((0, 1), (-0.5, 2), 0.6)
        c = bivariate_rectangle((-1, 1), (-0.5, 2), 0.6)
        assert a + b == pytest.approx(c, abs=1e-12)

    def test_rectangle_validation(self):
        with pytest.raises(InvalidInputError, match=r"interval hi must be in \[1, inf\]"):
            bivariate_rectangle((1, 0), (0, 1), 0.0)
        with pytest.raises(InvalidInputError, match="pair"):
            bivariate_rectangle(3, (0, 1), 0.0)
        with pytest.raises(InvalidInputError, match="rho"):
            bivariate_rectangle((0, 1), (0, 1), 1.5)

    def test_disagreement_sheppard(self):
        for rho in (0.0, 0.5, 0.9):
            assert gaussian_disagreement(0.0, rho) == pytest.approx(
                math.acos(rho) / math.pi, abs=1e-12
            )

    def test_disagreement_independent_threshold(self):
        t = gaussian_tail(1.0)
        assert gaussian_disagreement(1.0, 0.0) == pytest.approx(
            2 * t * (1 - t), abs=1e-13
        )

    def test_bound_is_tight_at_zero_threshold(self):
        for eps in (0.05, 0.25, 0.5):
            rho = 1 - 2 * eps
            assert gaussian_disagreement(0.0, rho) == pytest.approx(
                gaussian_ns_bound(0.0, eps), abs=1e-12
            )

    def test_mc_matches_exact_disagreement(self):
        exact = gaussian_disagreement(0.5, 0.7)
        est = gaussian_ns_mc(0.5, 0.7, samples=200_000, seed=57)
        assert abs(est.value - exact) <= est.radius
        again = gaussian_ns_mc(0.5, 0.7, samples=200_000, seed=57)
        assert again.value == est.value


class TestChecks:
    def test_constant_bound_on_majority(self):
        check = constant_bound_check(MAJ3_SPECTRUM, 0.1)
        assert check.bound == pytest.approx(0.1, abs=1e-15)
        assert check.ns_value == pytest.approx(0.136, abs=1e-12)
        assert check.holds

    def test_constant_bound_random(self):
        for i in range(20):
            rng = np.random.default_rng([59, i])
            spec = wht(random_function(int(rng.integers(1, 10)), seed=rng))
            for eps in (0.1, 0.4):
                check = constant_bound_check(spec, eps)
                assert check.holds
                assert check.ns_value >= check.bound - 1e-12

    def test_cdf_gap_frozen(self):
        maj16 = canonicalize(np.ones(16), 0.0)
        assert regular_cdf_gap(maj16) == pytest.approx(0.0981903076171875, abs=1e-15)
        geo = canonicalize(0.999 ** np.arange(1, 17), 0.0)
        assert regular_cdf_gap(geo) == pytest.approx(0.09273928919957658, abs=1e-12)
        grid = np.linspace(-4, 4, 401)
        assert regular_cdf_gap(geo, t_grid=grid) == pytest.approx(
            0.0902119939002855, abs=1e-12
        )

    def test_grid_gap_never_exceeds_exact_sup(self):
        rng = np.random.default_rng(61)
        grid = np.linspace(-5, 5, 201)
        for _ in range(5):
            lt = canonicalize(rng.standard_normal(9), 0.0)
            assert regular_cdf_gap(lt, t_grid=grid) <= regular_cdf_gap(lt) + 1e-15

    def test_gap_shrinks_with_regularity(self):
        wide = regular_cdf_gap(canonicalize(np.ones(4), 0.0))
        narrow = regular_cdf_gap(canonicalize(np.ones(16), 0.0))
        assert narrow < wide

    def test_gap_rejects_empty_grid(self):
        with pytest.raises(InvalidInputError, match="nonempty"):
            regular_cdf_gap(canonicalize(np.ones(4), 0.0), t_grid=[])

    def test_gap_grid_rejects_nan_and_takes_infinities(self):
        lt = canonicalize(np.ones(4), 0.0)
        with pytest.raises(InvalidInputError, match="NaN"):
            regular_cdf_gap(lt, t_grid=[0.5, math.nan])
        assert regular_cdf_gap(lt, t_grid=[-math.inf, math.inf]) == 0.0

    def test_quadrant_mc_on_dictator(self):
        # One active coordinate: the joint probability is (1 - eps) / 2.
        lt = canonicalize([1.0, 0.0], 0.0)
        cmp = boolean_pair_quadrant_mc(
            lt, (0, math.inf), (0, math.inf), 0.2, samples=50_000, seed=63
        )
        assert abs(cmp.boolean.value - 0.4) <= cmp.boolean.radius
        assert cmp.gaussian == pytest.approx(
            0.25 + math.asin(0.6) / (2 * math.pi), abs=1e-13
        )
        assert cmp.gap == pytest.approx(abs(cmp.boolean.value - cmp.gaussian), abs=0)


class TestSeededMonteCarlo:
    # 300,001 samples are two full draw chunks of 2**17 and a short tail, so
    # these pins move if the chunking or the order of generator calls does.
    SAMPLES = 300_001

    def test_ns_mc_pinned(self):
        est = ns_mc(canonicalize(np.ones(5), 0.0), 0.2, self.SAMPLES, seed=61)
        assert est.value == 0.267312442291859

    def test_gaussian_ns_mc_pinned(self):
        assert gaussian_ns_mc(0.5, 0.7, self.SAMPLES, seed=62).value == 0.2210625964580118

    def test_quadrant_mc_pinned(self):
        cmp = boolean_pair_quadrant_mc(
            canonicalize(np.ones(16), 0.0), (0, math.inf), (0, math.inf), 0.1,
            self.SAMPLES, seed=63,
        )
        assert cmp.boolean.value == 0.5066349778834071

    def test_flips_in_row_blocks_keep_the_stream_of_one_draw(self):
        # A chunk that is not a whole number of row blocks.
        m, n, eps = 3 * noise._FLIP_ROWS + 5, 3, 0.3
        x, y = noise._flipped_pair(np.random.default_rng(64), m, n, eps)
        rng = np.random.default_rng(64)
        x_one = 1 - 2 * rng.integers(0, 2, size=(m, n), dtype=np.int8)
        flips = rng.random(size=(m, n)) < eps
        assert x.tobytes() == x_one.tobytes()
        assert y.tobytes() == np.where(flips, -x_one, x_one).tobytes()
