"""Restrictions, bias profiles, energy and aggregation identities."""

import math

import numpy as np
import pytest

import hsf
from hsf import (
    BooleanFunction,
    InvalidInputError,
    NsAggregation,
    bias_profile,
    head_projection,
    ns_aggregation_check,
    ns_exact,
    random_function,
    restriction_energy_identity,
    wht,
)

from _oracles import (
    is_junta_on,
    parity_values,
    point_of_row,
    slow_bias_profile,
    slow_embed_junta,
    slow_restrict,
    slow_restricted_ns,
)


def _full_point(n, head, values, sub_row):
    """Compose a full-cube +-1 point from a head assignment and a tail row."""
    head_pos = [j for j in range(n) if (head >> j) & 1]
    rem_pos = [j for j in range(n) if not (head >> j) & 1]
    x = np.zeros(n, dtype=np.int64)
    for v, j in zip(values, head_pos):
        x[j] = v
    tail_point = point_of_row(len(rem_pos), sub_row)
    for v, j in zip(tail_point, rem_pos):
        x[j] = v
    return x


class TestRestrict:
    def test_matches_pointwise_evaluation(self):
        # Bit j of the packed index fixes the j-th smallest head coordinate,
        # and a set bit means -1: the oracle's gathered table agrees with f
        # point by point, and the aggregation check reports that table's
        # noise sensitivity at the same index.
        rng = np.random.default_rng(71)
        for _ in range(8):
            n = int(rng.integers(2, 9))
            f = random_function(n, seed=rng)
            head = int(rng.integers(1, 1 << n))
            h = head.bit_count()
            index = int(rng.integers(0, 1 << h))
            values = [-1 if (index >> j) & 1 else 1 for j in range(h)]
            g = BooleanFunction(n - h, slow_restrict(f.values, head, index, n))
            for sub_row in range(g.values.size):
                x = _full_point(n, head, values, sub_row)
                assert g.values[sub_row] == f(x)
            restricted = ns_aggregation_check(f, head, 0.1).restricted
            assert restricted[index] == ns_exact(wht(g), 0.1)

    def test_head_mask_validation(self):
        f = random_function(3, seed=0)
        for head in (1 << 3, -1):
            for route in (lambda: bias_profile(f, head),
                          lambda: ns_aggregation_check(f, head, 0.1)):
                with pytest.raises(InvalidInputError, match=r"head must be in \[0, 7\]"):
                    route()


class TestBiasProfile:
    def test_dictator_profile_frozen(self):
        f = BooleanFunction(3, parity_values(3, 0b001))
        biases = bias_profile(f, 0b001)
        np.testing.assert_array_equal(biases, [1.0, -1.0])
        assert not biases.flags.writeable

    def test_matches_restricted_means(self):
        rng = np.random.default_rng(73)
        for _ in range(6):
            n = int(rng.integers(2, 9))
            f = random_function(n, seed=rng)
            head = int(rng.integers(1, 1 << n))
            biases = bias_profile(f, head)
            for index in range(biases.size):
                g = slow_restrict(f.values, head, index, n)
                assert biases[index] == pytest.approx(np.mean(g), abs=1e-15)

    def test_head_past_sixteen(self):
        # No head cap: a 17-coordinate head reads every block, and so does
        # head_projection, whose blocks here are the rows of the table.
        f = random_function(17, seed=1)
        head = (1 << 17) - 1
        biases = bias_profile(f, head)
        assert biases.tobytes() == slow_bias_profile(f.values, range(17), 17).tobytes()
        projection = head_projection(f, head, 0.1)
        assert projection.approximator.arity == 17
        assert projection.approximator.values.tobytes() == f.values.tobytes()


class TestEnergyIdentity:
    def test_parity_frozen(self):
        # Restricting the 2-variable parity to either head value leaves a
        # +-dictator, whose squared tail coefficient is 1 on both sides.
        f = BooleanFunction(2, parity_values(2, 0b11))
        result = restriction_energy_identity(f, head=0b01, subset=0b10)
        assert result.lhs == pytest.approx(1.0, abs=1e-15)
        assert result.rhs == pytest.approx(1.0, abs=1e-15)
        assert result.gap <= 1e-15

    def test_random_gap_vanishes(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            f = random_function(n, seed=rng)
            head = int(rng.integers(1, 1 << n))
            complement = (~head) & ((1 << n) - 1)
            subset = int(rng.integers(0, 1 << n)) & complement
            result = restriction_energy_identity(f, head, subset)
            assert result.gap <= 1e-12

    def test_requires_disjoint_subset(self):
        f = random_function(4, seed=3)
        with pytest.raises(InvalidInputError, match="disjoint"):
            restriction_energy_identity(f, head=0b0011, subset=0b0110)


class TestAggregation:
    def test_parity_restrictions_frozen(self):
        f = BooleanFunction(2, parity_values(2, 0b11))
        result = ns_aggregation_check(f, head=0b01, epsilon=0.2)
        # Either restriction is a +-dictator with sensitivity epsilon.
        np.testing.assert_allclose(result.restricted, [0.2, 0.2], atol=1e-15)
        assert result.ns_value == pytest.approx(2 * 0.2 * 0.8, abs=1e-15)
        assert result.holds

    def test_random_triples_hold(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            f = random_function(n, seed=rng)
            head = int(rng.integers(1, 1 << n))
            eps = float(rng.choice([0.05, 0.1, 0.25, 0.5]))
            result = ns_aggregation_check(f, head, eps)
            assert result.holds
            assert result.ns_value >= result.restricted_mean - 1e-12
            assert result.ns_value == pytest.approx(
                ns_exact(wht(f), eps), abs=1e-15
            )

    def test_checks_arguments_before_any_transform(self, monkeypatch):
        # Every transform, of the parent or of the head cube's rows, goes
        # through the one Kronecker routine.
        def no_transform(*args, **kwargs):
            raise AssertionError("transformed before the argument checks")

        monkeypatch.setattr(hsf.fncore, "_hadamard_coefficients", no_transform)
        f = random_function(4, seed=2)
        with pytest.raises(InvalidInputError, match=r"^epsilon must be in \[0, 1\], got 1.5$"):
            ns_aggregation_check(f, 0b0101, 1.5)
        with pytest.raises(InvalidInputError, match=r"^head must be in \[0, 15\], got 16$"):
            ns_aggregation_check(f, 16, 0.1)

    def test_whole_head_past_sixteen_restricts_to_constants(self):
        # Every restriction to the whole head is a constant, whose noise
        # sensitivity is 0 at any noise rate.
        f = random_function(17, seed=2)
        result = ns_aggregation_check(f, (1 << 17) - 1, 0.1)
        assert result.restricted.size == 1 << 17
        assert not np.any(result.restricted)
        assert result.restricted_mean == 0.0 and result.holds

    def test_scattered_head_past_sixteen_matches_oracle(self):
        f = random_function(19, seed=3)
        head = sum(1 << c for c in (0, 1, 3, 4, 6, 8, 9, 11, 12, 14, 15, 17, 18))
        assert head.bit_count() == 13
        result = ns_aggregation_check(f, head, 0.25)
        assert result.restricted.tobytes() == slow_restricted_ns(f, head, 0.25).tobytes()
        assert result.ns_value == ns_exact(wht(f), 0.25) and result.holds

    def test_threshold_corollary_fires_and_holds(self):
        agg = NsAggregation(
            ns_value=0.15, restricted_mean=0.1,
            restricted=[0.2, 0.2, 0.0, 0.0], holds=True,
        )
        fired = agg.threshold_corollary(t=0.1, delta=0.25)
        assert fired.fires and fired.frac_exceeding == 0.5
        assert fired.implied_bound == pytest.approx(0.025, abs=1e-15)
        assert fired.holds
        quiet = agg.threshold_corollary(t=0.1, delta=0.6)
        assert not quiet.fires and quiet.implied_bound == 0.0 and quiet.holds

    def test_threshold_corollary_detects_contradiction(self):
        # Constructed numbers no real function can produce.
        agg = NsAggregation(
            ns_value=0.01, restricted_mean=0.5,
            restricted=[0.5, 0.5], holds=False,
        )
        result = agg.threshold_corollary(t=0.4, delta=0.3)
        assert result.fires and not result.holds

    def test_threshold_corollary_validation(self):
        agg = NsAggregation(ns_value=0.1, restricted_mean=0.1,
                            restricted=[0.1], holds=True)
        with pytest.raises(InvalidInputError):
            agg.threshold_corollary(t=-0.1, delta=0.5)
        with pytest.raises(InvalidInputError):
            agg.threshold_corollary(t=0.1, delta=1.0)
        for t, delta in ((math.nan, 0.5), (0.1, math.nan)):
            with pytest.raises(InvalidInputError):
                agg.threshold_corollary(t=t, delta=delta)


class TestEmbedJunta:
    # The bit-loop lift is the distance oracle of extract_junta's reports.
    def test_dictator_embeds_to_parity_table(self):
        lifted = slow_embed_junta(np.array([1, -1]), 0b100, 4)
        assert np.array_equal(lifted, parity_values(4, 0b100))

    def test_embedding_is_a_junta_and_projects_back(self):
        rng = np.random.default_rng(89)
        g = random_function(3, seed=rng)
        head = 0b10110
        lifted = BooleanFunction(5, slow_embed_junta(g.values, head, 5))
        assert is_junta_on(lifted, head)
        # Restricting the lifted function to any tail assignment recovers g.
        tail = ((1 << 5) - 1) & ~head
        recovered = slow_restrict(lifted.values, tail, 1, 5)
        assert np.array_equal(recovered, g.values)
