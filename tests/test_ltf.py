"""Canonical threshold functions, regularity profiles, and critical indices."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsf import (
    DegenerateLtfError,
    INFINITE_INDEX,
    InvalidInputError,
    CapExceededError,
    Ltf,
    canonical_linear_form,
    canonical_table,
    canonicalize,
    critical_index,
    head_mask,
    linear_form,
    load_ltf_file,
    parse_theta_law,
    random_ltf,
    regularity_profile,
    save_ltf_file,
    truth_table,
)

from _oracles import majority_values, point_of_row


class TestCanonicalize:
    def test_two_weight_frozen(self):
        lt = canonicalize([3.0, 4.0], 0.0)
        np.testing.assert_allclose(lt.weights, [0.8, 0.6], atol=1e-15)
        assert lt.original_index.tolist() == [1, 0]
        assert lt.theta == 0.0
        assert lt.dropped == ()
        assert lt.n_inputs == 2
        assert lt.n_active == 2

    def test_zero_weights_dropped_and_recorded(self):
        lt = canonicalize([0.0, 2.0, 0.0, -2.0, 1.0], 3.0)
        np.testing.assert_allclose(lt.weights, [2 / 3, -2 / 3, 1 / 3], atol=1e-15)
        assert lt.original_index.tolist() == [1, 3, 4]
        assert lt.dropped == (0, 2)
        assert lt.theta == pytest.approx(1.0, abs=1e-15)
        assert lt.n_inputs == 5
        assert lt.n_active == 3

    def test_ties_break_by_original_coordinate(self):
        lt = canonicalize([1.0, -1.0, 1.0], 0.0)
        assert lt.original_index.tolist() == [0, 1, 2]

    def test_unit_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = rng.standard_normal(int(rng.integers(1, 12)))
            if not np.any(w):
                continue
            lt = canonicalize(w, rng.standard_normal())
            assert np.linalg.norm(lt.weights) == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(np.abs(lt.weights)) <= 1e-15)

    def test_canonicalizing_twice_is_identity(self):
        lt = canonicalize([5.0, -2.0, 0.5], 1.5)
        again = canonicalize(lt.weights, lt.theta)
        np.testing.assert_allclose(again.weights, lt.weights, atol=1e-15)
        assert again.theta == pytest.approx(lt.theta, abs=1e-15)
        assert again.original_index.tolist() == [0, 1, 2]

    def test_degenerate_and_invalid_inputs(self):
        with pytest.raises(DegenerateLtfError, match="all weights are zero"):
            canonicalize([0.0, 0.0], 1.0)
        with pytest.raises(InvalidInputError, match="finite"):
            canonicalize([1.0, np.inf], 0.0)
        with pytest.raises(InvalidInputError, match=r"theta must be in \(-inf, inf\)"):
            canonicalize([1.0], math.nan)
        with pytest.raises(InvalidInputError, match="nonempty"):
            canonicalize([], 0.0)
        with pytest.raises(InvalidInputError, match="nonempty"):
            canonicalize(np.ones((2, 2)), 0.0)

    @pytest.mark.parametrize("k", [-1000, -1, 1, 1000])
    def test_power_of_two_scaling_leaves_table_unchanged(self, k):
        rng = np.random.default_rng(5)
        for _ in range(10):
            w = rng.standard_normal(int(rng.integers(1, 10)))
            theta = float(rng.standard_normal())
            lt = canonicalize(w, theta)
            scaled = canonicalize(np.ldexp(w, k), math.ldexp(theta, k))
            assert scaled.weights.tobytes() == lt.weights.tobytes()
            assert scaled.theta == lt.theta
            assert np.array_equal(truth_table(scaled).values, truth_table(lt).values)

    def test_extreme_scales(self):
        # The norm of [1e308, 1e308, 1] overflows and that of [1e-320, 1e-320]
        # underflows unless the weights are rescaled before it is taken.
        huge = truth_table(canonicalize([1e308, 1e308, 1.0], 0.0))
        wide = truth_table(canonicalize([1.0, 1.0, 1e-300], 0.0))
        assert np.array_equal(huge.values, wide.values)
        assert len(set(huge.values.tolist())) == 2
        tiny = truth_table(canonicalize([1e-320, 1e-320], 0.0))
        assert np.array_equal(tiny.values, truth_table(canonicalize([1.0, 1.0], 0.0)).values)
        with pytest.raises(InvalidInputError, match="theta"):
            canonicalize([1e-300, 1e-300], 1e300)


# Fields of a valid two-input Ltf that each bad case below overrides.
_GOOD_FIELDS = dict(weights=[0.8, 0.6], theta=0.0, original_index=[1, 0], dropped=(), n_inputs=2)
_PARTITION = r"original_index and dropped must hold each of range\(n_inputs\) once"


class TestLtfInvariants:
    @pytest.mark.parametrize("fields, message", [
        pytest.param(dict(weights=[0.6, 0.8], original_index=[0, 1], n_inputs=1),
                     "non-increasing magnitude", id="increasing-weights-past-arity"),
        pytest.param(dict(weights=[0.6, -0.8]), "non-increasing magnitude",
                     id="increasing-magnitude"),
        pytest.param(dict(original_index=[0, 5]), _PARTITION, id="index-past-arity"),
        pytest.param(dict(original_index=[0, 0]), _PARTITION, id="index-repeated"),
        pytest.param(dict(dropped=(2,)), _PARTITION, id="dropped-past-arity"),
        pytest.param(dict(dropped=(1,), n_inputs=3), _PARTITION, id="dropped-also-active"),
        pytest.param(dict(n_inputs=3), _PARTITION, id="coordinate-missing"),
        pytest.param(dict(original_index=[0]), "one int coordinate per weight", id="index-short"),
        pytest.param(dict(original_index=[0.0, 1.0]), "one int coordinate per weight",
                     id="index-float"),
        pytest.param(dict(weights=[np.nan, 0.6]), "weights must be finite", id="nan-weight"),
        pytest.param(dict(weights=[np.inf, 0.6]), "weights must be finite", id="inf-weight"),
        pytest.param(dict(weights=[[0.8, 0.6]]), "nonempty 1-D", id="2d-weights"),
        pytest.param(dict(weights=[], original_index=[], n_inputs=0), "nonempty 1-D",
                     id="no-weights"),
        pytest.param(dict(theta=math.nan), r"theta must be in \(-inf, inf\)", id="nan-theta"),
        pytest.param(dict(theta=math.inf), r"theta must be in \(-inf, inf\)", id="inf-theta"),
        pytest.param(dict(n_inputs=2.0), "n_inputs must be an int", id="float-arity"),
        pytest.param(dict(dropped=(1.5,), n_inputs=3), "dropped coordinate must be an int",
                     id="float-dropped"),
    ])
    def test_bad_fields_are_refused(self, fields, message):
        with pytest.raises(InvalidInputError, match=message):
            Ltf(**{**_GOOD_FIELDS, **fields})

    def test_good_fields_are_kept(self):
        lt = Ltf(**{**_GOOD_FIELDS, "dropped": [2], "n_inputs": np.int64(3), "theta": 1})
        assert lt.dropped == (2,) and type(lt.n_inputs) is int and type(lt.theta) is float
        assert not lt.weights.flags.writeable and not lt.original_index.flags.writeable
        assert truth_table(lt).values.tolist() == canonical_table(lt).values[
            [0, 2, 1, 3, 4, 6, 5, 7]].tolist()

    def test_an_underflowed_active_weight_is_kept(self):
        lt = canonicalize([1e308, 1e-308], 0.0)
        assert lt.weights.tolist() == [1.0, 0.0] and lt.dropped == ()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(-300, 299), st.integers(0, 2**32 - 1))
    def test_every_canonical_form_rebuilds(self, n, scale, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(n) * 10.0 ** (scale + rng.integers(-8, 9, size=n))
        w[rng.random(n) < 0.2] = 0.0
        if not np.any(w):
            w[0] = 10.0**scale
        theta = float(rng.standard_normal()) * float(np.max(np.abs(w)))
        lt = canonicalize(w, theta)
        again = Ltf(lt.weights, lt.theta, lt.original_index, lt.dropped, lt.n_inputs)
        assert again.weights.tobytes() == lt.weights.tobytes()
        assert again.original_index.tolist() == lt.original_index.tolist()
        assert (again.theta, again.dropped, again.n_inputs) == (lt.theta, lt.dropped, lt.n_inputs)


class TestEvaluation:
    def test_sign_zero_is_plus_one(self):
        lt = canonicalize([1.0, 1.0], 0.0)
        assert lt([1, -1]) == 1
        assert lt([-1, 1]) == 1
        assert lt([-1, -1]) == -1

    def test_linear_form_matches_dot_product(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal(9)
        lt = canonicalize(w, 0.0)
        x = 1 - 2 * rng.integers(0, 2, size=(40, 9)).astype(np.float64)
        expected = x @ (w / np.linalg.norm(w))
        np.testing.assert_allclose(linear_form(lt, x), expected, atol=1e-12)

    def test_dropped_coordinates_are_ignored(self):
        lt = canonicalize([0.0, 1.0], 0.0)
        assert lt([1, 1]) == lt([-1, 1]) == 1
        assert lt([1, -1]) == -1

    def test_call_rejects_bad_points(self):
        lt = canonicalize([1.0, 1.0], 0.0)
        with pytest.raises(InvalidInputError, match="coordinates"):
            lt(np.array([1, 1, 1]))
        with pytest.raises(InvalidInputError, match=r"\+-1"):
            lt(np.array([1, 2]))

    def test_table_and_call_agree_bit_for_bit(self):
        # The dense table and pointwise evaluation share one accumulation
        # order, so near-threshold rows cannot disagree by rounding.
        rng = np.random.default_rng(7)
        for trial in range(5):
            n = int(rng.integers(1, 11))
            lt = canonicalize(rng.standard_normal(n), 0.1 * rng.standard_normal())
            table = truth_table(lt)
            rows = np.arange(1 << n)
            points = 1 - 2 * ((rows[:, None] >> np.arange(n)[None, :]) & 1)
            assert np.array_equal(table.values, lt(points))

    def test_majority_truth_table(self):
        lt = canonicalize(np.ones(5), 0.0)
        assert np.array_equal(truth_table(lt).values, majority_values(5))

    def test_table_cap(self):
        lt = canonicalize(np.ones(6), 0.0)
        with pytest.raises(CapExceededError):
            truth_table(lt, cap=5)
        # The cap is checked before the 2^n result is allocated (64 MiB here).
        wide = canonicalize(np.ones(26), 0.0)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="^arity 26 exceeds cap 20$"):
                truth_table(wide)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_linear_form_table_matches_rows(self):
        lt = canonicalize([3.0, -1.0, 2.0], 0.5)
        table = canonical_linear_form(lt)
        for row in range(8):  # row bit p is the coordinate at sorted position p
            x = np.empty(3)
            x[lt.original_index] = point_of_row(3, row)
            assert table[row] == linear_form(lt, x)[0]


class TestRegularity:
    LT = canonicalize([4.0, 2.0, 1.0, 1.0, 1.0, 1.0], 0.0)

    def test_tail_norms_frozen(self):
        prof = regularity_profile(self.LT)
        np.testing.assert_allclose(
            prof.tail_norms,
            [1.0, 0.5773502691896258, 0.4082482904638631,
             0.3535533905932738, 0.2886751345948129, 0.20412414523193154],
            atol=1e-15,
        )
        assert prof.tau_star == pytest.approx(0.8164965809277261, abs=1e-15)

    def test_critical_index_frozen(self):
        assert critical_index(self.LT, 0.5) == 3
        assert critical_index(self.LT, 0.8) == 2
        assert critical_index(self.LT, 0.1) == INFINITE_INDEX

    def test_dictator_critical_index(self):
        lt = canonicalize([1.0], 0.0)
        assert critical_index(lt, 0.5) == INFINITE_INDEX
        assert critical_index(lt, 1.0) == 1

    def test_equal_weights_hit_at_exact_threshold(self):
        # Equal weights give dyadic squares, so tau = n^-1/2 is hit exactly.
        lt = canonicalize(np.ones(16), 0.0)
        assert critical_index(lt, 0.25) == 1
        assert critical_index(lt, 0.24) == INFINITE_INDEX

    def test_index_at_tau_star_is_one(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            lt = canonicalize(rng.standard_normal(8), 0.0)
            assert critical_index(lt, regularity_profile(lt).tau_star) == 1

    def test_tau_range(self):
        for tau in (0.0, -0.5, 1.5, math.nan):
            with pytest.raises(InvalidInputError, match="tau"):
                critical_index(self.LT, tau)

    def test_head_mask(self):
        lt = canonicalize([1.0, 3.0, 0.0, 2.0], 0.0)
        assert [head_mask(lt, size) for size in range(4)] == [0, 0b0010, 0b1010, 0b1011]

    @pytest.mark.parametrize("size", [-1, 4, 99, 1.5, True])
    def test_head_mask_validates_size(self, size):
        lt = canonicalize([1.0, 3.0, 0.0, 2.0], 0.0)
        with pytest.raises(InvalidInputError, match="size"):
            head_mask(lt, size)


class TestThetaLawAndFamilies:
    def test_parse_theta_law_forms(self):
        assert parse_theta_law("zero") == ("zero", 0.0)
        assert parse_theta_law("fixed:-1.25") == ("fixed", -1.25)
        assert parse_theta_law("gaussian:2") == ("gaussian", 2.0)

    @pytest.mark.parametrize(
        "law", ["", "zero:1", "fixed", "fixed:abc", "gaussian:-1", "gaussian:inf", "norm:1"]
    )
    def test_parse_theta_law_rejects(self, law):
        with pytest.raises(InvalidInputError):
            parse_theta_law(law)

    def test_equal_family(self):
        lt = random_ltf(6, "equal", seed=1)
        np.testing.assert_allclose(lt.weights, np.full(6, 1 / math.sqrt(6)), atol=1e-15)
        assert lt.theta == 0.0

    def test_old_family_aliases_are_refused(self):
        # One spelling per family, so a sweep's family column has one too.
        for alias in ("equal-weights", "gaussian-weights", "geometric-decay"):
            with pytest.raises(InvalidInputError, match=f"unknown family '{alias}'"):
                random_ltf(5, alias, seed=9)

    def test_geometric_family(self):
        lt = random_ltf(4, "geometric", rate=0.5, seed=2)
        raw = 0.5 ** np.arange(1, 5)
        np.testing.assert_allclose(lt.weights, raw / np.linalg.norm(raw), atol=1e-15)

    def test_geometric_requires_rate(self):
        with pytest.raises(InvalidInputError, match="^family 'geometric' needs a rate$"):
            random_ltf(4, "geometric")
        with pytest.raises(InvalidInputError, match="rate"):
            random_ltf(4, "geometric", rate=1.0)

    def test_rate_rejected_elsewhere(self):
        with pytest.raises(InvalidInputError, match="no rate"):
            random_ltf(4, "equal", rate=0.5)

    def test_unknown_family(self):
        with pytest.raises(InvalidInputError, match="unknown family"):
            random_ltf(4, "uniform")

    def test_seed_determinism_and_weight_sharing(self):
        a = random_ltf(7, "gaussian", theta_law="gaussian:1", seed=42)
        b = random_ltf(7, "gaussian", theta_law="gaussian:1", seed=42)
        assert np.array_equal(a.weights, b.weights) and a.theta == b.theta
        # Same seed, different theta law: identical weights, different theta.
        c = random_ltf(7, "gaussian", theta_law="zero", seed=42)
        assert np.array_equal(a.weights, c.weights)
        assert c.theta == 0.0 and a.theta != 0.0

    def test_fixed_theta_law_is_canonical(self):
        lt = random_ltf(3, "equal", theta_law="fixed:0.5", seed=0)
        assert lt.theta == pytest.approx(0.5 / math.sqrt(3), abs=1e-15)

    def test_bad_n(self):
        with pytest.raises(InvalidInputError, match=r"n must be in \[1, inf\]"):
            random_ltf(0, "equal")


class TestLtfFiles:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "halfspace.json"
        save_ltf_file(path, [3.0, 4.0], 1.0)
        lt = load_ltf_file(path)
        np.testing.assert_allclose(lt.weights, [0.8, 0.6], atol=1e-15)
        assert lt.theta == pytest.approx(0.2, abs=1e-15)

    def test_file_is_plain_json(self, tmp_path):
        path = tmp_path / "halfspace.json"
        save_ltf_file(path, [1.0, 2.0], -0.5)
        doc = json.loads(path.read_text())
        assert doc == {"weights": [1.0, 2.0], "theta": -0.5}

    @pytest.mark.parametrize(
        "doc,message",
        [
            ("[]", "must be an object"),
            ('{"theta": 1.0}', "missing field 'weights'"),
            ('{"weights": [1.0]}', "missing field 'theta'"),
            ('{"weights": [], "theta": 0}', "'weights'"),
            ('{"weights": [1, "x"], "theta": 0}', "'weights'"),
            ('{"weights": [1.0], "theta": true}', "'theta'"),
            ('{"weights": [1.0], "theta": 0', "well-formed"),
        ],
    )
    def test_malformed_documents(self, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(doc)
        with pytest.raises(InvalidInputError, match=message):
            load_ltf_file(path)
