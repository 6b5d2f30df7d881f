"""Extraction engine: budgets, case routing, projections, and verdicts."""

import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from hsf import (
    BooleanFunction,
    CapExceededError,
    INFINITE_INDEX,
    InvalidInputError,
    JuntaCase,
    bias_profile,
    canonicalize,
    extract_junta,
    head_projection,
    junta_budget,
    premise_bound,
    prepare,
    random_function,
    random_ltf,
    theorem_verify,
    truth_table,
)
from hsf.fncore import MAX_ARITY_CAP

from _oracles import is_junta_on, junta_distance, slow_embed_junta

EPS = 0.25
WIDE_DELTA = 0.62  # small enough premise, large enough to dodge the small-delta guard
HUGE_DELTA = 0.95


class TestBudgetAndPremise:
    def test_budget_frozen_values(self):
        assert junta_budget(0.1, 0.1) == 531
        assert junta_budget(math.exp(-1), math.exp(-1)) == 8
        assert junta_budget(EPS, WIDE_DELTA) == 11
        assert junta_budget(EPS, HUGE_DELTA) == 2
        assert junta_budget(0.5, 1.0) == 1

    def test_budget_scales_with_constant(self):
        assert junta_budget(0.1, 0.1, c_l=2.0) == math.ceil(
            2 * 0.1**-2 * math.log(10) * math.log(10)
        )
        with pytest.raises(InvalidInputError):
            junta_budget(0.1, 0.1, c_l=0.0)

    @pytest.mark.parametrize("eps,c_l", [(1e-200, 1.0), (0.1, 1e308)])
    def test_budget_overflow_is_an_input_error(self, eps, c_l):
        # eps**-2 overflows at the first; ceil(inf) at the second.
        with pytest.raises(InvalidInputError, match="budget L is not finite"):
            junta_budget(eps, 0.1, c_l=c_l)

    def test_premise_bound_frozen(self):
        assert premise_bound(0.1, 0.1) == pytest.approx(
            0.002448436746822227, abs=1e-18
        )
        assert premise_bound(0.1, 0.1, c_ns=2.0) == pytest.approx(
            2 * 0.002448436746822227, abs=1e-17
        )

    @pytest.mark.parametrize("eps,delta", [(0.0, 0.5), (0.6, 0.5), (0.1, 0.0), (0.1, 1.1)])
    def test_range_validation(self, eps, delta):
        with pytest.raises(InvalidInputError):
            junta_budget(eps, delta)
        with pytest.raises(InvalidInputError):
            premise_bound(eps, delta)

    def test_config_validation(self):
        lt = canonicalize(np.ones(3), 0.0)
        with pytest.raises(InvalidInputError):
            extract_junta(lt, 0.1, 0.1, c_ns=0.0)
        # The arity cap is prepare's alone.
        assert list(inspect.signature(extract_junta).parameters) == [
            "instance", "epsilon", "delta", "c_ns", "c_l"]
        with pytest.raises(CapExceededError, match="^arity 3 exceeds cap 0$"):
            prepare(lt, cap=0)
        assert prepare(lt, cap=MAX_ARITY_CAP).table.arity == 3
        with pytest.raises(InvalidInputError, match=r"^cap must be in \[0, 24\], got 25$"):
            prepare(lt, cap=MAX_ARITY_CAP + 1)

    @pytest.mark.parametrize("cap", [4.5, 20.0, True, np.bool_(True), "20", None])
    def test_arity_cap_must_be_an_int(self, cap):
        lt = canonicalize(np.ones(4), 0.0)
        with pytest.raises(InvalidInputError, match="cap must be an int"):
            prepare(lt, cap=cap)
        assert prepare(lt, cap=np.int64(4)).table.arity == 4

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_constants_must_be_finite(self, value):
        lt = canonicalize(np.ones(3), 0.0)
        with pytest.raises(InvalidInputError, match=r"c_ns must be in \(0, inf\)"):
            extract_junta(lt, 0.1, 0.1, c_ns=value)
        with pytest.raises(InvalidInputError, match=r"c_l must be in \(0, inf\)"):
            extract_junta(lt, 0.1, 0.1, c_l=value)
        with pytest.raises(InvalidInputError, match="c_l"):
            junta_budget(0.1, 0.1, c_l=value)
        with pytest.raises(InvalidInputError, match="c_ns"):
            premise_bound(0.1, 0.1, c_ns=value)


class TestHeadConstructions:
    def test_best_junta_is_exhaustively_optimal(self):
        f = random_function(4, seed=97)
        head = 0b0101
        best = np.where(bias_profile(f, head) >= 0, 1, -1)
        best_dist = junta_distance(f.values, best, head, 4)
        for bits in range(1 << 4):
            candidate = [1 if (bits >> i) & 1 else -1 for i in range(4)]
            rival = junta_distance(f.values, candidate, head, 4)
            assert best_dist <= rival + 1e-15

    def test_head_projection_mixed_blocks(self):
        # Block x0=+1 is balanced, block x0=-1 is constant -1.
        f = BooleanFunction(3, [1, -1, 1, -1, -1, -1, -1, -1])
        loose = head_projection(f, head=0b001, delta=0.6)
        assert loose.certified
        assert loose.frac_unbiased == 0.5
        assert loose.residual_sq == pytest.approx(0.0, abs=1e-15)
        assert np.array_equal(loose.approximator.values, [1, -1])
        assert junta_distance(f.values, loose.approximator.values, 0b001, 3) == 0.25 <= 3 * 0.6
        tight = head_projection(f, head=0b001, delta=0.3)
        assert not tight.certified and tight.frac_unbiased == 0.5

    def test_head_projection_frac_unbiased_boundaries(self):
        # Head 0b11 blocks, by packed index, have biases 0, 0.5, -1 and 1.
        blocks = [[1, -1, 1, -1], [1, 1, 1, -1], [-1, -1, -1, -1], [1, 1, 1, 1]]
        f = BooleanFunction(4, [blocks[row & 0b11][row >> 2] for row in range(16)])
        np.testing.assert_array_equal(bias_profile(f, 0b11), [0.0, 0.5, -1.0, 1.0])
        # |bias| = 1 - delta counts as unbiased; delta = 1 leaves only bias 0.
        assert head_projection(f, 0b11, 0.5).frac_unbiased == 0.5
        assert head_projection(f, 0b11, 1.0).frac_unbiased == 0.25
        assert head_projection(f, 0b11, 0.3).frac_unbiased == 0.5

    def test_head_projection_delta_range(self):
        f = random_function(3, seed=2)
        for delta in (0.0, 1.0001, 1.5):
            with pytest.raises(InvalidInputError):
                head_projection(f, 0b1, delta)


class TestCaseRouting:
    def test_small_delta_constant(self):
        report = extract_junta(canonicalize(np.ones(15), 0.0), EPS, 0.05)
        d = report.diagnostics
        assert report.case is JuntaCase.SMALL_DELTA
        assert d.small_delta and d.critical_idx == INFINITE_INDEX
        assert report.junta_set == 0 and report.junta_size == 0
        assert report.distance == 0.5
        assert not d.premise_holds
        verdict = theorem_verify(report)
        assert verdict.passed and verdict.vacuous
        assert verdict.label == "premise-violated"

    def test_case_constant_non_vacuous(self):
        # Biased majority: the constant -1 approximator is within delta.
        report = extract_junta(canonicalize(np.ones(16), 8.0), EPS, WIDE_DELTA)
        d = report.diagnostics
        assert report.case is JuntaCase.CONSTANT
        assert d.critical_idx == 1 and d.budget == 11
        assert not d.small_delta and d.premise_holds
        assert report.approximator.values.tolist() == [-1]
        assert report.distance == 2517 / 65536
        assert d.guarantee_bound == WIDE_DELTA
        verdict = theorem_verify(report)
        assert verdict.passed and not verdict.vacuous and verdict.label == "pass"

    @pytest.mark.parametrize("n, theta, delta, case, sign", [
        (15, 0.0, 0.05, JuntaCase.SMALL_DELTA, 1),  # E[f] = 0 exactly: sign(0) = +1
        (15, 3.0, 0.05, JuntaCase.SMALL_DELTA, -1),
        (16, -8.0, WIDE_DELTA, JuntaCase.CONSTANT, 1),
        (16, 8.0, WIDE_DELTA, JuntaCase.CONSTANT, -1),
    ])
    def test_constant_routes_give_a_read_only_arity_0_table(self, n, theta, delta, case, sign):
        report = extract_junta(canonicalize(np.ones(n), theta), EPS, delta)
        assert report.case is case
        assert report.approximator == BooleanFunction(0, [sign])
        with pytest.raises(ValueError):
            report.approximator.values[0] = -sign

    def test_case_premise_violated(self):
        # Both head offsets fall inside the tail lattice gap, so every block
        # is weakly biased and the certificate cannot fire.
        lt = canonicalize(np.concatenate(([1.6, 1.03], np.ones(17))), 0.0)
        report = extract_junta(lt, EPS, WIDE_DELTA)
        d = report.diagnostics
        assert report.case is JuntaCase.PREMISE_VIOLATED
        assert d.critical_idx == 2 and report.junta_set == 0b11
        assert d.frac_unbiased == 1.0
        assert not d.premise_holds
        assert d.iia_bound == pytest.approx(EPS * WIDE_DELTA**2 * (2 - WIDE_DELTA), abs=1e-15)
        # The unbiased blocks force at least this much noise sensitivity.
        assert d.ns_value >= d.iia_bound
        assert math.isnan(d.guarantee_bound)
        verdict = theorem_verify(report)
        assert verdict.passed and verdict.vacuous

    def test_case_projection_non_vacuous(self):
        lt = canonicalize(np.concatenate(([2.0], np.ones(17))), 0.0)
        report = extract_junta(lt, EPS, HUGE_DELTA)
        d = report.diagnostics
        assert report.case is JuntaCase.PROJECTION
        assert d.critical_idx == 2 and d.budget == 2
        assert report.junta_set == 0b11 and report.junta_size == 2
        assert d.frac_unbiased == 0.0
        assert d.premise_holds
        assert report.distance == 0.3145294189453125
        assert report.distance <= 3 * HUGE_DELTA
        assert d.residual_sq < 2 * HUGE_DELTA
        assert d.guarantee_bound == 3 * HUGE_DELTA
        verdict = theorem_verify(report)
        assert verdict.passed and not verdict.vacuous

    def test_case_head_junta_non_vacuous(self):
        # Geometric decay is never tau-regular, so the budget cap binds.
        lt = canonicalize(0.6 ** np.arange(1, 19), 0.0)
        report = extract_junta(lt, EPS, HUGE_DELTA)
        d = report.diagnostics
        assert report.case is JuntaCase.HEAD_JUNTA
        assert d.critical_idx == INFINITE_INDEX and d.budget == 2
        assert report.junta_size == 2 and report.junta_set == 0b11
        assert d.premise_holds
        assert report.distance == 0.11142730712890625
        assert report.distance <= HUGE_DELTA
        verdict = theorem_verify(report)
        assert verdict.passed and not verdict.vacuous

    def test_head_junta_whole_function_fits(self):
        # Budget above n_active: the "junta" is the function itself.
        report = extract_junta(canonicalize([1.0, 1.0, 1.0], 5.0), EPS, WIDE_DELTA)
        assert report.case is JuntaCase.HEAD_JUNTA
        assert report.junta_set == 0b111
        assert report.distance == 0.0
        assert theorem_verify(report).passed

    def test_head_junta_whole_function_fits_with_dropped_coordinate(self):
        # The junta set skips coordinate 1, so the approximator is the table
        # read on the rows where that coordinate is +1.
        report = extract_junta(canonicalize([8, 0, 4, 2, 1], 0.3), 0.25, 0.8)
        assert report.case is JuntaCase.HEAD_JUNTA
        assert report.junta_set == 0b11101
        assert report.junta_size == 4
        assert report.distance == 0.0
        assert report.approximator.values.tobytes().hex() == "01ff01ff01ff01ff01ff01ff01ff01ff"

    def test_junta_set_marks_true_dependencies(self):
        lt = canonicalize(0.6 ** np.arange(1, 19), 0.0)
        report = extract_junta(lt, EPS, HUGE_DELTA)
        table = truth_table(lt)
        lifted = slow_embed_junta(report.approximator.values, report.junta_set, table.arity)
        assert is_junta_on(BooleanFunction(table.arity, lifted), report.junta_set)
        assert junta_distance(table.values, report.approximator.values, report.junta_set,
                              table.arity) == report.distance

    def test_dropped_coordinates_never_enter_junta(self):
        lt = canonicalize([0.0, 0.6, 0.36, 0.216, 0.0, 0.1296], 0.0)
        report = extract_junta(lt, EPS, HUGE_DELTA)
        assert report.junta_set & 0b10001 == 0

    def test_validity_flag(self):
        inside = extract_junta(canonicalize(np.ones(15), 0.0), 0.25, 0.2)
        assert inside.diagnostics.within_validity
        outside = extract_junta(canonicalize(np.ones(15), 0.0), 0.25, WIDE_DELTA)
        assert not outside.diagnostics.within_validity


class TestCapsAndValidation:
    def test_extract_validates_ranges(self):
        lt = canonicalize(np.ones(4), 0.0)
        with pytest.raises(InvalidInputError):
            extract_junta(lt, 0.0, 0.5)
        with pytest.raises(InvalidInputError):
            extract_junta(lt, 0.25, 1.0001)

    def test_arity_cap(self):
        lt = canonicalize(np.ones(21), 0.0)
        with pytest.raises(CapExceededError, match="exceeds cap"):
            extract_junta(lt, 0.25, 0.62)

    def test_projection_head_past_sixteen_extracts(self):
        # Critical index 18 within budget 21: an 18-coordinate projection head.
        weights = np.concatenate([0.5 ** np.arange(1, 18), np.full(5, 1e-6)])
        lt = canonicalize(weights, 0.0)
        report = extract_junta(prepare(lt, cap=22), 0.5, 0.9, c_l=70)
        assert report.case is JuntaCase.PROJECTION
        assert report.junta_size == 18
        assert report.distance == 0.0 == junta_distance(
            truth_table(lt, cap=22).values, report.approximator.values, report.junta_set, 22)
        assert theorem_verify(report).label == "pass"

    def test_budget_head_past_sixteen_extracts(self):
        # Budget 17 below the 20 active coordinates: a 17-coordinate budget head.
        lt = canonicalize(0.6 ** np.arange(1, 21), 0.0)
        report = extract_junta(lt, EPS, WIDE_DELTA, c_l=1.6)
        assert report.case is JuntaCase.HEAD_JUNTA
        assert report.junta_size == 17
        assert report.distance == 4.76837158203125e-05 == junta_distance(
            truth_table(lt).values, report.approximator.values, report.junta_set, 20)
        assert theorem_verify(report).label == "premise-violated"

    def test_proper_head_peaks_no_higher_than_whole_head(self):
        # Why extract_junta needs no head cap: the bias array of a proper head
        # is smaller than the whole head's, which the arity cap admits.
        n = 18
        instance = prepare(random_ltf(n, "gaussian", theta_law="gaussian:1", seed=n), cap=n)
        peaks = []
        tracemalloc.start()
        try:
            for size in (instance.ltf.n_active - 1, instance.ltf.n_active):
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                instance.head_biases(size)
                _, peak = tracemalloc.get_traced_memory()
                peaks.append(peak - before)
        finally:
            tracemalloc.stop()
        assert peaks[0] <= peaks[1]

    def test_whole_function_head_is_at_distance_zero(self):
        # Budget 20 covers all 20 active coordinates: the head blocks are the
        # rows of the table, so the junta is the function itself.
        lt = canonicalize(0.6 ** np.arange(1, 21), 0.0)
        report = extract_junta(lt, EPS, WIDE_DELTA, c_l=1.8)
        assert report.case is JuntaCase.HEAD_JUNTA
        assert report.junta_size == 20
        assert report.distance == 0.0


class TestVerdicts:
    REPORT = extract_junta(canonicalize(np.ones(16), 8.0), EPS, WIDE_DELTA)

    def _forged(self, **fields):
        # The report with its diagnostics claiming other values.
        diagnostics = dataclasses.replace(self.REPORT.diagnostics, **fields)
        return dataclasses.replace(self.REPORT, diagnostics=diagnostics)

    def test_guarantee_override(self):
        # Distance 2517/65536 ~ 0.038: the verdict reads the bound the route
        # set, not delta.
        assert theorem_verify(self._forged(guarantee_bound=0.05)).passed
        weak = theorem_verify(self._forged(guarantee_bound=0.03))
        assert not weak.passed and weak.label == "fail"
        assert theorem_verify(self._forged(delta=0.03)).passed

    @pytest.mark.parametrize("bound", [0.0, -0.1, math.inf, math.nan])
    def test_guarantee_validation(self, bound):
        with pytest.raises(InvalidInputError, match="guarantee_bound must be in"):
            theorem_verify(self._forged(guarantee_bound=bound))

    def test_distance_guard(self):
        bad = dataclasses.replace(self.REPORT, distance=0.9)
        assert not theorem_verify(bad).passed

    def test_budget_guard(self):
        bad = dataclasses.replace(self.REPORT, junta_set=(1 << 16) - 1)
        assert not theorem_verify(bad).passed

    def test_satisfied_premise_with_violation_case_warns(self):
        lt = canonicalize(np.concatenate(([1.6, 1.03], np.ones(17))), 0.0)
        report = extract_junta(lt, EPS, WIDE_DELTA)
        forged = dataclasses.replace(
            report,
            diagnostics=dataclasses.replace(report.diagnostics, premise_holds=True),
        )
        with pytest.warns(UserWarning, match="recalibration"):
            verdict = theorem_verify(forged)
        assert not verdict.passed and verdict.label == "fail"

    def test_case_labels_are_stable(self):
        assert str(JuntaCase.SMALL_DELTA) == "SmallDeltaConstant"
        assert str(JuntaCase.CONSTANT) == "I_Constant"
        assert str(JuntaCase.PREMISE_VIOLATED) == "IIa_PremiseViolated"
        assert str(JuntaCase.PROJECTION) == "IIb_Projection"
        assert str(JuntaCase.HEAD_JUNTA) == "III_HeadJunta"


class TestProjectionAgainstProfile:
    def test_projection_signs_follow_biases(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            f = random_function(6, seed=rng)
            head = 0b011010
            proj = head_projection(f, head, delta=0.4)
            biases = bias_profile(f, head)
            expected = np.where(
                np.abs(biases) <= 0.6, 1, np.where(biases >= 0, 1, -1)
            )
            assert np.array_equal(proj.approximator.values, expected)
