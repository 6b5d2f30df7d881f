"""The shared argument, range and cap checks, and junk arguments at every entry point."""

import os
import pathlib

import numpy as np
import pytest

import hsf
from hsf import (
    BooleanFunction,
    CapExceededError,
    FourierSpectrum,
    InvalidInputError,
    TheoremConfig,
    bivariate_rectangle,
    boolean_pair_quadrant_mc,
    canonicalize,
    extract_junta,
    gaussian_cdf,
    gaussian_ns_bound,
    gaussian_ns_mc,
    gaussian_tail,
    hoeffding_radius,
    linear_form,
    ns_aggregation_check,
    ns_exact,
    ns_mc,
    prepare,
    random_function,
    random_ltf,
    regular_cdf_gap,
    regularity_profile,
    save_ltf_file,
    tail_ratio,
    tail_ratio_check,
    truth_table,
    wht,
)
from hsf.errors import check_cap, check_int, check_range

_F = BooleanFunction(2, [1, 1, -1, 1])
_LT = canonicalize([3.0, 1.0, 1.0], 0.2)
_AGG = ns_aggregation_check(random_function(4, seed=0), 0b11, 0.1)

# Scalar arguments that are not numbers, not ints, negative arities, or ints
# too large for the float arithmetic that follows; arity caps above 24; seeds
# numpy rejects; points, tables and weights of the wrong shape or type; weights
# JSON cannot hold; real arrays and grids with entries that are not bools, ints
# or floats; spectra with a coefficient that is not finite.
_JUNK_CALLS = {
    "extract_junta-str-eps": lambda: extract_junta(_LT, "x", 0.5),
    "extract_junta-none-eps": lambda: extract_junta(_LT, None, 0.5),
    "random_ltf-str-rate": lambda: random_ltf(4, "geometric", rate="x"),
    "threshold_corollary-str-delta": lambda: _AGG.threshold_corollary(0.1, "x"),
    "BooleanFunction-negative-arity": lambda: BooleanFunction(-1, [1]),
    "BooleanFunction-float-arity": lambda: BooleanFunction(2.0, [1, 1, 1, 1]),
    "FourierSpectrum-negative-arity": lambda: FourierSpectrum(-1, []),
    "ns_exact-str-eps": lambda: ns_exact(wht(_F), "x"),
    "TheoremConfig-str-c_ns": lambda: TheoremConfig(c_ns="x"),
    "gaussian_ns_bound-str-theta": lambda: gaussian_ns_bound("x", 0.1),
    "canonicalize-str-theta": lambda: canonicalize([1.0], "x"),
    "bivariate_rectangle-str-endpoint": lambda: bivariate_rectangle((0, "x"), (0, 1), 0.5),
    "hoeffding_radius-huge-samples": lambda: hoeffding_radius(10**400),
    "regular_cdf_gap-str-cap": lambda: regular_cdf_gap(_LT, cap="x"),
    "prepare-float-cap": lambda: prepare(_LT, cap=1.5),
    "prepare-cap-above-max": lambda: prepare(_LT, cap=25),
    "truth_table-huge-cap": lambda: truth_table(_LT, cap=10**6),
    "random_function-cap-above-max": lambda: random_function(3, seed=0, cap=99),
    "BooleanFunction-call-3d-points": lambda: _F(np.ones((1, 2, 2))),
    "BooleanFunction-call-str-points": lambda: _F(np.array(["1", "1"])),
    "Ltf-call-3d-points": lambda: _LT(np.ones((1, 3, 3))),
    "Ltf-call-str-points": lambda: _LT(["a", "b", "c"]),
    "linear_form-too-few-columns": lambda: linear_form(_LT, np.ones((2, 2))),
    "random_function-negative-seed": lambda: random_function(2, seed=-1),
    "random_ltf-float-seed": lambda: random_ltf(4, "gaussian", seed=1.5),
    "ns_mc-negative-seed": lambda: ns_mc(_F, 0.1, 10, seed=-1),
    "gaussian_ns_mc-float-seed": lambda: gaussian_ns_mc(0.0, 0.5, 10, seed=1.5),
    "boolean_pair_quadrant_mc-negative-seed":
        lambda: boolean_pair_quadrant_mc(_LT, (0, 1), (0, 1), 0.1, 10, seed=-1),
    "canonicalize-str-weights": lambda: canonicalize(["a"], 0),
    "canonicalize-complex-weights": lambda: canonicalize([1j], 0),
    "BooleanFunction-str-values": lambda: BooleanFunction(1, ["a", "b"]),
    "BooleanFunction-none-value": lambda: BooleanFunction(1, [1, None]),
    "FourierSpectrum-str-coefficients": lambda: FourierSpectrum(1, ["a", "b"]),
    "save_ltf_file-nan-weight": lambda: save_ltf_file(os.devnull, [1.0, np.nan], 0.0),
    "save_ltf_file-inf-theta": lambda: save_ltf_file(os.devnull, [1.0], np.inf),
    "FourierSpectrum-none-coefficient": lambda: FourierSpectrum(1, [None, 0.0]),
    "FourierSpectrum-nan-coefficient": lambda: FourierSpectrum(1, [np.nan, 0.0]),
    "FourierSpectrum-inf-coefficient": lambda: FourierSpectrum(1, [np.inf, 0.0]),
    "FourierSpectrum-minus-inf-coefficient": lambda: FourierSpectrum(1, [0.5, -np.inf]),
    "gaussian_cdf-none-entry": lambda: gaussian_cdf([0.0, None]),
    "gaussian_tail-str-theta": lambda: gaussian_tail("x"),
    "tail_ratio-str-theta": lambda: tail_ratio("x"),
    "tail_ratio_check-str-grid": lambda: tail_ratio_check("ab"),
    "regular_cdf_gap-str-grid": lambda: regular_cdf_gap(_LT, t_grid="x"),
}


@pytest.mark.parametrize("call", _JUNK_CALLS.values(), ids=_JUNK_CALLS.keys())
def test_junk_scalars_raise_invalid_input(call):
    with pytest.raises(InvalidInputError):
        call()


# Records holding arrays, two equal-valued instances of each: they compare and
# hash by identity, never by numpy's elementwise ==.
_RECORDS = {
    "Ltf": lambda: canonicalize([3.0, 1.0, 1.0], 0.2),
    "FourierSpectrum": lambda: wht(_F),
    "Instance": lambda: prepare(_LT),
    "RegularityProfile": lambda: regularity_profile(_LT),
    "NsAggregation": lambda: ns_aggregation_check(random_function(4, seed=0), 0b11, 0.1),
}


@pytest.mark.parametrize("make", _RECORDS.values(), ids=_RECORDS.keys())
def test_records_holding_arrays_compare_and_hash(make):
    a, b = make(), make()
    assert (a == b) is False and (a != b) is True
    assert a == a and a in [a] and a not in [b]
    assert hash(a) == hash(a)
    assert {a: 1}[a] == 1


def test_range_ends_and_types():
    assert check_range("x", np.float64(0.5), 0, 1, open_lo=True, open_hi=True) == 0.5
    assert check_range("x", 1, 0, 1) == 1.0
    with pytest.raises(InvalidInputError, match=r"^x must be in \(0, 1\), got 1.0$"):
        check_range("x", 1, 0, 1, open_lo=True, open_hi=True)
    with pytest.raises(InvalidInputError, match=r"^x must be in \[0, 1\], got nan$"):
        check_range("x", "nan", 0, 1)
    for junk in (True, "x", None, [0.5], 10**400):
        with pytest.raises(InvalidInputError, match="x must convert to a float"):
            check_range("x", junk, 0, 2)


def test_int_bounds_and_types():
    assert check_int("k", np.int64(3), 0, 3) == 3 and type(check_int("k", np.int64(3))) is int
    with pytest.raises(InvalidInputError, match=r"^k must be in \[0, 3\], got 4$"):
        check_int("k", 4, 0, 3)
    with pytest.raises(InvalidInputError, match=r"^k must be in \[1, inf\], got 0$"):
        check_int("k", 0, 1)
    for junk in (True, np.bool_(False), 1.0, "1", None):
        with pytest.raises(InvalidInputError, match="k must be an int"):
            check_int("k", junk)


def test_cap_wording():
    assert check_cap("arity", 20, 20) == 20 and check_cap("arity", 3, np.int64(20)) == 3
    with pytest.raises(InvalidInputError, match="^head cap must be an int, got 1.5$"):
        check_cap("head size", 1, 1.5, "head cap")
    with pytest.raises(CapExceededError, match="^arity 21 exceeds cap 20$"):
        check_cap("arity", 21, 20)
    with pytest.raises(CapExceededError, match="^head size 17 exceeds head cap 16$"):
        check_cap("head size", 17, 16, "head cap")


def test_cap_errors_are_raised_in_one_place():
    package = pathlib.Path(hsf.__file__).parent
    raising = [path.name for path in sorted(package.glob("*.py"))
               if "raise CapExceededError" in path.read_text()]
    assert raising == ["errors.py"]
