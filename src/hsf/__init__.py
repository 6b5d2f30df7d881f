"""Fourier spectra, noise sensitivity, and junta approximation of halfspaces.

The package is organized bottom-up:

- :mod:`hsf.fncore`: dense truth tables, the fast transform and the degree
  weights of its spectra;
- :mod:`hsf.ltf`: canonical threshold functions and their tables, regularity,
  critical index, JSON weight files;
- :mod:`hsf.noise`: exact / brute-force / Monte-Carlo noise sensitivity and
  the Gaussian comparison toolkit;
- :mod:`hsf.restriction`: restrictions, bias profiles, aggregation identities;
- :mod:`hsf.junta`: the junta extraction engine and its verdicts;
- :mod:`hsf.cli`: the ``hsf`` command with analyze / junta / sweep /
  gaussian / checks subcommands.

``import hsf`` loads no submodule and so no numpy: each exported name is
imported from its submodule on first access (PEP 562).  That lets the
command choose numpy's BLAS threading before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the submodule that defines it.
_HOME = {
    name: module
    for module, names in {
        "errors": "CapExceededError DegenerateLtfError HsfError InvalidInputError",
        "fncore": "BooleanFunction FourierSpectrum random_function synthesize wht",
        "junta": "Diagnostics HeadProjection Instance JuntaCase JuntaReport Verdict "
        "extract_junta head_projection junta_budget premise_bound prepare theorem_verify",
        "ltf": "INFINITE_INDEX Ltf RegularityProfile canonical_linear_form canonical_table "
        "canonicalize critical_index head_mask linear_form load_ltf_file random_ltf "
        "regularity_profile save_ltf_file truth_table",
        "noise": "ConstantBoundCheck McEstimate QuadrantComparison "
        "bivariate_rectangle boolean_pair_quadrant_mc constant_bound_check gaussian_cdf "
        "gaussian_disagreement gaussian_ns_bound gaussian_ns_mc gaussian_tail "
        "hoeffding_radius ns_bruteforce ns_exact ns_mc regular_cdf_gap tail_ratio",
        "restriction": "NsAggregation RestrictionEnergy ThresholdCorollary bias_profile "
        "ns_aggregation_check restrict restriction_energy_identity",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
