"""Junta approximation of threshold functions with verified guarantees.

The engine classifies a threshold function by the size of its critical index
at tau = eps against a budget L(eps, delta), builds a candidate junta by the
route the classification prescribes, and reports the exact distance achieved
next to the bound that route promises.  Every report carries enough
diagnostics to audit the decision: noise sensitivity against the premise
bound, the critical index, the budget, bias statistics of the head, and the
projection residual where one was used.

Case labels are part of the output contract and are stable strings:
SmallDeltaConstant, I_Constant, IIa_PremiseViolated, IIb_Projection,
III_HeadJunta.

A premise violation is not an error: the report is still produced and the
verdict marks the guarantee as vacuous.  The one loud outcome is
IIa_PremiseViolated together with a satisfied premise, which says the
empirical constants disagree with the classification and needs recalibration.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _bits
from .errors import InvalidInputError, check_int, check_range
from .fncore import DEFAULT_ARITY_CAP, BooleanFunction, FourierSpectrum, wht
from .ltf import Ltf, canonical_table, critical_index, head_mask
from .noise import CHECK_TOL, ns_exact
from .restriction import bias_profile

# Reports with eps and delta both at most this are flagged within_validity;
# larger values are still extracted, only the flag records the range.
VALIDITY_LIMIT = 0.25


class JuntaCase(str, enum.Enum):
    """Which construction produced the approximator."""

    SMALL_DELTA = "SmallDeltaConstant"
    CONSTANT = "I_Constant"
    PREMISE_VIOLATED = "IIa_PremiseViolated"
    PROJECTION = "IIb_Projection"
    HEAD_JUNTA = "III_HeadJunta"

    def __str__(self) -> str:  # CSV and reports print the stable label
        return self.value


@dataclass(frozen=True)
class Diagnostics:
    """Everything needed to audit a report; nan marks fields a case skips."""

    epsilon: float
    delta: float
    ns_value: float
    premise_bound: float
    premise_holds: bool
    small_delta: bool
    critical_idx: int | float
    budget: int
    guarantee_bound: float
    frac_unbiased: float
    residual_sq: float
    iia_bound: float
    within_validity: bool


@dataclass(frozen=True)
class JuntaReport:
    """Approximator, its exact distance to the input, and the audit trail.

    ``junta_set`` is a bitmask over original input coordinates; the
    approximator is a function of those coordinates in ascending order.
    """

    case: JuntaCase
    junta_set: int
    approximator: BooleanFunction
    distance: float
    diagnostics: Diagnostics

    @property
    def junta_size(self) -> int:
        return self.junta_set.bit_count()


@dataclass(frozen=True)
class Verdict:
    """What the guarantee claims and whether the report met it."""

    passed: bool
    vacuous: bool
    label: str


@dataclass(frozen=True)
class HeadProjection:
    """Junta built by overwriting unbiased head blocks and projecting."""

    approximator: BooleanFunction
    certified: bool
    residual_sq: float
    frac_unbiased: float


@dataclass(frozen=True, eq=False)
class Instance:
    """A threshold function with its exact truth table and spectrum.

    Built once by :func:`prepare` and shared by every extraction on the same
    function, so the per-instance work is not repeated per (eps, delta): the
    noise sensitivity and critical index at each eps are computed on the
    first extraction at that eps and remembered.  ``table`` and ``spectrum``
    are in sorted-position coordinates: see ``canonical_table``.
    """

    ltf: Ltf
    table: BooleanFunction
    spectrum: FourierSpectrum
    # eps -> (ns_exact(spectrum, eps), critical_index(ltf, eps)), filled by extract_junta.
    _per_eps: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.ltf.n_inputs == self.table.arity == self.spectrum.arity:
            raise InvalidInputError(
                f"arities disagree: ltf {self.ltf.n_inputs}, table {self.table.arity}, "
                f"spectrum {self.spectrum.arity}"
            )

    def head_biases(self, size: int) -> np.ndarray:
        """E[f] on every assignment of sorted positions 1..size (read-only).

        ``bias_profile(truth_table(ltf), head_mask(ltf, size))`` read from the
        sorted-position table by the same reduction, ``_bits.head_sums``:
        packed bit j reads the position of the j-th smallest head coordinate.
        """
        check_int("size", size, 0, self.ltf.n_active)
        n = self.table.arity
        sums = _bits.head_sums(self.table.values, np.argsort(self.ltf.original_index[:size]), n)
        return _bits.read_only(sums / (1 << (n - size)))


def prepare(ltf: Ltf, cap: int = DEFAULT_ARITY_CAP) -> Instance:
    """Sorted-position truth table and spectrum of ``ltf``, for repeated extraction."""
    table = canonical_table(ltf, cap=cap)
    return Instance(ltf, table, wht(table))


def junta_budget(epsilon: float, delta: float, c_l: float = 1.0) -> int:
    """Head budget L = max(1, ceil(c_l * eps^-2 * ln(1/eps) * ln(1/delta)))."""
    epsilon, delta = _check_eps_delta(epsilon, delta)
    c_l = check_range("c_l", c_l, 0, math.inf, open_lo=True, open_hi=True)
    try:  # eps**-2 or ceil(inf) overflows, ceil(nan) is a ValueError
        raw = c_l * epsilon**-2 * math.log(1.0 / epsilon) * math.log(1.0 / delta)
        return max(1, math.ceil(raw))
    except (OverflowError, ValueError):
        raise InvalidInputError(f"budget L is not finite at eps={epsilon}, c_l={c_l}") from None


def premise_bound(epsilon: float, delta: float, c_ns: float = 1.0) -> float:
    """Noise-sensitivity premise c_ns * delta^((2-eps)/(1-eps)) * sqrt(eps)."""
    epsilon, delta = _check_eps_delta(epsilon, delta)
    c_ns = check_range("c_ns", c_ns, 0, math.inf, open_lo=True, open_hi=True)
    return c_ns * delta ** ((2.0 - epsilon) / (1.0 - epsilon)) * math.sqrt(epsilon)


def _check_eps_delta(epsilon: float, delta: float) -> tuple[float, float]:
    return (
        check_range("epsilon", epsilon, 0, 0.5, open_lo=True),
        check_range("delta", delta, 0, 1, open_lo=True),
    )


def _signs(values: np.ndarray) -> BooleanFunction:
    # sign(v) with sign(0) = +1, one table row per value.
    signs = np.where(values >= 0.0, 1, -1).astype(np.int8)
    return BooleanFunction(values.size.bit_length() - 1, signs)


# The constant routes' juntas, shared: their tables are read-only.
_PLUS, _MINUS = BooleanFunction(0, [1]), BooleanFunction(0, [-1])


def head_projection(f: BooleanFunction, head: int, delta: float) -> HeadProjection:
    """Overwrite unbiased head blocks with +1, project onto the head, take signs.

    Certified means at most a delta fraction of blocks was unbiased; the
    resulting junta is then within 3 * delta of f, and the squared projection
    residual of the overwritten function stays below 2 * delta.
    """
    delta = check_range("delta", delta, 0, 1, open_lo=True)
    frac, certified, residual_sq, block_means = _project(bias_profile(f, head), delta)
    return HeadProjection(_signs(block_means), certified, residual_sq, frac)


def _project(biases: np.ndarray, delta: float) -> tuple[float, bool, float, np.ndarray]:
    # The rule of head_projection: (frac unbiased, certified, residual^2, block means).
    unbiased = np.abs(biases) <= 1.0 - delta
    frac = float(np.count_nonzero(unbiased)) / biases.size
    # Projection onto head functions is blockwise conditional expectation, so
    # the overwritten function projects to its block means directly.
    block_means = np.where(unbiased, 1.0, biases)
    return frac, frac <= delta, 1.0 - float(np.mean(block_means * block_means)), block_means


def extract_junta(
    instance: Instance | Ltf,
    epsilon: float,
    delta: float,
    *,
    c_ns: float = 1.0,
    c_l: float = 1.0,
) -> JuntaReport:
    """Classify a threshold function and build its junta approximator.

    ``instance`` is a prepared :class:`Instance`, or an :class:`Ltf` that is
    prepared on the spot at the default arity cap.  Branch order is part of
    the contract: the small-delta guard delta^(1/(1-eps)) < sqrt(eps) is
    checked first and yields a constant; then the critical index at tau = eps
    decides between a constant (index 1), a head construction (index within
    budget: projection when few head blocks are unbiased, otherwise the
    premise-violation case with a best-effort junta), and the head-budget
    junta (index beyond budget).  The theorem's empirical constants, both
    finite and positive, are ``c_ns``, which scales the premise bound, and
    ``c_l``, which scales the head budget.  The premise exponent (2 - eps) /
    (1 - eps) and the validity range (VALIDITY_LIMIT) are fixed; the arity cap
    is prepare's, and a head of any size up to ``n_active`` is built.
    """
    bound = premise_bound(epsilon, delta, c_ns)  # these two check eps, delta, c_ns and c_l
    budget = junta_budget(epsilon, delta, c_l)
    epsilon, delta = float(epsilon), float(delta)
    if isinstance(instance, Ltf):
        instance = prepare(instance)
    ltf, spectrum = instance.ltf, instance.spectrum
    n = ltf.n_inputs
    if epsilon not in instance._per_eps:  # neither value depends on delta
        instance._per_eps[epsilon] = (ns_exact(spectrum, epsilon), critical_index(ltf, epsilon))
    ns_value, ell = instance._per_eps[epsilon]
    premise_holds = ns_value <= bound
    small_delta = delta ** (1.0 / (1.0 - epsilon)) < math.sqrt(epsilon)
    within = epsilon <= VALIDITY_LIMIT and delta <= VALIDITY_LIMIT

    if small_delta or ell == 1:
        case, size = JuntaCase.SMALL_DELTA if small_delta else JuntaCase.CONSTANT, 0
    elif ell <= budget:
        case, size = JuntaCase.PROJECTION, int(ell)  # IIa unless the projection is certified
    else:
        case, size = JuntaCase.HEAD_JUNTA, min(budget, ltf.n_active)
    if size:
        junta_set, biases = head_mask(ltf, size), instance.head_biases(size)
    else:  # the empty head has one block, whose bias E[f] the spectrum holds
        # widened, so no float32 of a wht spectrum reaches the distance step
        junta_set, biases = 0, spectrum.coefficients[:1].astype(np.float64)

    frac_unbiased = residual_sq = iia_bound = math.nan
    guarantee, sign_source = delta, biases
    if case is JuntaCase.PROJECTION:
        frac_unbiased, certified, residual, block_means = _project(biases, delta)
        if certified:
            residual_sq, guarantee, sign_source = residual, 3.0 * delta, block_means
        else:
            case, guarantee = JuntaCase.PREMISE_VIOLATED, math.nan
            # Lower bound on noise sensitivity implied by the unbiased blocks
            # through the restriction threshold argument; exceeding the
            # premise with it is what this case asserts.
            iia_bound = epsilon * delta * (2.0 - delta) * delta
    if size:
        approx = _signs(sign_source)
    else:
        approx = _PLUS if biases[0] >= 0.0 else _MINUS

    # Head block b has 2^(n-h) rows summing to m_b = biases[b] * 2^(n-h), so the
    # sum of g_b m_b is agreements minus disagreements; integers <= 2^n are exact.
    agree_minus_disagree = np.dot(approx.values, biases) * float(1 << (n - approx.arity))
    dist = ((1 << n) - int(agree_minus_disagree)) // 2 / (1 << n)
    diags = Diagnostics(
        epsilon=epsilon,
        delta=delta,
        ns_value=ns_value,
        premise_bound=bound,
        premise_holds=premise_holds,
        small_delta=small_delta,
        critical_idx=ell,
        budget=budget,
        guarantee_bound=guarantee,
        frac_unbiased=frac_unbiased,
        residual_sq=residual_sq,
        iia_bound=iia_bound,
        within_validity=within,
    )
    return JuntaReport(
        case=case,
        junta_set=junta_set,
        approximator=approx,
        distance=dist,
        diagnostics=diags,
    )


def theorem_verify(report: JuntaReport) -> Verdict:
    """Judge a report against the guarantee its case promises.

    A violated premise makes every guarantee vacuous (the verdict passes with
    the vacuous flag).  With the premise satisfied, the distance must meet
    the bound the extraction set, ``guarantee_bound``, and the junta must fit
    the budget; the premise-violation case then contradicts itself and fails
    loudly.
    """
    d = report.diagnostics
    if not d.premise_holds:
        return Verdict(passed=True, vacuous=True, label="premise-violated")
    if report.case is JuntaCase.PREMISE_VIOLATED:
        warnings.warn(
            "premise satisfied yet the unbiased-block route fired; "
            "empirical constants need recalibration",
            stacklevel=2,
        )
        return Verdict(passed=False, vacuous=False, label="fail")
    bound = check_range("guarantee_bound", d.guarantee_bound, 0, math.inf,
                        open_lo=True, open_hi=True)
    ok = report.distance <= bound + CHECK_TOL and report.junta_size <= d.budget
    return Verdict(passed=ok, vacuous=False, label="pass" if ok else "fail")
