"""Command-line front end for instance analysis, extraction, and check suites.

Subcommands: analyze (canonical form, regularity, critical indices, noise
curve of one threshold function), junta (extraction report and verdict),
sweep (bulk extraction over random families), gaussian (closed-form lower
bound versus Monte Carlo), and checks (the identity and inequality suites).

Output contract: tabular results are CSV with a header row, 17-significant-
digit reals, and a trailing comment line ``# seed=<s> version=<v>``.  The CSV
goes to --out when given, else to stdout.  Identical run configuration yields
byte-identical CSV.  Before the CSV, analyze and junta print a human report of
``label: values`` lines, a view of the same rows (junta adds its coordinates
and the audit fields the row leaves out).  It is not part of the contract, and
--quiet silences it.

Exit status: 0 when everything passed or was vacuous, 1 when a verification
check failed, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import sys

# hsf's BLAS products are small enough that OpenBLAS runs them on one thread,
# so a short call would only pay for starting the pool.  A value the user set
# wins.  This has to run before numpy loads, so the numeric imports follow it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__, _bits
from .errors import HsfError, InvalidInputError, check_cap, check_int, check_range
from .fncore import DEFAULT_ARITY_CAP, MAX_ARITY_CAP, random_function, wht
from .junta import extract_junta, junta_budget, premise_bound, prepare, theorem_verify
from .ltf import (
    canonicalize,
    critical_index,
    load_ltf_file,
    random_ltf,
    regularity_profile,
)
from .noise import (
    boolean_pair_quadrant_mc,
    constant_bound_check,
    gaussian_ns_bound,
    gaussian_ns_mc,
    hoeffding_radius,
    ns_exact,
    regular_cdf_gap,
    tail_ratio,
)
from .restriction import ns_aggregation_check, restriction_energy_identity

_ANALYZE_TAUS = "0.05,0.1,0.25,0.5,0.75,1"
_ANALYZE_EPSILONS = "0.01,0.05,0.1,0.25,0.5"
_GAUSSIAN_THETAS = "0,0.5,1,2"
_GAUSSIAN_EPSILONS = "0.05,0.25,0.5"
_SWEEP_EPSILONS = "0.05,0.1,0.25"
_SWEEP_DELTAS = "0.05,0.1,0.2"

_JUNTA_HEADER = (
    "case,junta_size,L,ell,ns,premise_bound,premise_holds,distance,guarantee,verdict"
)
_SWEEP_HEADER = "family,rate,instance,n,theta,epsilon,delta," + _JUNTA_HEADER
_GAUSSIAN_HEADER = "theta,rho,bound,mc_value,mc_radius,holds"
_CHECKS_HEADER = "check,instance_seed,lhs,rhs,gap,holds"
_ANALYZE_HEADER = "section,key,value"


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):  # most cells, so tested first
        return f"{float(value):.17g}"
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    if any(ch in text for ch in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _emit_csv(args: argparse.Namespace, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    lines.append(f"# seed={args.seed} version={__version__}")
    payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write(payload)
    elif not args.quiet:
        sys.stdout.write(payload)


def _short(value) -> str:
    return f"{float(value):.6g}" if isinstance(value, (float, np.floating)) else _fmt(value)


def _report(args: argparse.Namespace, lines) -> None:
    # One "label: values" line per (label, *values), then a blank line.
    if not args.quiet:
        for label, *values in lines:
            print(f"{label}:", *map(_short, values))
        print()


def _floats(raw: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise InvalidInputError(f"{flag} expects comma-separated reals, got {raw!r}") from None
    if not values:
        raise InvalidInputError(f"{flag} must name at least one value")
    return values


def _families(raw: str) -> list[tuple[str, str | None]]:
    # (name, rate text or None) per 'name' or 'name:rate'; random_ltf judges both.
    tokens = [token.strip().partition(":") for token in raw.split(",") if token.strip()]
    if not tokens:
        raise InvalidInputError("--families must name at least one family")
    return [(name, rate if sep else None) for name, sep, rate in tokens]


def cmd_analyze(args: argparse.Namespace) -> int:
    lt = load_ltf_file(args.ltf)
    prof = regularity_profile(lt)
    indices = [(tau, critical_index(lt, tau)) for tau in _floats(args.taus, "--taus")]
    epsilons = [check_range("epsilon", eps, 0, 1) for eps in _floats(args.epsilons, "--epsilons")]
    instance = prepare(lt, cap=args.max_n)  # after the checks
    weight_by_degree = instance.spectrum.degree_weights

    rows: list[tuple] = [
        ("meta", "n_inputs", lt.n_inputs),
        ("meta", "n_active", lt.n_active),
        ("meta", "dropped", ";".join(str(c) for c in lt.dropped)),
        ("meta", "theta", lt.theta),
        ("meta", "tau_star", prof.tau_star),
    ]
    rows.extend(("weight", p + 1, float(lt.weights[p])) for p in range(lt.n_active))
    rows.extend(
        ("origin", p + 1, int(lt.original_index[p])) for p in range(lt.n_active)
    )
    rows.extend(("sigma", k + 1, float(prof.tail_norms[k])) for k in range(lt.n_active))
    rows.extend(("critical_index", tau, ell) for tau, ell in indices)
    rows.extend(("ns", eps, ns_exact(instance.spectrum, eps)) for eps in epsilons)
    rows.extend(
        ("degree_weight", d, float(weight_by_degree[d]))
        for d in range(lt.n_inputs + 1)
    )

    head_tau, head_ell = next(((tau, ell) for tau, ell in indices if ell != math.inf),
                              (None, None))
    if head_ell is not None:
        biases = instance.head_biases(int(head_ell))
        rows.extend(
            [
                ("bias", "tau", head_tau),
                ("bias", "ell", int(head_ell)),
                ("bias", "mean", float(np.mean(biases))),
                ("bias", "min_abs", float(np.min(np.abs(biases)))),
                ("bias", "max_abs", float(np.max(np.abs(biases)))),
                ("bias", "frac_unbiased_0.1", float(np.mean(np.abs(biases) <= 0.9))),
            ]
        )

    sections: dict[str, list[str]] = {}
    for section, key, value in rows:
        sections.setdefault(section, []).append(f"{_short(key)}={_short(value)}")
    _report(args, [(section, *cells) for section, cells in sections.items()])
    _emit_csv(args, _ANALYZE_HEADER, rows)
    return 0


def _junta_row(report, verdict) -> tuple:
    d = report.diagnostics
    return (
        report.case,
        report.junta_size,
        d.budget,
        d.critical_idx,
        d.ns_value,
        d.premise_bound,
        d.premise_holds,
        report.distance,
        d.guarantee_bound,
        verdict.label,
    )


def cmd_junta(args: argparse.Namespace) -> int:
    lt = load_ltf_file(args.ltf)
    premise_bound(args.epsilon, args.delta, args.c_ns)  # both before the table
    junta_budget(args.epsilon, args.delta, args.c_l)
    report = extract_junta(prepare(lt, cap=args.max_n), args.epsilon, args.delta,
                           c_ns=args.c_ns, c_l=args.c_l)
    verdict = theorem_verify(report)
    row = _junta_row(report, verdict)
    audit = ("epsilon", "delta", "small_delta", "frac_unbiased", "residual_sq", "iia_bound",
             "within_validity")  # the Diagnostics fields the row leaves out
    _report(args, [*zip(_JUNTA_HEADER.split(","), row),
                   ("junta_coordinates", *_bits.bit_positions(report.junta_set)),
                   *((name, getattr(report.diagnostics, name)) for name in audit)])
    _emit_csv(args, _JUNTA_HEADER, [row])
    return 0 if verdict.passed else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    families = _families(args.families)
    epsilons = _floats(args.epsilons, "--epsilons")
    deltas = _floats(args.deltas, "--deltas")
    check_int("--count", args.count, 0)
    check_cap("arity", args.n, args.max_n)  # before any n-long draw
    # Every argument a cell checks, checked before the first table.
    for family, rate in families:
        random_ltf(args.n, family, rate=rate, theta_law=args.theta_law, seed=0)
    families = [(family, rate if rate is None else float(rate)) for family, rate in families]
    for eps in epsilons:
        for delta in deltas:
            premise_bound(eps, delta, args.c_ns)
            junta_budget(eps, delta, args.c_l)
    rows: list[tuple] = []
    failed = False
    index = 0
    for family, rate in families:
        for _ in range(args.count):
            lt = random_ltf(
                args.n, family, rate=rate, theta_law=args.theta_law,
                seed=[args.seed, index],
            )
            instance = prepare(lt, cap=args.max_n)
            for eps in epsilons:
                for delta in deltas:
                    report = extract_junta(instance, eps, delta, c_ns=args.c_ns, c_l=args.c_l)
                    verdict = theorem_verify(report)
                    failed = failed or not verdict.passed
                    rows.append(
                        (family, rate, index, args.n, lt.theta, eps, delta)
                        + _junta_row(report, verdict)
                    )
            instance = None  # free this table and spectrum before the next
            index += 1
    _emit_csv(args, _SWEEP_HEADER, rows)
    return 1 if failed else 0


def _gaussian_row(theta: float, eps: float, samples: int, seed) -> tuple:
    # (theta, rho, bound, mc value, mc radius, holds): the Monte Carlo Gaussian
    # disagreement at rho = 1 - 2 eps against its closed-form lower bound.
    rho = 1.0 - 2.0 * eps
    bound = gaussian_ns_bound(theta, eps)
    est = gaussian_ns_mc(theta, rho, samples, seed=seed)
    return theta, rho, bound, est.value, est.radius, est.value >= bound - 4.0 * est.radius


def cmd_gaussian(args: argparse.Namespace) -> int:
    thetas = _floats(args.theta, "--theta")
    epsilons = _floats(args.epsilon, "--epsilon")
    cells = [(theta, eps) for theta in thetas for eps in epsilons]
    for theta, eps in cells:
        gaussian_ns_bound(theta, eps)  # every cell's check, before the first sample
    rows = [_gaussian_row(theta, eps, args.samples, [args.seed, k])
            for k, (theta, eps) in enumerate(cells)]
    _emit_csv(args, _GAUSSIAN_HEADER, rows)
    return 0 if all(row[5] for row in rows) else 1


def _table_and_head(seed: int, k: int) -> tuple:
    # A random 8-ary table and a random 3-of-8 head, seeded by (seed, k).
    f = random_function(8, seed=[seed, k])
    rng = np.random.default_rng([seed, k, 1])
    return f, sum(1 << int(c) for c in rng.choice(8, size=3, replace=False))


def cmd_checks(args: argparse.Namespace) -> int:
    hoeffding_radius(args.samples)  # the Monte Carlo blocks' check, before the first block
    # The cdf-gap block's 16-ary forms, held to the arity cap before the first block.
    maj16 = canonicalize(np.ones(16), 0.0)
    decaying16 = canonicalize(0.999 ** np.arange(1, 17, dtype=np.float64), 0.0)
    for lt in (maj16, decaying16):
        check_cap("arity", lt.n_inputs, args.max_n)
    rows: list[tuple] = []  # (check, instance seed, lhs, rhs, gap, holds)
    k = 0

    # Noise sensitivity against the distance-from-constant lower bound.
    for i in range(12):
        f = random_function(4 + (i % 7), seed=[args.seed, k])
        spectrum = wht(f)
        for eps in (0.05, 0.25):
            cb = constant_bound_check(spectrum, eps)
            rows.append(("constant-lower-bound", k, cb.ns_value, cb.bound,
                         cb.ns_value - cb.bound, cb.holds))
        k += 1

    # Restriction energy identity, worst tail subset per instance.
    for _ in range(8):
        f, head = _table_and_head(args.seed, k)
        complement = ((1 << 8) - 1) ^ head
        worst = max((restriction_energy_identity(f, head, int(subset))
                     for subset in _bits.submasks(complement)), key=lambda res: res.gap)
        rows.append(("restriction-energy", k, worst.lhs, worst.rhs, worst.gap,
                     worst.gap <= 1e-9))
        k += 1

    # Noise sensitivity can only shrink on average under restriction.
    for i in range(8):
        f, head = _table_and_head(args.seed, k)
        eps = (0.05, 0.1, 0.25)[i % 3]
        agg = ns_aggregation_check(f, head, eps)
        rows.append(("ns-aggregation", k, agg.ns_value, agg.restricted_mean,
                     agg.ns_value - agg.restricted_mean, agg.holds))
        k += 1

    # CDF of the linear form against the normal CDF, per the 2 tau* bound.
    for lt in (maj16, decaying16):
        tau_star = regularity_profile(lt).tau_star
        gap = regular_cdf_gap(lt, cap=args.max_n)
        rows.append(("cdf-gap", k, gap, 2.0 * tau_star, gap - 2.0 * tau_star,
                     gap <= 2.0 * tau_star))
        k += 1

    # Joint quadrant probability of a correlated Boolean pair vs Gaussian.
    tau_star = regularity_profile(maj16).tau_star
    for eps in (0.1, 0.25):
        q = boolean_pair_quadrant_mc(
            maj16, (0.0, math.inf), (0.0, math.inf), eps, args.samples,
            seed=[args.seed, k],
        )
        allowance = 2.0 * tau_star + q.boolean.radius
        rows.append(("quadrant-gap", k, q.boolean.value, q.gaussian, q.gap,
                     q.gap <= allowance))
        k += 1

    # Tail-shape ratio stays inside fixed positive constants.
    ratios = tail_ratio(np.arange(0.0, 10.0001, 0.01))
    lo, hi = float(ratios.min()), float(ratios.max())
    rows.append(("tail-ratio", k, lo, hi, hi - lo, 0.35 <= lo and hi <= 1.0))
    k += 1

    # Monte Carlo Gaussian disagreement against the closed-form lower bound.
    for theta in (0.0, 1.0):
        for eps in (0.05, 0.5):
            _, _, bound, value, _, holds = _gaussian_row(theta, eps, args.samples, [args.seed, k])
            rows.append(("gaussian-lower-bound", k, value, bound, value - bound, holds))
            k += 1

    _emit_csv(args, _CHECKS_HEADER, rows)
    return 0 if all(row[5] for row in rows) else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="base seed, nonnegative (default: %(default)s)")
    common.add_argument("--max-n", type=int, default=DEFAULT_ARITY_CAP, dest="max_n",
                        help=f"arity cap for exact operations, up to {MAX_ARITY_CAP}"
                        " (default: %(default)s)")
    common.add_argument("--out", default=None, help="write the CSV here")
    common.add_argument("--quiet", action="store_true",
                        help="suppress stdout reports")
    theorem = argparse.ArgumentParser(add_help=False)
    theorem.add_argument("--c-ns", type=float, default=1.0, dest="c_ns",
                         help="premise constant c_ns, positive and finite (default: %(default)s)")
    theorem.add_argument("--c-l", type=float, default=1.0, dest="c_l",
                         help="head budget constant c_l, positive and finite"
                         " (default: %(default)s)")

    parser = argparse.ArgumentParser(
        prog="hsf",
        description="Fourier, noise-sensitivity, and junta analysis of halfspaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="canonical form, regularity, and noise profile")
    p.add_argument("--ltf", required=True, help="threshold function file")
    p.add_argument("--taus", default=_ANALYZE_TAUS,
                   help="comma list of regularity levels for the critical index"
                   " (default: %(default)s)")
    p.add_argument("--epsilons", default=_ANALYZE_EPSILONS,
                   help="comma list of noise rates for the noise profile (default: %(default)s)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("junta", parents=[common, theorem],
                       help="extract a junta approximator and verify it")
    p.add_argument("--ltf", required=True, help="threshold function file")
    p.add_argument("--epsilon", type=float, required=True, help="noise rate, in (0, 1/2]")
    p.add_argument("--delta", type=float, required=True, help="target distance, in (0, 1]")
    p.set_defaults(func=cmd_junta)

    p = sub.add_parser("sweep", parents=[common, theorem],
                       help="bulk extraction over random instance families")
    p.add_argument("--families", required=True,
                   help="comma list: equal, gaussian, geometric:<rate>")
    p.add_argument("--n", type=int, required=True, help="inputs of every instance")
    p.add_argument("--count", type=int, required=True, help="instances drawn per family")
    p.add_argument("--epsilons", default=_SWEEP_EPSILONS,
                   help="comma list of noise rates (default: %(default)s)")
    p.add_argument("--deltas", default=_SWEEP_DELTAS,
                   help="comma list of target distances (default: %(default)s)")
    p.add_argument("--theta-law", default="gaussian:1", dest="theta_law",
                   help="threshold law: zero, fixed:<v> or gaussian:<scale>"
                   " (default: %(default)s)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gaussian", parents=[common],
                       help="Gaussian noise-sensitivity bound vs Monte Carlo")
    p.add_argument("--theta", default=_GAUSSIAN_THETAS,
                   help="comma list of thresholds (default: %(default)s)")
    p.add_argument("--epsilon", default=_GAUSSIAN_EPSILONS,
                   help="comma list of noise rates, each in [0, 1/2] (default: %(default)s)")
    p.add_argument("--samples", type=int, default=1_000_000,
                   help="Monte Carlo samples per row (default: %(default)s)")
    p.set_defaults(func=cmd_gaussian)

    p = sub.add_parser("checks", parents=[common],
                       help="run the identity and inequality suites")
    p.add_argument("--samples", type=int, default=200_000,
                   help="Monte Carlo samples per sampled row (default: %(default)s)")
    p.set_defaults(func=cmd_checks)

    return parser


def main(argv=None) -> int:
    # glibc raises its mmap and trim thresholds as blocks happen to be freed, so
    # whether a sweep faulted each instance's pages in again was incidental (a
    # golden sweep took 9k to 128k faults).  Fix both at their 64-bit maxima.
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    except (AttributeError, OSError, TypeError):  # not glibc
        pass
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.seed < 0:
            raise InvalidInputError(f"--seed must be nonnegative, got {args.seed}")
        check_int("--max-n", args.max_n, 1, MAX_ARITY_CAP)
        return args.func(args)
    except (HsfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
