"""Correctness gate applied to every CLI output the benchmark produces.

The gate knows the CSV contract independently of the package: headers and
the trailer are spelled out here, not imported from `hsf.cli`, so a change
to the package cannot move the gate along with it.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from collections import Counter

HEADERS = {
    "sweep": "family,rate,instance,n,theta,epsilon,delta,case,junta_size,L,ell,ns,"
             "premise_bound,premise_holds,distance,guarantee,verdict",
    "junta": "case,junta_size,L,ell,ns,premise_bound,premise_holds,distance,"
             "guarantee,verdict",
    "analyze": "section,key,value",
    "gaussian": "theta,rho,bound,mc_value,mc_radius,holds",
    "checks": "check,instance_seed,lhs,rhs,gap,holds",
}
CASES = ("SmallDeltaConstant", "I_Constant", "IIa_PremiseViolated",
         "IIb_Projection", "III_HeadJunta")
_TOL = 1e-12
# Rows per call follow from the argv and the CLI defaults.
_GAUSSIAN_ROWS = 12  # 4 default thetas x 3 default epsilons
_SWEEP_EPSILONS = "0.05,0.1,0.25"
_SWEEP_DELTAS = "0.05,0.1,0.2"


def _flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _expected_rows(argv: list[str]) -> int | None:
    command = argv[0]
    if command == "junta":
        return 1
    if command == "gaussian":
        return _GAUSSIAN_ROWS
    if command == "sweep":
        return (len(_flag(argv, "--families").split(","))
                * int(_flag(argv, "--count"))
                * len(_flag(argv, "--epsilons", _SWEEP_EPSILONS).split(","))
                * len(_flag(argv, "--deltas", _SWEEP_DELTAS).split(",")))
    return None


def _guarantee_problems(rows: list[dict]) -> list[str]:
    problems = []
    for i, row in enumerate(rows):
        if row["case"] not in CASES:
            problems.append(f"row {i}: unknown case {row['case']!r}")
        guarantee = float(row["guarantee"]) if row["guarantee"] else math.nan
        if row["premise_holds"] != "true" or not math.isfinite(guarantee):
            continue
        if not float(row["distance"]) <= guarantee + _TOL:
            problems.append(f"row {i}: distance {row['distance']} > guarantee {row['guarantee']}")
        if not int(row["junta_size"]) <= int(row["L"]):
            problems.append(f"row {i}: junta_size {row['junta_size']} > L {row['L']}")
    return problems


def check_output(argv: list[str], returncode: int, payload: bytes, version: str) -> list[str]:
    """Problems with one call's exit code and CSV bytes; empty when correct."""
    command = argv[0]
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    try:
        text = payload.decode("ascii")
    except UnicodeDecodeError:
        return problems + ["output is not ASCII"]
    lines = text.split("\n")
    if len(lines) < 3 or lines[-1] != "":
        return problems + ["output is not newline-terminated CSV with a trailer"]
    if lines[0] != HEADERS[command]:
        problems.append(f"header {lines[0]!r}")
    trailer = f"# seed={_flag(argv, '--seed')} version={version}"
    if lines[-2] != trailer:
        problems.append(f"trailer {lines[-2]!r}, expected {trailer!r}")
    body = lines[1:-2]
    expected = _expected_rows(argv)
    if expected is not None and len(body) != expected:
        problems.append(f"{len(body)} rows, expected {expected}")
    if not body:
        problems.append("no data rows")
    rows = list(csv.DictReader(io.StringIO("\n".join([lines[0], *body]))))
    if command in ("sweep", "junta"):
        problems += _guarantee_problems(rows)
    if command in ("checks", "gaussian"):
        problems += [f"row {i}: holds={r['holds']}" for i, r in enumerate(rows)
                     if r["holds"] != "true"]
    return problems


def case_counts(payload: bytes) -> Counter:
    """Rows per case label in a sweep or junta CSV; empty for other commands."""
    lines = payload.decode("ascii", errors="replace").splitlines()
    rows = csv.DictReader(line for line in lines if not line.startswith("#"))
    return Counter(row["case"] for row in rows if "case" in row)


def data_rows(payload: bytes) -> int:
    """CSV data rows: every line but the header and the trailer."""
    return max(0, payload.count(b"\n") - 2)


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


class Gate:
    """Checks every output of a run and counts the calls that fail.

    Beyond the per-call contract it requires identical bytes whenever an input
    repeats, the recorded digest at the default seed, and for the golden input
    the bytes of the pinned golden file.
    """

    def __init__(self, version: str, digests: dict[str, str], golden: bytes | None,
                 golden_key: str | None):
        self.version = version
        self.digests = digests
        self.golden = golden
        self.golden_key = golden_key
        self.seen: dict[str, str] = {}
        self.inputs: dict[str, list[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, key: str, argv: list[str], returncode: int, payload: bytes) -> bool:
        problems = check_output(argv, returncode, payload, self.version)
        digest = sha256(payload)
        self.inputs.setdefault(key, argv)
        if self.seen.setdefault(key, digest) != digest:
            problems.append("bytes differ from an earlier run of the same input")
        if key in self.digests and self.digests[key] != digest:
            problems.append("bytes differ from the digest recorded for the default seed")
        if key == self.golden_key and payload != self.golden:
            problems.append("bytes differ from tests/golden/sweep_golden.csv")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{key} ({argv[0]}): {p}" for p in problems]
        return not problems
