"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Each test computes its property, records a summary line for the terminal
report, and asserts. Tolerances are pinned; seeds are fixed so every run
checks the same instances.
"""

import csv
import math

import numpy as np
from conftest import record_criterion

from hsf import (
    BooleanFunction,
    bias_profile,
    canonicalize,
    cli,
    constant_bound_check,
    gaussian_disagreement,
    gaussian_ns_bound,
    gaussian_ns_mc,
    head_projection,
    ns_aggregation_check,
    ns_bruteforce,
    ns_exact,
    random_function,
    regular_cdf_gap,
    regularity_profile,
    restriction_energy_identity,
    synthesize,
    tail_ratio,
    truth_table,
    wht,
)
from _oracles import (
    TAIL_RATIO_BAND_MAX,
    TAIL_RATIO_BAND_MIN,
    junta_distance,
    majority_values,
    mp_tail_ratio,
    parity_values,
)

SEED = 20260815
GOLDEN = "tests/golden/sweep_golden.csv"


def _submasks_of(positions):
    masks = [0]
    for pos in positions:
        masks += [m | (1 << pos) for m in masks]
    return masks


def test_criterion_01_transform_roundtrip():
    worst_parseval = 0.0
    worst_roundtrip = 0.0
    for i in range(200):
        n = 1 + i % 14
        f = random_function(n, [SEED, 1, i])
        spectrum = wht(f)
        worst_parseval = max(worst_parseval, abs(spectrum.total_weight() - 1.0))
        gap = float(np.max(np.abs(synthesize(spectrum) - f.values)))
        worst_roundtrip = max(worst_roundtrip, gap)
    ok = worst_parseval <= 1e-9 and worst_roundtrip <= 1e-9
    record_criterion(
        1, ok,
        f"max Parseval gap {worst_parseval:.2e}, "
        f"max round-trip gap {worst_roundtrip:.2e} over 200 functions",
    )
    assert ok


def test_criterion_02_ns_oracle_equivalence():
    worst = 0.0
    for i in range(50):
        f = random_function(1 + i % 10, [SEED, 2, i])
        spectrum = wht(f)
        for eps in (0.05, 0.1, 0.25, 0.5):
            worst = max(worst, abs(ns_exact(spectrum, eps) - ns_bruteforce(f, eps)))
    ok = worst <= 1e-9
    record_criterion(2, ok, f"max |spectral - direct| {worst:.2e} over 200 pairs")
    assert ok


def test_criterion_03_closed_forms():
    dictator = wht(BooleanFunction(1, [1, -1]))
    parity = wht(BooleanFunction(2, parity_values(2, 0b11)))
    maj3 = BooleanFunction(3, majority_values(3))
    eps_grid = (0.01, 0.05, 0.1, 0.25, 0.5)
    dict_dev = max(abs(ns_exact(dictator, e) - e) for e in eps_grid)
    par_dev = max(
        abs(ns_exact(parity, e) - 2.0 * e * (1.0 - e)) for e in eps_grid
    )
    maj_exact = ns_exact(wht(maj3), 0.1)
    maj_dev = abs(maj_exact - ns_bruteforce(maj3, 0.1))
    ok = (
        dict_dev <= 1e-12
        and par_dev <= 1e-12
        and maj_dev <= 1e-9
        and abs(maj_exact - 0.136) <= 1e-12
    )
    record_criterion(
        3, ok,
        f"dictator dev {dict_dev:.1e}, parity dev {par_dev:.1e}, "
        f"maj3(0.1) = {maj_exact}",
    )
    assert ok


def test_criterion_04_constant_lower_bound():
    violations = 0
    for i in range(100):
        spectrum = wht(random_function(1 + i % 10, [SEED, 4, i]))
        for eps in (0.1, 0.3):
            if not constant_bound_check(spectrum, eps).holds:
                violations += 1
    ok = violations == 0
    record_criterion(4, ok, f"{violations} violations over 200 checks")
    assert ok


def test_criterion_05_restriction_energy_identity():
    rng = np.random.default_rng([SEED, 5])
    worst = 0.0
    checked = 0
    for i in range(30):
        n = 2 + i % 7
        h = min(1 + i % 3, n - 1)
        f = random_function(n, [SEED, 5, i])
        head_positions = rng.choice(n, size=h, replace=False)
        head = int(sum(1 << int(j) for j in head_positions))
        complement = [j for j in range(n) if not (head >> j) & 1]
        for subset in _submasks_of(complement):
            worst = max(worst, restriction_energy_identity(f, head, subset).gap)
            checked += 1
    ok = worst <= 1e-9
    record_criterion(5, ok, f"max identity gap {worst:.2e} over {checked} subsets")
    assert ok


def test_criterion_06_ns_aggregation():
    rng = np.random.default_rng([SEED, 6])
    holds = 0
    fired = 0
    contradicted = 0
    for i in range(100):
        n = 2 + i % 7
        h = min(1 + i % 3, n - 1)
        eps = (0.05, 0.1, 0.25, 0.5)[i % 4]
        f = random_function(n, [SEED, 6, i])
        head_positions = rng.choice(n, size=h, replace=False)
        head = int(sum(1 << int(j) for j in head_positions))
        agg = ns_aggregation_check(f, head, eps)
        holds += agg.holds
        corollary = agg.threshold_corollary(
            float(np.median(agg.restricted)), 0.25
        )
        fired += corollary.fires
        contradicted += not corollary.holds
    ok = holds == 100 and contradicted == 0
    record_criterion(
        6, ok,
        f"aggregation holds {holds}/100, corollary fired {fired}, "
        f"contradicted {contradicted}",
    )
    assert ok


def test_criterion_07_gaussian_lower_bound():
    cells_ok = 0
    sheppard_dev = 0.0
    k = 0
    for theta in (0.0, 0.5, 1.0, 2.0):
        for rho in (0.0, 0.5, 0.9):
            eps = (1.0 - rho) / 2.0
            est = gaussian_ns_mc(theta, rho, 1_000_000, [SEED, 7, k])
            k += 1
            bound = gaussian_ns_bound(theta, eps)
            if est.value >= bound - 4.0 * est.radius:
                cells_ok += 1
            if theta == 0.0:
                dev = abs(est.value - gaussian_disagreement(0.0, rho))
                sheppard_dev = max(sheppard_dev, dev / (4.0 * est.radius))
    ok = cells_ok == 12 and sheppard_dev <= 1.0
    record_criterion(
        7, ok,
        f"{cells_ok}/12 cells above bound, worst Sheppard deviation "
        f"{sheppard_dev:.2f} of allowance",
    )
    assert ok


def test_criterion_08_tail_ratio_band():
    grid = np.linspace(0.0, 10.0, 1001)
    values = tail_ratio(grid)
    lo_dev = abs(values.min() - TAIL_RATIO_BAND_MIN)
    hi_dev = abs(values.max() - TAIL_RATIO_BAND_MAX)
    oracle_dev = max(
        abs(values[values.argmin()] - mp_tail_ratio(grid[values.argmin()])),
        abs(values[values.argmax()] - mp_tail_ratio(grid[values.argmax()])),
    )
    ok = (
        lo_dev <= 1e-13
        and hi_dev <= 1e-13
        and oracle_dev <= 1e-12
        and tail_ratio(0.0) == 0.5
    )
    record_criterion(
        8, ok,
        f"band [{values.min():.6f}, {values.max():.6f}] frozen, "
        f"high-precision oracle gap {oracle_dev:.1e}",
    )
    assert ok


def test_criterion_09_regular_cdf_gap():
    majority = canonicalize(np.ones(16), 0.0)
    geometric = canonicalize(0.999 ** np.arange(1, 17), 0.0)
    results = []
    for ltf in (majority, geometric):
        tau = regularity_profile(ltf).tau_star
        gap = regular_cdf_gap(ltf)
        results.append((tau, gap))
    ok = all(gap <= 2.0 * tau for tau, gap in results)
    record_criterion(
        9, ok,
        "sup gap vs normal " + ", ".join(
            f"{gap:.4f} <= 2 * {tau:.4f}" for tau, gap in results
        ),
    )
    assert ok


def test_criterion_10_dominant_head_projection():
    rng = np.random.default_rng([SEED, 10])
    certified = 0
    max_distance = 0.0
    max_residual = 0.0
    for i in range(20):
        h = 2 + i % 3
        head_weights = [6.0 * 2**j for j in range(h - 1, -1, -1)]
        tail_weights = rng.uniform(0.5, 1.0, size=12).tolist()
        theta = float(rng.uniform(-1.0, 1.0))
        ltf = canonicalize(head_weights + tail_weights, theta)
        table = truth_table(ltf)
        mask = (1 << h) - 1
        proj = head_projection(table, mask, 0.1)
        certified += proj.certified
        max_distance = max(max_distance, junta_distance(
            table.values, proj.approximator.values, mask, table.arity))
        max_residual = max(max_residual, proj.residual_sq)
    ok = certified == 20 and max_distance <= 3 * 0.1 and max_residual < 2 * 0.1
    record_criterion(
        10, ok,
        f"{certified}/20 certified, max distance {max_distance:.4f} <= 0.3, "
        f"max residual {max_residual:.4f} < 0.2",
    )
    assert ok


def test_criterion_11_best_junta_optimality():
    rng = np.random.default_rng([SEED, 11])
    combos = 0
    beaten = 0
    for n in (2, 3, 4, 5, 6):
        for h in (1, 2, 3):
            if h >= n:
                continue
            f = random_function(n, [SEED, 11, n, h])
            head_positions = rng.choice(n, size=h, replace=False)
            head = int(sum(1 << int(j) for j in head_positions))
            best_junta = np.where(bias_profile(f, head) >= 0, 1, -1)
            best = junta_distance(f.values, best_junta, head, n)
            for pattern in range(1 << (1 << h)):
                bits = (pattern >> np.arange(1 << h)) & 1
                candidate = np.where(bits == 1, 1, -1)
                rival = junta_distance(f.values, candidate, head, n)
                if rival < best - 1e-15:
                    beaten += 1
            combos += 1
    ok = beaten == 0 and combos == 12
    record_criterion(
        11, ok, f"optimum never beaten across {combos} exhaustive head sets"
    )
    assert ok


def test_criterion_12_end_to_end_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main([
        "sweep", "--families", "equal,gaussian,geometric:0.97",
        "--n", "16", "--count", "168", "--seed", str(SEED),
        "--theta-law", "gaussian:2", "--quiet", "--out", str(out),
    ])
    assert code == 0
    fresh = out.read_bytes()
    with open(GOLDEN, "rb") as fh:
        golden = fh.read()
    byte_identical = fresh == golden
    lines = [l for l in fresh.decode().splitlines() if not l.startswith("#")]
    rows = list(csv.DictReader(lines))
    instances = {(r["family"], r["rate"], r["instance"]) for r in rows}
    fails = sum(r["verdict"] == "fail" for r in rows)
    non_vacuous = sum(r["verdict"] == "pass" for r in rows)
    bound_violations = 0
    for r in rows:
        if r["premise_holds"] != "true" or math.isnan(float(r["guarantee"])):
            continue
        if float(r["distance"]) > float(r["guarantee"]) + 1e-12:
            bound_violations += 1
        if int(r["junta_size"]) > int(r["L"]):
            bound_violations += 1
    ok = (
        byte_identical
        and len(instances) >= 500
        and fails == 0
        and non_vacuous >= 1
        and bound_violations == 0
    )
    record_criterion(
        12, ok,
        f"{len(instances)} instances, {fails} failures, {non_vacuous} "
        f"non-vacuous passes, golden byte-identical: {byte_identical}",
    )
    assert ok
