"""The four benchmark workloads, as seeded sequences of `hsf` CLI calls.

A workload is a list of rounds.  A round is the argv lists of the CLI calls
that belong together (one sweep; a junta call and an analyze call on the same
file; a checks call and a gaussian call).  Round r of a timed run uses input
index r // 2, so every input runs twice back to back and the correctness gate
can compare the two outputs byte for byte.

Inputs depend only on the workload seed and the input index.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20260815

# Every cell of the golden sweep: 3 families x 168 instances x 9 (eps, delta).
_GRID = ["--families", "equal,gaussian,geometric:0.97", "--n", "16",
         "--count", "168", "--theta-law", "gaussian:2"]
# One (eps, delta) cell per instance at the largest arity the CLI accepts.
_WIDE = ["--families", "gaussian,geometric:0.9", "--n", "22", "--max-n", "22",
         "--count", "2", "--epsilons", "0.1", "--deltas", "0.1"]
# Sample counts that make a checks call and a gaussian call take about as
# long, so the median call is not a coin flip between two kinds.
_CHECKS_SAMPLES = "500000"
_GAUSSIAN_SAMPLES = "2000000"
_JUNTA_EPSILON = "0.25"
# Above the small-delta guard delta**(4/3) < sqrt(0.25), so the head routes run.
_JUNTA_DELTAS = (0.62, 0.8, 0.95)


def _sweep_grid(seed: int, k: int, workdir: Path) -> list[list[str]]:
    return [["sweep", *_GRID, "--seed", str(seed + k)]]


def _sweep_wide(seed: int, k: int, workdir: Path) -> list[list[str]]:
    return [["sweep", *_WIDE, "--seed", str(seed + k)]]


def _junta_input(seed: int, k: int) -> tuple[list[float], float, float]:
    """Weights, theta and delta of junta-calls input k.

    1-3 dominant head weights and a near-equal tail, so the critical index at
    tau = 0.25 sits just past the head whenever the tail is long enough to be
    regular (IIb_Projection or IIa_PremiseViolated), and is infinite otherwise
    (III_HeadJunta).  Arity cycles 20, 19, ..., 16 so input 0 is always the
    largest and peak memory does not depend on how many inputs a run reaches.
    """
    rng = np.random.default_rng([seed, k])
    n = 20 - k % 5
    h = int(rng.integers(1, 4))
    head = rng.uniform(1.5, 4.0, size=h)
    tail = 1.0 + 0.01 * rng.standard_normal(n - h)
    weights = np.concatenate([head, tail]) * rng.choice([-1.0, 1.0], size=n)
    weights = weights[rng.permutation(n)]
    theta = float(rng.normal(0.0, 1.0))
    delta = _JUNTA_DELTAS[int(rng.integers(0, len(_JUNTA_DELTAS)))]
    return [float(w) for w in weights], theta, delta


def _junta_calls(seed: int, k: int, workdir: Path) -> list[list[str]]:
    weights, theta, delta = _junta_input(seed, k)
    path = workdir / f"ltf-{k}.json"
    if not path.exists():
        path.write_text(json.dumps({"weights": weights, "theta": theta}) + "\n",
                        encoding="ascii")
    return [
        ["junta", "--ltf", str(path), "--epsilon", _JUNTA_EPSILON,
         "--delta", repr(delta), "--seed", str(seed)],
        ["analyze", "--ltf", str(path), "--seed", str(seed)],
    ]


def _verify(seed: int, k: int, workdir: Path) -> list[list[str]]:
    return [
        ["checks", "--samples", _CHECKS_SAMPLES, "--seed", str(seed + k)],
        ["gaussian", "--samples", _GAUSSIAN_SAMPLES, "--seed", str(seed + k)],
    ]


# name -> (argv lists of round k, distinct inputs in a traced run)
WORKLOADS = {
    "sweep-grid": (_sweep_grid, 1),
    "sweep-wide": (_sweep_wide, 1),
    "junta-calls": (_junta_calls, 8),
    "verify": (_verify, 1),
}
