"""Pinned CSV bytes of the non-empty-head routes of junta and analyze.

Every cell of the golden sweep takes the small-delta shortcut, so the
projection, premise-violation and head-junta routes (the head blocks'
biases, the projection rule, one sign table per route and the exact
block-count distance) need their own byte pins.  The digests were recorded
before the per-instance kernels were rewritten and must not move.
"""

import hashlib

import numpy as np
import pytest

from hsf import cli, save_ltf_file

N = 18
EPSILON = "0.25"


def _weights_theta_delta(seed: int) -> tuple[np.ndarray, float, float]:
    # 1-3 moderately dominant head weights over a near-equal tail long enough
    # to be regular at tau = 0.25, in random coordinates with random signs.
    rng = np.random.default_rng([20261017, seed])
    h = int(rng.integers(1, 4))
    head = rng.uniform(1.0, 2.0, size=h)
    tail = 1.0 + 0.01 * rng.standard_normal(N - h)
    weights = np.concatenate([head, tail]) * rng.choice([-1.0, 1.0], size=N)
    weights = weights[rng.permutation(N)]
    theta = float(rng.normal(0.0, 1.0))
    delta = (0.62, 0.8, 0.95)[int(rng.integers(0, 3))]
    return weights, theta, delta


# seed -> (case, sha256 of the junta CSV, sha256 of the analyze CSV)
PINNED = {
    2: ("IIb_Projection",
        "2861fb0f8ba80f5a057f1390dbe8aa128243bb6dc6dd3950be5ee66489d5e013",
        "16ffa2133a0c64e44345760a116b78a12cd1c8a93f3f29e0d33292f8d9e7b44d"),
    23: ("IIa_PremiseViolated",
         "fb3aa3e9ffe0e37af2e51f275c50b65b58ded50c0f280c2c38b9131e8b36b430",
         "78167c70d630c44c80ff1c38256016373df9c7664bd5022d1eb4a169d5a4e078"),
    0: ("III_HeadJunta",
        "4e5efbcf58de10ca0e1af643fe4b1a144420462983c071c0ade18a2b4bc50378",
        "48168288add981169327088396202e749cb192906a84162f3647b0c28003df60"),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_head_route_csv_bytes(tmp_path, seed):
    case, junta_digest, analyze_digest = PINNED[seed]
    weights, theta, delta = _weights_theta_delta(seed)
    ltf_path = tmp_path / "ltf.json"
    save_ltf_file(ltf_path, weights, theta)
    junta_csv = tmp_path / "junta.csv"
    analyze_csv = tmp_path / "analyze.csv"
    cli.main(["junta", "--ltf", str(ltf_path), "--epsilon", EPSILON,
              "--delta", repr(delta), "--quiet", "--out", str(junta_csv)])
    assert cli.main(["analyze", "--ltf", str(ltf_path), "--quiet",
                     "--out", str(analyze_csv)]) == 0
    junta_bytes = junta_csv.read_bytes()
    analyze_bytes = analyze_csv.read_bytes()
    assert junta_bytes.splitlines()[1].split(b",")[0].decode() == case
    assert b"\nbias,ell," in analyze_bytes
    assert hashlib.sha256(junta_bytes).hexdigest() == junta_digest
    assert hashlib.sha256(analyze_bytes).hexdigest() == analyze_digest
