"""Gaussian comparisons behind the Boolean results.

Three numerical facts about correlated standard normals: the quadrant
probability (Sheppard's formula), a disagreement lower bound for shifted
thresholds checked by Monte Carlo, and the bounded tail-shape ratio.
"""

import math

import numpy as np

from hsf import (
    gaussian_disagreement,
    gaussian_ns_bound,
    gaussian_ns_mc,
    tail_ratio,
)


def main():
    print("Sheppard: P[sign(X) != sign(Y)] = arccos(rho)/pi for centered pairs")
    for rho in (0.0, 0.5, 0.9):
        exact = gaussian_disagreement(0.0, rho)
        est = gaussian_ns_mc(0.0, rho, samples=400_000, seed=2)
        print(f"  rho={rho:<4} exact={exact:.5f}  mc={est.value:.5f} "
              f"(+-{est.radius:.5f})")

    print("\nshifted thresholds: estimate stays above the proven lower bound")
    for theta in (0.5, 1.0, 2.0):
        for rho in (0.5, 0.9):
            eps = (1.0 - rho) / 2.0
            bound = gaussian_ns_bound(theta, eps)
            est = gaussian_ns_mc(theta, rho, samples=400_000, seed=3)
            margin = est.value - bound
            print(f"  theta={theta:<4} rho={rho:<4} bound={bound:.5f}  "
                  f"mc={est.value:.5f}  margin={margin:+.5f}")

    print("\ntail-shape ratio tail(t)*(t+1)*exp(t^2/2): bounded on [0, 10]")
    ratios = tail_ratio(np.linspace(0.0, 10.0, 1001))
    print(f"  band observed: [{ratios.min():.6f}, {ratios.max():.6f}]")
    print(f"  at 0 the ratio is exactly {tail_ratio(0.0)}; for large t it "
          f"decreases toward 1/sqrt(2 pi) = {1/math.sqrt(2*math.pi):.6f}, "
          "so the band sits strictly inside (0, 1).")


if __name__ == "__main__":
    main()
