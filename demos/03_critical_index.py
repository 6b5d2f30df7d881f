"""Weight regularity, the critical index, and near-Gaussian linear forms.

A weight vector is tau-regular when no single coordinate dominates: every
|w_i| is at most tau times the remaining norm. The critical index marks how
deep into the sorted weights one must go before the tail becomes regular.
Regular linear forms behave like Gaussians, and the sup-CDF gap shows it.
"""

import numpy as np

from hsf import (
    canonicalize,
    critical_index,
    regular_cdf_gap,
    regularity_profile,
)


def show(name, weights, tau):
    ltf = canonicalize(weights, 0.0)
    profile = regularity_profile(ltf)
    ell = critical_index(ltf, tau)
    print(f"{name}: n={ltf.n_active}, tau*={profile.tau_star:.4f}")
    print(f"  weights (canonical) : {np.round(ltf.weights[:6], 4)} ...")
    print(f"  critical index at tau={tau}: {ell}")
    if ell != float("inf") and ell > 1:
        tail = canonicalize(ltf.weights[int(ell) - 1:], 0.0)
        print(
            f"  head of size {int(ell) - 1} removed -> tail tau* = "
            f"{regularity_profile(tail).tau_star:.4f}"
        )
    print(f"  sup |CDF - normal| of the linear form: {regular_cdf_gap(ltf):.4f}")
    print()


def main():
    # Equal weights are as regular as n allows: tau* = 1/sqrt(n).
    show("equal-16", np.ones(16), tau=0.3)

    # A geometric decay with gentle rate stays regular; steep rate does not.
    show("geometric rate 0.99", 0.99 ** np.arange(1, 17), tau=0.3)
    show("geometric rate 0.50", 0.50 ** np.arange(1, 17), tau=0.3)

    # One huge weight forces the index past the first coordinate.
    show("dominant head", np.concatenate(([8.0], np.ones(15))), tau=0.3)


if __name__ == "__main__":
    main()
