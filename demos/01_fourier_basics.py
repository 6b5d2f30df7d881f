"""Truth tables, the fast transform, and what the coefficients mean.

Builds three small Boolean functions, transforms each, and shows how the
squared coefficients split the function's variance across coordinate subsets.
"""

import numpy as np

from hsf import BooleanFunction, random_function, synthesize, wht


def describe(name, f):
    spectrum = wht(f)
    coeffs = spectrum.coefficients
    print(f"{name} (n={f.arity})")
    print(f"  table        : {' '.join(f'{v:+d}' for v in f.values)}")
    for subset in np.flatnonzero(np.abs(coeffs) > 1e-12):
        members = [str(j + 1) for j in range(f.arity) if (subset >> j) & 1]
        label = "{" + ",".join(members) + "}" if members else "{}"
        print(f"  coeff {label:<8}: {coeffs[subset]:+.4f}")
    print(f"  total weight : {spectrum.total_weight():.12f} (always 1 for +-1 tables)")
    gap = np.max(np.abs(synthesize(spectrum) - f.values))
    print(f"  round trip   : max gap {gap:.1e}")
    print()


def main():
    # x1: the dictator ignores everything but its first input.
    describe("dictator", BooleanFunction(1, [1, -1]))

    # x1 * x2: parity is pure degree 2, a single coefficient at the top.
    describe("parity", BooleanFunction(2, [1, -1, -1, 1]))

    # majority of three: all weight sits on odd-size subsets.
    rows = np.arange(8)
    ones = 3 - (rows & 1) - ((rows >> 1) & 1) - ((rows >> 2) & 1)
    describe("majority-3", BooleanFunction(3, np.where(ones * 2 >= 3, 1, -1)))

    # A random function spreads weight everywhere; Parseval still holds.
    f = random_function(6, seed=7)
    print("random n=6 function, squared weight by degree:")
    for d, w in enumerate(wht(f).degree_weights):
        print(f"  degree {d}: {w:.4f} " + "#" * int(round(40 * w)))


if __name__ == "__main__":
    main()
