#!/usr/bin/env python3
"""Compute one outer multiplicity four independent ways and show the
per-orbit-member breakdown of the closed formula.

Usage: python scripts/headline_breakdown.py [--n 2 --i 1 --eta 6,6,5]
"""

import argparse
import time

from affmult import (
    outer_multiplicity_formula,
    tau_bruteforce,
    tau_formula,
    tensor_outer_multiplicities,
    xi_from_eta,
)
from affmult.affine_cartan import affine_Lambda
from affmult.multiplicities import tau_terms
from affmult.tableaux import mw_shapes_with_character


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--i", type=int, default=1)
    parser.add_argument("--eta", default="6,6,5")
    args = parser.parse_args()
    eta = tuple(int(x) for x in args.eta.split(","))
    n, i = args.n, args.i

    xi = xi_from_eta(n, i, eta)
    print(f"rank n={n}, charge i={i}, content character {eta}")
    print(f"highest weight: c-values {xi.c_values()}, degree {xi.degree}\n")

    t0 = time.monotonic()
    v1 = tau_formula(n, i, eta)
    print(f"orbit-pair formula      : {v1}  ({time.monotonic() - t0:.3f}s)")

    t0 = time.monotonic()
    shapes = mw_shapes_with_character(eta, i)
    print(f"tableau enumeration     : {len(shapes)}  "
          f"({time.monotonic() - t0:.3f}s)")
    for shape in shapes:
        print(f"    {shape}")

    t0 = time.monotonic()
    v3 = outer_multiplicity_formula(n, i, xi)
    print(f"orbit-set formula       : {v3}  ({time.monotonic() - t0:.3f}s)")

    depth = int(-xi.degree)
    t0 = time.monotonic()
    table = tensor_outer_multiplicities(affine_Lambda(n, 0),
                                        affine_Lambda(n, i), depth)
    print(f"character oracle (D={depth}) : {table[xi]}  "
          f"({time.monotonic() - t0:.3f}s)\n")

    print("per-member breakdown of the orbit-pair formula:")
    print(f"{'(m, p)':<26} {'bounds':<10} {'argument':<9} count")
    total = 0
    for pair, b, arg, count in tau_terms(n, i, eta):
        label = f"({pair.m}, {pair.p})"
        print(f"{label:<26} {str(b):<10} {str(arg):<9} {count}")
        total += count
    print(f"total: {total}")
    assert v1 == len(shapes) == v3 == table[xi] == total


if __name__ == "__main__":
    main()
