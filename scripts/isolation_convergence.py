#!/usr/bin/env python3
"""Closed-form convergence table along the critical family (no simulation).

For n in a geometric range with P = 2n and ring sizes solved for a
zero-deviation target, prints the achieved deviation, the expected group-1
isolated count against its limit a_1 * exp(-beta), and the second-moment
cross ratio (which must sit near 1 for the isolation count to concentrate).
Also prints the idealized family with b_1 pinned to exactly ln(n)/n, where
the group-1 moment converges monotonically to a_1.

    python3 scripts/isolation_convergence.py
"""

import argparse
import math
import sys

from rigraph import ModelParams, beta, cross_moment_ratio, expected_isolated, expected_isolated_from_b, solve_k1
from rigraph.cli import _floats_csv, _ints_csv, _run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--exponents", type=_ints_csv, default="3,4,5,6", help="powers of 10 for n")
    ap.add_argument("--a", type=_floats_csv, default="0.5,0.5")
    ap.add_argument("--ratios", type=_floats_csv, default="1,2")
    return _run(_print_tables, ap.parse_args())


def _print_tables(args: argparse.Namespace) -> None:
    a, ratios, exps = args.a, args.ratios, args.exponents
    print("integer ring sizes solved for target beta = 0 (P = 2n):")
    print(f"{'n':>9} {'K':>9} {'beta':>8} {'E[I]':>12} {'a1*e^-beta':>12} {'cross_ratio':>12}")
    for e in exps:
        n = 10**e
        params = ModelParams(n=n, a=a, K=solve_k1(n, 2 * n, a, ratios, 0.0), P=2 * n)
        _, e_i = expected_isolated(params)
        bta = beta(params)
        print(
            f"{n:>9} {';'.join(map(str, params.K)):>9} {bta:>+8.3f} "
            f"{e_i:>12.6f} {a[0] * math.exp(-bta):>12.6f} {cross_moment_ratio(params):>12.6f}"
        )

    print("\nidealized family with b_1 = ln(n)/n exactly (beta = 0):")
    print(f"{'n':>9} {'E[I]':>12} {'|E[I]-a1|':>12}")
    for e in exps:
        n = 10**e
        b1 = math.log(n) / n
        _, e_i = expected_isolated_from_b(n, a, (b1,) * len(a))
        print(f"{n:>9} {e_i:>12.9f} {abs(e_i - a[0]):>12.3e}")


if __name__ == "__main__":
    sys.exit(main())
