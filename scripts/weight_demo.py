#!/usr/bin/env python3
# ======================================================================
# Small-N walkthrough of the sieve-weight machinery: build a context,
# show the support/weight tables, recover the smooth coordinates from
# the assembled weights, and evaluate the weighted counting sums.
# All arithmetic exact; only the printed floats are rounded.
# ======================================================================

import argparse
from fractions import Fraction

from e2sieve import SieveContext, TestFunction, parse_poly, s_sums, y_from_lambda

N_DEFAULT = 10_000
SHIFTS = (0, 2)
EXPR = "(1-u1)*(1-u2)"  # symmetric, vanishes on the far faces
RHO = 1


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--N", type=int, default=N_DEFAULT)
    args = ap.parse_args()

    F = TestFunction(k=len(SHIFTS), poly=parse_poly(EXPR, len(SHIFTS)))
    ctx = SieveContext(
        N=args.N,
        shifts=SHIFTS,
        F=F,
        theta=Fraction(1),
        delta=Fraction(149, 2000),
        eta=Fraction(1, 10),
    )
    print(f"N={ctx.N}  shifts={ctx.shifts}  R={ctx.R}  Y={ctx.Y}  W={ctx.W}  nu0={ctx.nu0}")
    tuples = ctx.supported_tuples()
    print(f"supported index tuples: {len(tuples)}")
    for t in tuples[:8]:
        print(f"  r={t}  y_r={ctx.y_table_value(t)}")

    recovered = {t: y_from_lambda(ctx, t) for t in tuples}
    exact = {t: ctx.y_table_value(t) for t in tuples}
    print(f"smooth coordinates recovered from weights exactly: {recovered == exact}")

    sums = s_sums(ctx, RHO)
    print(f"\nweighted sums over [{ctx.N}, {2 * ctx.N})  ({sums.n_scanned} residues)")
    print(f"  S0 = {sums.S0} = {float(sums.S0):.6g}")
    for m, (s1, s2) in enumerate(zip(sums.S1, sums.S2), 1):
        print(f"  m={m}: S1 = {float(s1):.6g}   S2 = {float(s2):.6g}")
        parts = sums.parts[m - 1]
        total = sum(parts.values(), Fraction(0))
        print(f"        S2 parts I..IV sum back exactly: {total == s2}")
    print(f"  S  (rho={sums.rho}) = {float(sums.S):.6g}")
    print(f"  S' (rho={sums.rho}) = {float(sums.Sprime):.6g}")


if __name__ == "__main__":
    main()
