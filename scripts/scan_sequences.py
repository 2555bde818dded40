#!/usr/bin/env python3
# ======================================================================
# Desk-scale evidence: gap histograms for numbers with exactly two
# prime factors, and hit counts for a shifted tuple.  Everything here
# is direct counting -- no sieve weights involved.
# ======================================================================

import argparse

from e2sieve import gap_scan, gen_admissible, tuple_hit_count

LIMIT_DEFAULT = 200_000
TUPLE_K = 5  # matches the bundled five-shift target


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limit", type=int, default=LIMIT_DEFAULT)
    ap.add_argument("--rho", type=int, default=1, help="gap step (rho-apart members)")
    args = ap.parse_args()

    for universe in ("E2", "P2", "primes"):
        report = gap_scan(args.limit, args.rho, universe)
        print(f"{universe:>7}: min {args.rho}-step gap up to {args.limit} is "
              f"{report.min_gap} at {report.argmin}  "
              f"({report.scanned} gaps)")
        smallest = {g: report.histogram[g] for g in sorted(report.histogram)[:8]}
        print(f"         gap histogram (smallest gaps): {smallest}")

    tup = gen_admissible(TUPLE_K)
    shifts = tup.elements
    print(f"\nadmissible {TUPLE_K}-tuple: {shifts} (diameter {tup.diameter})")
    for universe in ("E2", "P2"):
        for threshold in range(2, TUPLE_K + 1):
            rep = tuple_hit_count(shifts, args.limit, universe, threshold)
            print(f"  {universe}: n <= {args.limit} with >= {threshold} of n+h in the "
                  f"sequence: {rep.count}  (first: {rep.witnesses[:4]})")


if __name__ == "__main__":
    main()
