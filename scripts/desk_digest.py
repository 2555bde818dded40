#!/usr/bin/env python3
"""Print one SHA-256 line per case over the results of the desk-scale layer.

The cases: the JSON output of `e2sieve scan` in the benchmark's desk
workload (gaps, hits at the shift sets of seeds 1 and 2, and both bv
tables), the E2, P2 and prime masks at limits 100, 3,000, 10^6 and 10^6 + 12,
and the repr of `s_sums` for the desk workload's two weight systems.  Two
trees that print the same lines compute the same sequences, scans and sums.

    PYTHONPATH=src python3 scripts/desk_digest.py
"""

import hashlib
import random
import sys
from pathlib import Path

from e2sieve import TestFunction, numth, parse_poly, sieveweights

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import (  # noqa: E402
    BV_CASES, GAP_LIMIT, GAP_RHO, HIT_LIMIT, SUMS_CASES, SUMS_N, SUMS_PARAMS, hit_shifts, run_cli,
)

MASK_LIMITS = (100, 3_000, 10 ** 6, 10 ** 6 + 12)


def cases():
    yield "gaps", ["scan", "--mode", "gaps", "--limit", str(GAP_LIMIT), "--universe", "E2",
                   "--rho", str(GAP_RHO)]
    for seed in (1, 2):
        shifts = hit_shifts(random.Random(f"desk:{seed}"))   # as the desk workload draws them
        yield f"hits:seed{seed}", ["scan", "--mode", "hits", "--limit", str(HIT_LIMIT),
                                   "--universe", "P2", "--H", ",".join(map(str, shifts))]
    for N, universe, theta, eta in BV_CASES:
        yield f"bv:{universe}", ["scan", "--mode", "bv", "--limit", str(N), "--universe", universe,
                                 "--theta", str(theta)] + ([] if eta is None else ["--eta", str(eta)])


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    for name, argv in cases():
        run = run_cli(argv)
        print(name, digest(f"{run.code}\n{run.out}".encode()))
    for universe in numth.UNIVERSES:
        for limit in MASK_LIMITS:
            print(f"{universe}:{limit}", digest(numth._members(universe, limit).tobytes()))
    for shifts, expression, rho in SUMS_CASES:
        F = TestFunction(k=len(shifts), poly=parse_poly(expression, len(shifts)))
        ctx = sieveweights.SieveContext(N=SUMS_N, shifts=shifts, F=F, **SUMS_PARAMS)
        print(f"s_sums:k{len(shifts)}", digest(repr(sieveweights.s_sums(ctx, rho)).encode()))


if __name__ == "__main__":
    main()
