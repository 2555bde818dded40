#!/usr/bin/env python3
"""Print one SHA-256 line per case over the exact values of a leading coefficient.

Each digest covers the canonical text of I, every J, L and M, the value and
the four addends, so two trees that print the same lines compute the same
exact values.  The cases: the three bundled targets in both variants, the
benchmark's seeded asymmetric test functions at seeds 1 and 2, a test
function symmetric in u1 and u2 only, a box-truncated one, one at delta > 0
(so c = theta/2 - delta has a denominator of its own), the symmetric basis
sum 1 + P1 + P1^2 + P2 at k = 20, and a k = 3 expression that exercises the
parser's grammar: unary minus, division by a negative rational, powers of
sums, and u and P names.

    PYTHONPATH=src python3 scripts/exact_digest.py
"""

import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

from e2sieve import TARGETS, SieveParams, TestFunction, leading_coefficient, parse_poly

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import CUSTOM, CUSTOM_RHO, custom_expression  # noqa: E402

SYM12 = "1 - P1 + u1*u2 + 3*u3**2 - u4/7 + (u1+u2)**2*u3"
DELTA = "(1 - P1)**2 + u1*u2/3 - 2*u3**3 + u2*u3"
GRAMMAR = "-(1 - P1)**2 + (u1*u2 - 3*P2)/(-7/3) - -(u1 + 2*u3)**3/5 + (2 - u2)*P1**2/(-4)"


def cases():
    for name, target in TARGETS.items():
        for variant in ("S", "Sprime"):
            yield f"{name}:{variant}", target.test_function(), target.params(), variant
    for seed in (1, 2):
        rng = random.Random(f"exact:{seed}")   # as the benchmark's exact workload draws them
        for index, (k, degree, theta, eta, variant) in enumerate(CUSTOM, 1):
            F = TestFunction(k=k, poly=parse_poly(custom_expression(rng, k, degree), k))
            params = SieveParams(k=k, rho=CUSTOM_RHO, theta=Fraction(theta), eta=Fraction(eta))
            yield f"custom{index}:seed{seed}", F, params, variant
    params4 = SieveParams(k=4, rho=2, theta=Fraction(1), eta=Fraction(1, 100))
    yield "sym12", TestFunction(k=4, poly=parse_poly(SYM12, 4)), params4, "S"
    boxed = TestFunction(k=3, poly=parse_poly("(1-u1)*(1-u2)*(1-u3) + u1*u2", 3),
                         box_bound=Fraction(1, 50))
    yield "boxed", boxed, SieveParams(k=3, rho=2, theta=Fraction(1, 2), eta=Fraction(1, 100)), "Sprime"
    delta = SieveParams(k=3, rho=2, theta=Fraction(1), delta=Fraction(1, 20), eta=Fraction(1, 100))
    yield "delta", TestFunction(k=3, poly=parse_poly(DELTA, 3)), delta, "Sprime"
    grammar = SieveParams(k=3, rho=2, theta=Fraction(1, 2), eta=Fraction(1, 100))
    yield "grammar", TestFunction(k=3, poly=parse_poly(GRAMMAR, 3)), grammar, "S"
    basis = TestFunction(k=20, poly=parse_poly("1 + P1 + P1**2 + P2", 20))
    yield "basis20", basis, SieveParams(k=20, rho=3, theta=Fraction(1), eta=Fraction(1, 100)), "S"


def main() -> None:
    for name, F, params, variant in cases():
        lc = leading_coefficient(F, params, variant)
        parts = [str(lc.I_value), *map(str, lc.J_values),
                 *(v.to_text() for v in lc.L_values + lc.M_values), lc.value.to_text(),
                 *(f"{key}={v.to_text()}" for key, v in lc.breakdown.items())]
        print(name, hashlib.sha256("\n".join(parts).encode()).hexdigest())


if __name__ == "__main__":
    main()
