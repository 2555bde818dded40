"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test is self-contained and named after the criterion it enforces, so a
`pytest -v` run reads as the acceptance checklist.  Reference digits are the
published values the package is expected to reproduce; tolerances are five
units in the last printed digit unless a tighter bound is stated.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import mpmath

from e2sieve import (
    TARGETS,
    LogLinear,
    SieveContext,
    SieveParams,
    TestFunction,
    gap_scan,
    is_admissible,
    leading_coefficient,
    loglinear_eval,
    mc_simplex_integral,
    parse_poly,
    s_sums,
    theorem11_plan,
    y_from_lambda,
)
from e2sieve.cli import main
from e2sieve.functionals import quad_outer
from e2sieve.numth import e2_sequence

from conftest import iterated_simplex_integral, monomial_simplex_integral

MC_SEED = 20260817


# ---------------------------------------------------------------------------
# 1. exact rational reproduction of the k = 5 inner integrals
# ---------------------------------------------------------------------------


def test_criterion_1_exact_rationals_for_the_k5_target(target_coefficients):
    lc = target_coefficients["thm1.4"]
    assert lc.I_value == Fraction(1735763, 1732500000)
    for J in lc.J_values:
        assert J == Fraction(722755717, 1871100000000)


# ---------------------------------------------------------------------------
# 2. decimal reproduction of the ten published values
# ---------------------------------------------------------------------------


def test_criterion_2_published_decimals_within_displayed_precision(target_coefficients):
    # (target, quantity, printed value, five units in its last digit)
    cases = [
        ("thm1.3", "I", 0.0287919, 5e-7),
        ("thm1.3", "J", 0.0154828, 5e-7),
        ("thm1.3", "L", 0.1606331, 5e-7),
        ("thm1.3", "M", 0.0779163, 5e-7),
        ("thm1.2", "I", 5.30806e-6, 5e-11),
        ("thm1.2", "J", 1.88915e-6, 5e-11),
        ("thm1.2", "L", 9.20744e-6, 5e-11),
        ("thm1.2", "M", 2.22265e-6, 5e-11),
        ("thm1.4", "L", 0.00392368, 5e-8),
        ("thm1.4", "M", 0.00190092, 5e-8),
    ]
    for name, quantity, printed, tol in cases:
        lc = target_coefficients[name]
        if quantity == "I":
            computed = float(lc.I_value)
        elif quantity == "J":
            computed = float(lc.J_values[0])
        elif quantity == "L":
            computed = float(loglinear_eval(lc.L_values[0], 25))
        else:
            computed = float(loglinear_eval(lc.M_values[0], 25))
        assert abs(computed - printed) <= tol, (name, quantity, computed, printed)


# ---------------------------------------------------------------------------
# 3. leading-coefficient verdicts and exit codes
# ---------------------------------------------------------------------------


def test_criterion_3_leading_coefficient_verdicts(target_coefficients, capsys):
    values = {name: float(loglinear_eval(lc.value, 30))
              for name, lc in target_coefficients.items()}
    assert abs(values["thm1.3"] - 0.00204) <= 5e-5
    # the symbolic closed form lands within half a unit of the printed digits
    assert abs(values["thm1.2"] - 8.02e-8) <= 5e-10
    assert abs(values["thm1.4"] - 2.13079e-6) <= 5e-11
    # coarser guarantee vs the published digits (those came from 6-figure inputs)
    assert abs(values["thm1.4"] - 2.13079e-6) <= 5e-7
    for name, v in values.items():
        assert v > 0, name
        assert main(["verify", "--theorem", name]) == 0
        capsys.readouterr()


# ---------------------------------------------------------------------------
# 4. closed forms vs adaptive quadrature
# ---------------------------------------------------------------------------


def test_criterion_4_closed_forms_match_quadrature(target_coefficients):
    for name, target in TARGETS.items():
        lc = target_coefficients[name]
        F, params = target.test_function(), target.params()
        for kind, closed in (("L", lc.L_values[0]), ("M", lc.M_values[0])):
            q = quad_outer(F, 1, params, kind)
            assert abs(q - float(loglinear_eval(closed, 25))) <= 1e-12, (name, kind)


# ---------------------------------------------------------------------------
# 5. oracle equivalence: symbolic iterated integration and Monte Carlo
# ---------------------------------------------------------------------------


def test_criterion_5_simplex_oracles(target_coefficients):
    # exhaustive sweep against the one-variable-at-a-time oracle
    for k in range(1, 5):
        for exps in itertools.product(range(7), repeat=k):
            if sum(exps) <= 6:
                assert monomial_simplex_integral(exps) == iterated_simplex_integral(exps)
    # Monte Carlo agreement on the three bundled functions
    for name, target in TARGETS.items():
        lc = target_coefficients[name]
        F = target.test_function()
        est_i = mc_simplex_integral(F, "I", samples=10**6, seed=MC_SEED)
        assert abs(est_i.value - float(lc.I_value)) <= 4 * est_i.stderr, name
        est_j = mc_simplex_integral(F, "J", samples=10**6, seed=MC_SEED + 1, m=1)
        assert abs(est_j.value - float(lc.J_values[0])) <= 4 * est_j.stderr, name


# ---------------------------------------------------------------------------
# 6. sieve identities at desk scale
# ---------------------------------------------------------------------------


def test_criterion_6_desk_scale_sieve_identities():
    start = time.perf_counter()
    F = TestFunction(k=2, poly=parse_poly("(1-u1)*(1-u2)", 2))
    ctx = SieveContext(N=10**4, shifts=(0, 2), F=F, theta=Fraction(1),
                       delta=Fraction(149, 2000), eta=Fraction(1, 10))
    assert ctx.R == 50

    # lambda -> y inverts the table exactly, and the table tracks the true
    # F(log r / log R) within the context's accumulated error bound
    bound = ctx.y_error_bound()
    with mpmath.workdps(60):
        lnR = mpmath.log(ctx.R)
        for r in ctx.supported_tuples():
            recovered = y_from_lambda(ctx, r)
            assert recovered == ctx.y_table_value(r)
            acc = mpmath.mpf(0)
            for exps, c in ctx.F.poly.terms.items():
                term = mpmath.mpf(c.numerator) / c.denominator
                for e, ri in zip(exps, r):
                    term *= (mpmath.log(ri) / lnR) ** e
                acc += term
            err = abs(mpmath.mpf(recovered.numerator) / recovered.denominator - acc)
            assert err <= mpmath.mpf(bound.numerator) / bound.denominator

    sums = s_sums(ctx, rho=1)
    for m in range(ctx.k):
        assert sum(sums.parts[m].values(), Fraction(0)) == sums.S2[m]
    assert sums.S == sum(sums.S2, Fraction(0)) - 1 * sums.S0
    assert sums.S0 > 0
    assert time.perf_counter() - start < 60


# ---------------------------------------------------------------------------
# 7. number-theory ground truth
# ---------------------------------------------------------------------------


def test_criterion_7_sequences_and_admissibility():
    seq = e2_sequence(10**6)
    assert seq[:4] == [6, 10, 14, 15]

    # independent oracle: products of two distinct primes, built from scratch
    limit = 10**6
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    primes = [n for n in range(2, limit + 1) if sieve[n]]
    oracle = []
    for i, p in enumerate(primes):
        if p * p > limit:
            break
        for q in primes[i + 1 :]:
            if p * q > limit:
                break
            oracle.append(p * q)
    assert seq == sorted(oracle)

    for shifts, expected in [((0, 2, 6), True), ((0, 2, 6, 8, 12), True),
                             ((0, 4, 6, 10, 12, 16), True), ((0, 2, 4), False)]:
        verdict, _ = is_admissible(shifts)
        assert verdict is expected, shifts

    one = gap_scan(10**4, 1, "E2")
    assert one.min_gap == 1 and one.argmin == (14, 15)
    two = gap_scan(10**4, 2, "E2")
    assert two.min_gap == 2 and two.argmin == (33, 34, 35)


# ---------------------------------------------------------------------------
# 8. large-k machinery: exact identities and the growth crossover
# ---------------------------------------------------------------------------


def test_criterion_8_large_k_identities(target_coefficients):
    # 2 k eta / theta = 2 T, checked exactly through eta_ratio = theta / k
    rng = random.Random(MC_SEED)
    for _ in range(50):
        rho = rng.randint(3, 60)
        theta = Fraction(rng.randint(1, 10), 10)
        epsilon = Fraction(rng.randint(1, 10), 10)
        plan = theorem11_plan(rho, theta, epsilon)
        assert plan.eta_ratio == theta / plan.k

    # rhs83 outgrows rho from some scanned threshold on (decade grid)
    for theta, expected in ((Fraction(1, 2), 95), (Fraction(1), 111)):
        flags = [bool(theorem11_plan(10**j, theta, Fraction(1, 10)).rhs83 > 10**j)
                 for j in range(1, 131)]
        threshold = next(i + 1 for i in range(130) if all(flags[i:]))
        assert threshold == expected

    # raising rho subtracts exactly c * I; the variant gap is exactly c^2 * sum J
    for name, target in TARGETS.items():
        params, F = target.params(), target.test_function()
        lc = target_coefficients[name]
        c = params.r_exponent
        bumped = SieveParams(k=params.k, rho=params.rho + 1, theta=params.theta,
                             delta=params.delta, eta=params.eta)
        assert (leading_coefficient(F, bumped, target.variant).value - lc.value
                == LogLinear(-c * lc.I_value))
        other = "S" if target.variant == "Sprime" else "Sprime"
        lc_other = leading_coefficient(F, params, other)
        sprime, s = (lc, lc_other) if target.variant == "Sprime" else (lc_other, lc)
        assert sprime.value - s.value == LogLinear(c * c * sum(lc.J_values, Fraction(0)))


# ---------------------------------------------------------------------------
# 9. byte-identical CLI reruns
# ---------------------------------------------------------------------------


def test_criterion_9_cli_determinism(capsys):
    commands = [
        ["verify", "--theorem", "thm1.3", "--format", "json",
         "--mc-samples", "20000", "--seed", "7"],
        ["verify", "--theorem", "thm1.4", "--format", "csv"],
        ["functional", "--F", "(1-u1)*(1-u2)", "--k", "2",
         "--theta", "1/2", "--eta", "1/100"],
        ["functional", "--F", "thm1.3", "--format", "text"],
        ["scan", "--mode", "gaps", "--limit", "3000", "--universe", "E2"],
        ["scan", "--mode", "hits", "--limit", "2000", "--universe", "P2",
         "--H", "0,2,6"],
        ["scan", "--mode", "bv", "--limit", "2000", "--theta", "1/3",
         "--universe", "primes"],
        ["theorem11", "--rho", "7"],
    ]
    for argv in commands:
        first_code = main(argv)
        first = capsys.readouterr().out
        second_code = main(argv)
        second = capsys.readouterr().out
        assert first_code == second_code == 0, argv
        assert first == second, argv
        if "--format" not in argv or argv[argv.index("--format") + 1] == "json":
            json.loads(first)  # every json-mode payload stays parseable
