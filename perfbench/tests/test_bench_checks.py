"""Checks of the checks: each checker passes e2sieve's real output and
rejects the same output with one value corrupted, so no check is vacuous.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
from fractions import Fraction

import pytest

import checks
import reference
from workloads import run_cli, custom_expression

from e2sieve import (SieveContext, SieveParams, TestFunction, lambda_weight, loglinear_eval,
                     mc_simplex_integral, outer_L, parse_poly, quad_outer, s_sums)


def _bump_digit(text: str, position: int) -> str:
    """Change the digit at `position` of a decimal string (counting digits only)."""
    seen = -1
    for i, ch in enumerate(text):
        if ch.isdigit():
            seen += 1
            if seen == position:
                return text[:i] + str((int(ch) + 1) % 10) + text[i + 1:]
    raise ValueError(text)


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def test_verify_check_rejects_one_digit():
    run = run_cli(["verify", "--theorem", "thm1.3", "--format", "json"])
    payload = json.loads(run.out)
    assert checks.check_verify("thm1.3", run.code, payload) == []
    for quantity in ("I", "L", "coefficient"):
        bad = copy.deepcopy(payload)
        value = bad["values"][quantity]["computed"]
        bad["values"][quantity]["computed"] = _bump_digit(value, 4)
        assert checks.check_verify("thm1.3", run.code, bad), quantity
    bad = dict(payload, verdict="not positive")
    assert checks.check_verify("thm1.3", run.code, bad)
    assert checks.check_verify("thm1.3", 1, payload)


def test_verify_check_compares_published_rationals_exactly():
    published = checks.PUBLISHED["thm1.4"]
    payload = {"verdict": "positive", "I_exact": published["I"], "J_exact": published["J"],
               "values": {q: {"computed": published[q]} for q in ("L", "M", "coefficient")}}
    assert checks.check_verify("thm1.4", 0, payload) == []
    bad = dict(payload, J_exact="722755718/1871100000000")
    assert checks.check_verify("thm1.4", 0, bad)


def test_functional_check_rejects_one_digit_and_a_small_shift():
    import random

    expression = custom_expression(random.Random(7), 3, 2)
    theta, eta = Fraction(1, 2), Fraction(1, 100)
    run = run_cli(["functional", "--F", expression, "--k", "3", "--theta", "1/2",
                   "--eta", "1/100", "--rho", "2", "--format", "json"])
    payload = json.loads(run.out)
    want = checks.functional_reference(expression, 3, theta, eta, 2, "Sprime")
    assert len(set(want["J"])) == 3            # asymmetric: each coordinate differs
    assert checks.check_functional(want, 3, run.code, payload) == []

    bad = copy.deepcopy(payload)
    bad["J"]["m=2"]["exact"] = _bump_digit(bad["J"]["m=2"]["exact"], 0)
    assert checks.check_functional(want, 3, run.code, bad)
    bad = copy.deepcopy(payload)
    bad["M"]["m=3"]["float"] += 1e-11
    assert checks.check_functional(want, 3, run.code, bad)
    bad = copy.deepcopy(payload)
    bad["leading_coefficient"]["float"] *= 1 + 1e-9
    assert checks.check_functional(want, 3, run.code, bad)


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------


def test_quad_check_holds_the_1e12_gate():
    F = TestFunction(k=2, poly=parse_poly("(1-u1)*(1-u2)", 2))
    params = SieveParams(k=2, rho=1, theta=Fraction(1), eta=Fraction(1, 100))
    value = quad_outer(F, 1, params, "L")
    closed = float(loglinear_eval(outer_L(F, 1, params), 25))
    assert checks.check_quad(value, closed) == []
    assert checks.check_quad(value + 2e-12, closed)


def test_mc_check_rejects_an_estimate_five_errors_out():
    expression = "(1-u1)*(1-u2)*(1-u3)"
    F = TestFunction(k=3, poly=parse_poly(expression, 3))
    exact = reference.exact_J(expression, 3, 1)
    est = mc_simplex_integral(F, "J", 20_000, 11, m=1)
    assert checks.check_mc(est.value, est.stderr, exact) == []
    assert checks.check_mc(est.value + 5 * est.stderr, est.stderr, exact)


# ---------------------------------------------------------------------------
# desk
# ---------------------------------------------------------------------------


def test_scan_checks_reject_one_count():
    gaps = json.loads(run_cli(["scan", "--mode", "gaps", "--limit", "3000", "--universe", "E2",
                               "--rho", "2"]).out)
    assert checks.check_gaps(3000, 2, 0, gaps) == []
    bad = copy.deepcopy(gaps)
    key = next(iter(bad["histogram"]))
    bad["histogram"][key] += 1
    assert checks.check_gaps(3000, 2, 0, bad)

    hits = json.loads(run_cli(["scan", "--mode", "hits", "--limit", "2000", "--universe", "P2",
                               "--H", "0,4,6"]).out)
    assert checks.check_hits((0, 4, 6), 2000, 0, hits) == []
    assert checks.check_hits((0, 4, 6), 2000, 0, dict(hits, count=hits["count"] + 1))

    for universe, eta in (("primes", None), ("beta", Fraction(1, 10))):
        argv = ["scan", "--mode", "bv", "--limit", "3000", "--universe", universe, "--theta", "1/2"]
        table = json.loads(run_cli(argv + (["--eta", str(eta)] if eta else [])).out)
        assert checks.check_bv(3000, Fraction(1, 2), universe, eta, 0, table) == []
        bad = copy.deepcopy(table)
        bad["rows"]["7"] = str(Fraction(bad["rows"]["7"]) + Fraction(1, 6))
        assert checks.check_bv(3000, Fraction(1, 2), universe, eta, 0, bad), universe


@pytest.fixture(scope="module")
def desk_sums():
    F = TestFunction(k=2, poly=parse_poly("(1-u1)*(1-u2)", 2))
    eta = Fraction(1, 10)
    ctx = SieveContext(N=2000, shifts=(0, 2), F=F, theta=Fraction(1),
                       delta=Fraction(149, 2000), eta=eta)
    lam = {t: v for t in ctx.supported_tuples() if (v := lambda_weight(ctx, t))}
    return ctx, lam, s_sums(ctx, 1), eta


def test_s_sums_check_accepts_the_program_and_rejects_one_lambda(desk_sums):
    ctx, lam, sums, eta = desk_sums
    assert checks.check_s_sums(ctx.N, ctx.shifts, eta, 1, ctx.W, ctx.nu0, lam, sums) == []
    bad = dict(lam)
    key = next(t for t in bad if t != (1, 1))
    bad[key] += Fraction(1, 7)
    assert checks.check_s_sums(ctx.N, ctx.shifts, eta, 1, ctx.W, ctx.nu0, bad, sums)


def test_s_sums_check_rejects_one_changed_sum(desk_sums):
    import dataclasses

    ctx, lam, sums, eta = desk_sums
    for field, value in (("S1", (sums.S1[0] + 1,) + sums.S1[1:]),
                         ("S2", sums.S2[:1] + (sums.S2[1] - Fraction(1, 3),)),
                         ("Sprime", sums.Sprime + 1)):
        bad = dataclasses.replace(sums, **{field: value})
        assert checks.check_s_sums(ctx.N, ctx.shifts, eta, 1, ctx.W, ctx.nu0, lam, bad), field
    parts = [dict(p) for p in sums.parts]
    parts[0]["III"] += 1
    bad = dataclasses.replace(sums, parts=tuple(parts))
    assert checks.check_s_sums(ctx.N, ctx.shifts, eta, 1, ctx.W, ctx.nu0, lam, bad)
