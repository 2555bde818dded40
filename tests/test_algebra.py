"""Exact polynomial and log-linear arithmetic."""

import decimal
import itertools
import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    antiderivative,
    canonical,
    definite_integral_one_var,
    derivative,
    fraction_eval,
    mp_value,
    permuted,
    run_with_src,
    substitute,
    sympoly_parse,
)
from e2sieve import TARGETS, SieveParams, algebra, leading_coefficient
from e2sieve.algebra import (
    BudgetExceeded,
    LogLinear,
    SymPoly,
    TestFunction,
    as_rational,
    loglinear_eval,
    parse_poly,
)
from e2sieve.cli import main
from e2sieve.functionals import lemma41_constant

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

rationals = st.builds(
    Fraction,
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=1, max_value=9),
)


def poly_strategy(nvars: int, max_deg: int = 4, max_terms: int = 5):
    exponent = st.tuples(*([st.integers(0, max_deg)] * nvars))
    return st.dictionaries(exponent, rationals, max_size=max_terms).map(
        lambda terms: SymPoly(nvars, terms)
    )


@st.composite
def poly_triples(draw):
    nvars = draw(st.integers(1, 4))
    strat = poly_strategy(nvars)
    return draw(strat), draw(strat), draw(strat)


# ---------------------------------------------------------------------------
# SymPoly
# ---------------------------------------------------------------------------


def test_constant_variable_basics():
    one = SymPoly.constant(2, 1)
    u1 = SymPoly.variable(2, 0)
    u2 = SymPoly.variable(2, 1)
    assert one.is_constant() and one.constant_value() == 1
    assert not u1.is_constant()
    assert (u1 + u2 - u1 - u2).is_zero()
    assert (u1 * u2).total_degree() == 2


def test_zero_coefficients_are_dropped():
    p = SymPoly(2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert (0, 1) not in p.terms
    q = SymPoly.variable(2, 0) - SymPoly.variable(2, 0)
    assert q.terms == {}


def _fraction_product(f: dict, g: dict) -> dict:
    """Reference product of two {exponents: Fraction} dicts: one multiply-add per pair of terms."""
    out: dict = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _fraction_sum(*parts: tuple[int, SymPoly]) -> dict:
    """Reference sum of w * p over the (int w, p) parts, one Fraction add per term."""
    out: dict = {}
    for w, p in parts:
        for e, c in p.terms.items():
            out[e] = out.get(e, Fraction(0)) + w * c
    return {e: c for e, c in out.items() if c != 0}


def _fraction_power(f: SymPoly, n: int) -> dict:
    out = {(0,) * f.nvars: Fraction(1)}
    for _ in range(n):
        out = _fraction_product(out, f.terms)
    return out


def _assert_reduced(p: SymPoly) -> None:
    """The stored form: nonzero int numerators over a positive int denominator coprime to them."""
    assert all(type(n) is int and n != 0 for n in p.numerators.values())
    assert type(p.denominator) is int and p.denominator > 0
    assert math.gcd(p.denominator, *p.numerators.values()) == 1


mixed_rationals = st.builds(
    Fraction,
    st.integers(min_value=-60, max_value=60),
    st.sampled_from([1, 2, 3, 4, 6, 7, 9, 10, 12, 25, 49, 1000, 2 ** 40 + 15]),
)


@st.composite
def sparse_pairs(draw):
    nvars = draw(st.integers(1, 4))
    exponent = st.tuples(*([st.integers(0, 5)] * nvars))
    terms = st.dictionaries(exponent, mixed_rationals, max_size=8)
    return SymPoly(nvars, draw(terms)), SymPoly(nvars, draw(terms))


@given(sparse_pairs(), st.integers(0, 3))
@settings(max_examples=200)
def test_product_matches_fraction_double_loop(pair, n):
    f, g = pair
    # (f + g)(f - g) = f^2 - g^2: the cross terms cancel inside the product
    for left, right in ((f, g), (f + g, f - g), (f, f), (f, -f)):
        for result, want in ((left * right, _fraction_product(left.terms, right.terms)),
                             (left + right, _fraction_sum((1, left), (1, right))),
                             (left - right, _fraction_sum((1, left), (-1, right))),
                             (-left, _fraction_sum((-1, left))),
                             (left ** n, _fraction_power(left, n))):
            assert result.terms == want
            _assert_reduced(result)
    assert (f + g) * (f - g) == f * f - g * g


def test_pow_matches_repeated_multiplication():
    p = 1 + SymPoly.variable(3, 0) - 2 * SymPoly.variable(3, 2)
    assert p ** 3 == p * p * p
    assert p ** 0 == SymPoly.constant(3, 1)
    with pytest.raises(ValueError):
        p ** -1


@given(poly_triples())
@settings(max_examples=150)
def test_ring_laws(triple):
    f, g, h = triple
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)


@given(poly_triples(), st.integers(0, 3))
@settings(max_examples=100)
def test_fundamental_theorem(triple, var_seed):
    f = triple[0]
    var = var_seed % f.nvars
    # d/du of the antiderivative gives back f; the definite integral of the
    # derivative telescopes to the endpoint difference.
    assert derivative(antiderivative(f, var), var) == f
    lo, hi = Fraction(1, 3), Fraction(5, 2)
    value = definite_integral_one_var(derivative(f, var), var, lo, hi)
    assert value == substitute(f, var, hi) - substitute(f, var, lo)


point_coordinates = st.one_of(st.integers(-7, 7), mixed_rationals)


@st.composite
def polys_and_points(draw):
    nvars = draw(st.integers(1, 4))
    p = draw(st.one_of(poly_strategy(nvars, max_terms=8), st.just(SymPoly.zero(nvars)),
                       mixed_rationals.map(lambda c: SymPoly.constant(nvars, c))))
    return p, draw(st.lists(point_coordinates, min_size=nvars, max_size=nvars))


@given(polys_and_points())
@settings(max_examples=200)
def test_eval_matches_fraction_by_fraction_evaluation(case):
    p, point = case
    value = p.eval(point)
    assert isinstance(value, Fraction) and value == fraction_eval(p, point)
    for wrong in (point[:-1], point + [1]):
        message = f"point has {len(wrong)} coordinates, expected {p.nvars}"
        with pytest.raises(ValueError, match=message):
            p.eval(wrong)


@given(poly_strategy(3), rationals, rationals, rationals)
@settings(max_examples=100)
def test_eval_respects_substitute(p, a, b, c):
    assert p.eval([a, b, c]) == substitute(substitute(substitute(p, 0, a), 1, b), 2, c).constant_value()


def test_substitute_polynomial_replacement():
    # (u1 + u2)^2 with u1 -> 1 - u2 collapses to the constant 1
    p = (SymPoly.variable(2, 0) + SymPoly.variable(2, 1)) ** 2
    q = substitute(p, 0, SymPoly.constant(2, 1) - SymPoly.variable(2, 1))
    assert q == SymPoly.constant(2, 1)


def test_definite_integral_examples():
    u1 = SymPoly.variable(2, 0)
    u2 = SymPoly.variable(2, 1)
    # int_0^1 u1 du1 = 1/2
    assert definite_integral_one_var(u1, 0, Fraction(0), Fraction(1)).constant_value() == Fraction(1, 2)
    # int_0^(1-u2) u1 du1 = (1-u2)^2/2
    got = definite_integral_one_var(u1, 0, Fraction(0), SymPoly.constant(2, 1) - u2)
    assert got == (SymPoly.constant(2, 1) - u2) ** 2 * Fraction(1, 2)


def test_definite_integral_rejects_limit_using_the_variable():
    u1 = SymPoly.variable(2, 0)
    with pytest.raises(ValueError):
        definite_integral_one_var(u1, 0, Fraction(0), u1)


# ---------------------------------------------------------------------------
# parsing and power sums
# ---------------------------------------------------------------------------


def test_parse_poly_basics():
    assert parse_poly("u1", 2) == SymPoly.variable(2, 0)
    assert parse_poly("2/3 * u2", 2) == Fraction(2, 3) * SymPoly.variable(2, 1)
    p2 = parse_poly("P2", 3)
    assert p2 == sum(SymPoly.variable(3, i) ** 2 for i in range(3))
    # Newton: P1^2 - P2 = 2 * sum_{i<j} ui uj
    lhs = parse_poly("P1**2 - P2", 3)
    elementary2 = sum(
        SymPoly.variable(3, i) * SymPoly.variable(3, j)
        for i in range(3) for j in range(i + 1, 3)
    )
    assert lhs == 2 * elementary2


@pytest.mark.parametrize("bad", [
    "u5",            # out of range for k=4
    "x + 1",         # unknown name
    "1.5 * u1",      # float literals are not exact
    "u1 / u2",       # division by a non-constant
    "u1 ** u2",      # exponent must be a literal integer
    "P0",            # power-sum index starts at 1
    "u1 + (",        # syntax error
    "__import__('os')",
    "u1*True",       # bools are not integer literals
    "False + u2",
    "u1**True",
    "u01",           # no leading zero in an index
    "P01",
    "u\u0661",       # u and ARABIC-INDIC DIGIT ONE
    "\uff551",       # FULLWIDTH u, which Python's parser would read as u1
])
def test_parse_poly_rejects(bad):
    with pytest.raises(ValueError):
        parse_poly(bad, 4)


@pytest.mark.parametrize("expression, k", [
    ("P1**30", 6),                    # up to 324,632 terms
    ("(1+u1+u2+u3)**47", 3),          # 19,600 terms, but 2600^2 pairs in its last squaring
    ("(1+P1)**4 * (1+P3)**4", 6),     # 210 x 210 pairs, of degree up to 16
], ids=["power-terms", "power-pairs", "product-terms"])
def test_parse_poly_over_the_budget_raises_before_expanding(expression, k):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="budget"):
            parse_poly(expression, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


@pytest.mark.parametrize("expression, k", [
    ("P1**30", 6),
    ("(1+u1+u2+u3)**47", 3),
    ("(1+P1)**4 * (1+P3)**4", 6),
    ("((1 + P1 + P2)**4)**4", 4),
    ("(1 + P1)**5 * (1 - P2)**5", 6),
])
def test_parse_poly_budget_messages_match_the_sympoly_parser(expression, k):
    with pytest.raises(BudgetExceeded) as new:
        parse_poly(expression, k)
    with pytest.raises(BudgetExceeded) as old:
        sympoly_parse(expression, k)
    assert str(new.value) == str(old.value)


def _outcome(parse, expression: str, k: int):
    try:
        return parse(expression, k)
    except BudgetExceeded as exc:
        return str(exc)


@st.composite
def expressions(draw, k: int):
    """A fully parenthesised expression tree over u_i, P_j and int literals."""
    leaf = st.one_of(st.integers(0, 12).map(str),
                     st.integers(1, k).map(lambda i: f"u{i}"),
                     st.integers(1, 4).map(lambda j: f"P{j}"))
    divisor = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 9))

    def extend(sub):
        return st.one_of(
            st.tuples(sub, st.sampled_from("+-*"), sub).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(sub, divisor).map(lambda t: f"({t[0]}) / ({t[1]})"),
            st.tuples(sub, st.integers(0, 4)).map(lambda t: f"({t[0]})**{t[1]}"),
            sub.map(lambda e: f"-({e})"))

    return draw(st.recursive(leaf, extend, max_leaves=8))


@given(st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), expressions(k))))
@example(case=(4, "((1 + P1 + P2)**4)**4"))                 # over the budget
@example(case=(3, "-(u1 - P2)**3 / (-7/3) - (2*P1) / (4)"))
@settings(max_examples=200, deadline=None)
def test_parse_poly_matches_the_sympoly_parser(case):
    k, expression = case
    got, want = _outcome(parse_poly, expression, k), _outcome(sympoly_parse, expression, k)
    if isinstance(got, SymPoly):
        _assert_reduced(got)
        assert isinstance(want, SymPoly) and got.terms == want.terms
    else:
        assert got == want


def test_parse_poly_sums_a_1716_term_chain():
    # every monomial of degree <= 7 in 6 variables, as one flat + / - chain past
    # the recursion limit of a walk down the chain
    basis = [e for e in itertools.product(range(8), repeat=6) if sum(e) <= 7]
    assert len(basis) == 1716
    coeffs = {e: Fraction((-1) ** i * (i % 11 + 1), i % 7 + 1) for i, e in enumerate(basis)}
    chain = "".join(("- " if c < 0 else "+ ") + f"{abs(c.numerator)}/{c.denominator}"
                    + "".join(f"*u{j}**{x}" for j, x in enumerate(e, 1) if x) + " "
                    for e, c in coeffs.items())
    p = parse_poly(chain[2:], 6)
    assert p == SymPoly(6, coeffs)
    _assert_reduced(p)


def test_parse_poly_multiplies_a_1500_factor_chain():
    # past the recursion limit of a walk down the chain, though the product is one term
    p = parse_poly("*".join(["u1"] * 1500), 2)
    assert p == SymPoly.variable(2, 0) ** 1500
    _assert_reduced(p)


def _chain(seed: int, length: int, factors: list[tuple[str, int]], divisors: list[str]) -> str:
    """A flat chain of `length` operands: weighted factors after *, divisors after / (one in four)."""
    rng = random.Random(seed)
    first, *rest = rng.choices(*zip(*factors), k=length)
    return first + "".join(f"/{rng.choice(divisors)}" if rng.random() < 0.25 else f"*{factor}"
                           for factor in rest)


def _chain_outcome(parse, expression: str, k: int):
    try:
        return parse(expression, k).terms
    except (BudgetExceeded, ValueError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("k, factors, divisors, outcome", [
    (3, [("u1", 20), ("u2", 20), ("u3", 20), ("2", 10), ("(-3)", 10), ("(1 - u2)", 1), ("(u1 + 2*u3)", 1)],
     ["3", "(-7/3)", "(5)", "2/9"], dict),
    (6, [("u1", 20), ("(-2)", 10), ("(1 + P1)", 1), ("(1 + u2 - u3)", 1), ("(1 - P2)", 1)],
     ["5", "(-3)"], "BudgetExceeded"),
    (2, [("u1", 10), ("(1 - u2)", 1)], ["3"] * 60 + ["u1", "(u1 - u1)"], "ValueError"),
], ids=["values", "budget", "non-constant-and-zero-divisors"])
def test_parse_poly_folds_long_product_chains_like_the_sympoly_parser(k, factors, divisors, outcome):
    limit = sys.getrecursionlimit()
    for seed in range(3):
        expression = _chain(seed, 1200, factors, divisors)
        got = _chain_outcome(parse_poly, expression, k)
        sys.setrecursionlimit(10_000)   # the oracle walks the 1,200-deep chain recursively
        try:
            want = _chain_outcome(sympoly_parse, expression, k)
        finally:
            sys.setrecursionlimit(limit)
        assert got == want
        assert type(got) is outcome if outcome is dict else got[0] == outcome


def test_parse_poly_within_the_budget_matches_plain_powers():
    assert parse_poly("(1-P1)**7", 6) == (1 - parse_poly("P1", 6)) ** 7
    assert parse_poly("(u1-u1)**3 + P2**0", 2) == SymPoly.constant(2, 1)


def test_power_sum_expressions_are_symmetric():
    p = parse_poly("1 - 2*P1 + P2 + P1*P3", 4)
    for perm in ([1, 0, 2, 3], [3, 2, 1, 0], [1, 2, 3, 0]):
        assert permuted(p, perm) == p


def test_bundled_k6_expression_parses():
    expr = ("1 - (143577/50000)*P1 + (12337/5000)*P1**2 + (86987/50000)*P2 "
            "- (619873/1000000)*P1**3 - (156481/100000)*P1*P2 - (230073/5000000)*P3")
    p = parse_poly(expr, 6)
    assert p.nvars == 6
    assert p.total_degree() == 3
    assert p.eval([0] * 6) == 1


# ---------------------------------------------------------------------------
# LogLinear
# ---------------------------------------------------------------------------


def test_loglinear_merges_and_drops():
    v = LogLinear(1, [(2, 1), (2, 1), (3, 0), (1, 5)])
    # ln(2) twice -> coefficient 2; zero coefficient dropped; ln(1) dropped
    assert v.terms == ((Fraction(2), Fraction(2)),)
    assert v.const == 1
    with pytest.raises(ValueError):
        LogLinear(0, [(0, 3)])  # log argument must be positive


def test_loglinear_equality_is_multiplicative():
    assert LogLinear.log(4) == LogLinear.log(2, 2)
    assert LogLinear.log(Fraction(8, 9)) == LogLinear.log(2, 3) - LogLinear.log(3, 2)
    assert LogLinear.log(2) != LogLinear.log(3)
    assert hash(LogLinear.log(4)) == hash(LogLinear.log(2, 2))


def test_loglinear_hash_and_unequal_constants_never_factor(monkeypatch):
    import sympy

    p, q = sympy.nextprime(4 * 10 ** 24), sympy.nextprime(5 * 10 ** 24)   # 25 digits each

    def refuse(n, *args, **kwargs):
        raise AssertionError(f"factorint({n}) called")

    monkeypatch.setattr(sympy, "factorint", refuse)
    semiprime = LogLinear.log(p * q)
    assert len(str(p * q)) == 50
    assert isinstance(hash(semiprime), int)
    assert hash(semiprime + 1) == hash(LogLinear(1, [(p, 1), (q, 1)]))
    assert semiprime + 1 != LogLinear(2, [(p, 1), (q, 1)])
    assert semiprime != Fraction(1, 3)


def test_loglinear_equality_of_large_semiprime_logs_never_factors(monkeypatch):
    import sympy

    p, q = sympy.nextprime(4 * 10 ** 24), sympy.nextprime(5 * 10 ** 24)   # 25 digits each

    def refuse(n, *args, **kwargs):
        raise AssertionError(f"factorint({n}) called")

    monkeypatch.setattr(sympy, "factorint", refuse)
    assert LogLinear.log(p * q) == LogLinear(0, [(p, 1), (q, 1)])
    assert LogLinear.log(p * q) != LogLinear(0, [(p, 1), (q, 2)])
    assert LogLinear.log(Fraction(p, q), 2) - LogLinear(0, [(p * p, 1), (q * q, -1)]) == 0


def test_loglinear_equality_splits_off_high_powers_in_few_divisions():
    start = time.perf_counter()
    assert LogLinear.log(Fraction(1, 2 ** 100_000)) + LogLinear.log(2, 100_000) == 0
    assert LogLinear.log(2 * 3 ** 50_000) == LogLinear(0, [(3, 50_000), (6, 1), (3, -1)])
    # one division per unit of exponent takes seconds here
    assert time.perf_counter() - start < 1


# products of small prime powers, so that arguments share factors in many ways
prime_products = st.lists(st.sampled_from([2, 3, 5, 7]), max_size=4).map(math.prod)
small_args = st.builds(Fraction, prime_products, prime_products)
PERTURBATIONS = {
    "none": lambda x, s: LogLinear.zero(),
    "zero": lambda x, s: LogLinear(0, [(x * x, s), (x, -2 * s)]),   # ln x^2 - 2 ln x
    "log": lambda x, s: LogLinear.log(x, s),
}


@given(st.lists(st.tuples(small_args, small_args, rationals), max_size=4),
       st.lists(st.tuples(small_args, rationals), max_size=4),
       small_args, rationals, st.sampled_from(sorted(PERTURBATIONS)))
@settings(max_examples=150, deadline=None)
def test_loglinear_equality_agrees_with_factoring(split_terms, other_terms, x, s, perturbation):
    a = LogLinear(1, [(q1 * q2, r) for q1, q2, r in split_terms])
    b = LogLinear(1, [t for q1, q2, r in split_terms for t in ((q1, r), (q2, r))])
    b = b + PERTURBATIONS[perturbation](x, s)
    c = LogLinear(1, other_terms)
    for u, v in ((a, b), (a, c)):
        assert (u == v) == (canonical(u) == canonical(v))
        assert (u - v == 0) == (canonical(u - v) == (0, ()))


SYMPY_BLOCKED = """
import sys
sys.modules["sympy"] = None   # any import of sympy now raises ImportError
from e2sieve.algebra import LogLinear
from e2sieve.cli import main
assert LogLinear.log(4) == LogLinear.log(2, 2)
sys.exit(main(["verify", "--theorem", "thm1.3"]))
"""


def test_equality_and_verify_run_without_sympy():
    run = run_with_src(["-c", SYMPY_BLOCKED])
    assert run.returncode == 0, run.stderr
    assert "leading coefficient is positive" in run.stdout


def ln2_convergent(digits: int) -> Fraction:
    """The first continued-fraction convergent of ln 2 whose denominator has `digits` digits."""
    h_prev, h, k_prev, k = 0, 1, 1, 0
    with mpmath.workdps(200):
        x = mpmath.log(2)
        while len(str(k)) < digits:
            a = int(mpmath.floor(x))
            x = 1 / (x - a)
            h_prev, h, k_prev, k = h, a * h + h_prev, k, a * k + k_prev
    return Fraction(h, k)


def test_loglinear_sign_is_certified_within_1e_minus_60_of_zero(monkeypatch):
    c = ln2_convergent(30)
    value = LogLinear(c, [(2, -1)])
    with mpmath.workdps(200):
        gap = mpmath.mpf(c.numerator) / c.denominator - mpmath.log(2)
    assert 1e-61 < gap < 1e-59
    assert value.sign() == 1 and (-value).sign() == -1
    monkeypatch.setattr(algebra, "_SIGN_DIGITS", 60)
    with pytest.raises(BudgetExceeded, match="60 digits"):
        value.sign()


def test_loglinear_sign_of_an_exact_value_evaluates_nothing(monkeypatch):
    monkeypatch.setattr(algebra, "_SIGN_DIGITS", 0)   # any evaluation would raise
    assert (LogLinear.log(4) - LogLinear.log(2, 2)).sign() == 0
    assert LogLinear.zero().sign() == 0
    assert (LogLinear(Fraction(-1, 3)) + LogLinear.log(6) - LogLinear(0, [(2, 1), (3, 1)])).sign() == -1
    with pytest.raises(BudgetExceeded):
        LogLinear.log(2).sign()


@given(rationals, st.lists(st.tuples(small_args, rationals), max_size=4))
@settings(max_examples=150, deadline=None)
def test_loglinear_sign_matches_a_200_digit_evaluation(const, terms):
    value = LogLinear(const, terms)
    if canonical(value) == (0, ()):
        expected = 0
    else:
        expected = int(mpmath.sign(mp_value(value, 200)))
    assert value.sign() == expected


def cancelling(terms, m: int) -> LogLinear:
    """The log terms minus their value rounded to m decimals: about m digits cancel."""
    logs = LogLinear(0, terms)
    with mpmath.workdps(m + 60):
        const = -Fraction(int(mpmath.nint(mp_value(logs, m + 60) * mpmath.mpf(10) ** m)), 10 ** m)
    return logs + const


@given(st.lists(st.tuples(small_args, rationals), min_size=1, max_size=4), st.integers(0, 300),
       st.integers(15, 60))
@example([(Fraction(2), Fraction(1))], 300, 60)
@example([(Fraction(4), Fraction(1)), (Fraction(2), Fraction(-2))], 5, 15)
@settings(max_examples=80, deadline=None)
def test_loglinear_eval_is_certified_through_cancellation(terms, m, digits):
    value = cancelling(terms, m)
    if canonical(value) == (0, ()):   # the logs cancel exactly
        assert (loglinear_eval(value, digits), value.sign()) == ("0", 0)
        return
    exact = mp_value(value, digits + m + 50)
    with mpmath.workdps(digits + m + 50):
        reference = decimal.Context(prec=digits).plus(decimal.Decimal(mpmath.nstr(exact, digits + m + 45)))
    assert loglinear_eval(value, digits) == str(reference)
    assert value.sign() == int(mpmath.sign(exact))


def test_loglinear_eval_past_960_digits_of_cancellation_raises():
    value = cancelling([(2, 1), (Fraction(5, 3), Fraction(-2, 7))], 1000)
    for evaluate in (lambda: loglinear_eval(value, 15), value.sign, lambda: value.evaluate_decimal(40)):
        with pytest.raises(BudgetExceeded, match="sign undecided at 960 digits"):
            evaluate()


def test_loglinear_eval_of_exactly_cancelling_logs_is_their_constant():
    # the logs sum to 0, so only the exact test, not a bound, can settle a tie or a zero
    logs = LogLinear.log(4) - LogLinear.log(2, 2)
    assert loglinear_eval(logs, 15) == "0"
    assert (logs + Fraction(1, 8)).evaluate_decimal(2) == decimal.Decimal("0.12")
    assert loglinear_eval(logs + Fraction(1, 3), 15) == "0.333333333333333"


def test_loglinear_arithmetic():
    a = LogLinear.log(2) + Fraction(1, 3)
    b = LogLinear.log(3, -1) + 1
    s = a + b
    assert s.const == Fraction(4, 3)
    assert a - a == 0
    assert (Fraction(2) * a).const == Fraction(2, 3)
    with pytest.raises(TypeError):
        a * a  # no log-log products


def _exact_parts(value: LogLinear) -> tuple:
    assert all(type(x) is Fraction for x in (value.const, *(x for t in value.terms for x in t)))
    return value.const, value.terms


few_args = st.sampled_from([Fraction(2), Fraction(3), Fraction(1, 2), Fraction(6), Fraction(5, 3)])
few_terms = st.lists(st.tuples(few_args, st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                                                          Fraction(1, 2), Fraction(-3, 2)])), max_size=5)


@given(rationals, few_terms, rationals, few_terms, rationals, st.integers(-3, 3))
@settings(max_examples=200, deadline=None)
def test_loglinear_arithmetic_equals_the_validating_constructor(ca, ta, cb, tb, s, n):
    a, b = LogLinear(ca, ta), LogLinear(cb, tb)
    negated = [(q, -r) for q, r in b.terms]
    cases = [
        (a + b, LogLinear(a.const + b.const, a.terms + b.terms)),
        (a - b, LogLinear(a.const - b.const, a.terms + tuple(negated))),
        (-b, LogLinear(-b.const, negated)),
        (s * a, LogLinear(a.const * s, [(q, r * s) for q, r in a.terms])),
        (a * n, LogLinear(a.const * n, [(q, r * n) for q, r in a.terms])),
        (a + n, LogLinear(a.const + n, a.terms)),
        (n + a, LogLinear(a.const + n, a.terms)),
        (a - s, LogLinear(a.const - s, a.terms)),
        (n - a, LogLinear(n - a.const, [(q, -r) for q, r in a.terms])),
    ]
    for got, want in cases:
        assert _exact_parts(got) == _exact_parts(want)


def _counting_lns(monkeypatch: pytest.MonkeyPatch) -> list:
    """Record (argument, working precision) for each ln that LogLinear evaluation takes."""
    calls = []

    class Counted(decimal.Decimal):
        def ln(self, context=None):
            calls.append((decimal.Decimal(self), decimal.getcontext().prec))
            return super().ln(context)

    to_decimal = algebra._to_decimal
    monkeypatch.setattr(algebra, "_to_decimal", lambda x: Counted(to_decimal(x)))
    return calls


K4 = "1 - 2*u1 + u2/3 - u3**2/5 + u1*u4 + (u2 - u3)**2/7 - u4**3"


@pytest.mark.parametrize("command", ["functional", "verify"])
def test_each_command_takes_one_ln_per_argument(monkeypatch, capsys, command):
    if command == "functional":
        argv = ["functional", "--F", K4, "--k", "4", "--rho", "2", "--theta", "1/2", "--eta", "1/100"]
        params = SieveParams(k=4, rho=2, theta=Fraction(1, 2), eta=Fraction(1, 100))
        lc = leading_coefficient(TestFunction.from_expression(4, K4), params, "Sprime")
        values, digits = [*lc.L_values, *lc.M_values, lc.value, *lc.breakdown.values()], 25
    else:
        argv = ["verify", "--theorem", "thm1.3", "--digits", "40"]
        target = TARGETS["thm1.3"]
        lc = leading_coefficient(target.test_function(), target.params(), target.variant)
        values, digits = [lc.L_values[0], lc.M_values[0], lemma41_constant(target.params().eta), lc.value], 40
    with decimal.localcontext(decimal.Context(prec=digits + 15)):
        args = {(algebra._to_decimal(q), digits + 15) for v in values for q, _ in v.terms}
    calls = _counting_lns(monkeypatch)
    for runs in (1, 2):   # a second command computes its own
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == runs * len(args)
        assert set(calls) == args


def _old_evaluate(value: LogLinear, digits: int) -> str:
    """loglinear_eval as it was: one ln per term, no table."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits + 15
        total = algebra._to_decimal(value.const)
        for q, r in value.terms:
            total += algebra._to_decimal(r) * algebra._to_decimal(q).ln()
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = decimal.ROUND_HALF_EVEN
        total = +total
    return "0" if total == 0 else str(total)


@pytest.mark.parametrize("digits", [15, 40, 960])
def test_loglinear_eval_strings_are_unchanged(target_coefficients, digits):
    for lc in target_coefficients.values():
        for value in (lc.value, lc.L_values[0], lc.M_values[0], LogLinear.zero(), LogLinear(Fraction(1, 3))):
            assert loglinear_eval(value, digits) == _old_evaluate(value, digits)


def test_loglinear_eval_goldens():
    assert loglinear_eval(LogLinear.log(2), 15) == "0.693147180559945"
    assert loglinear_eval(LogLinear.log(10, 10), 15) == "23.0258509299405"
    assert loglinear_eval(LogLinear.zero(), 15) == "0"
    with pytest.raises(ValueError):
        loglinear_eval(LogLinear.log(2), 10)


@given(
    st.lists(st.tuples(st.integers(2, 50), rationals), max_size=4),
    st.lists(st.tuples(st.integers(2, 50), rationals), max_size=4),
)
@settings(max_examples=60)
def test_loglinear_addition_matches_float(ta, tb):
    a = LogLinear(0, ta)
    b = LogLinear(0, tb)
    lhs = (a + b).evaluate_decimal(30)
    rhs = a.evaluate_decimal(30) + b.evaluate_decimal(30)
    assert abs(lhs - rhs) < decimal.Decimal("1e-25")


def test_loglinear_text_roundtrip_shape():
    v = LogLinear(Fraction(1, 2), [(Fraction(5, 7), Fraction(3, 4))])
    assert v.to_text() == "1/2 + 3/4*ln(5/7)"
    assert LogLinear.zero().to_text() == "0"


# ---------------------------------------------------------------------------
# TestFunction / as_rational
# ---------------------------------------------------------------------------


def test_test_function_validation():
    with pytest.raises(ValueError):
        TestFunction(k=2, poly=SymPoly.constant(3, 1))
    with pytest.raises(ValueError):
        TestFunction(k=2, poly=SymPoly.constant(2, 1), box_bound=Fraction(0))
    F = TestFunction.from_expression(2, "(1-u1)*(1-u2)")
    assert F.k == 2 and F.poly.eval([0, 0]) == 1


def test_as_rational_rejects_floats():
    assert as_rational(3) == Fraction(3)
    assert as_rational(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        as_rational(0.5)
