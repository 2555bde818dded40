"""Outer weighted functionals, leading coefficients, and the large-k plan."""

import ast
import hashlib
import random
import sys
from dataclasses import replace
from fractions import Fraction
from math import lcm

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import e2sieve
from conftest import (ROOT, divide_by_one_minus_x, division_closed_form, mpmath_quad_outer,
                      run_with_src, theorem11_eta_oracle)
from e2sieve import TARGETS, algebra, simplex
from e2sieve.algebra import (LogLinear, SymPoly, TestFunction, _swap_representatives, loglinear_eval,
                             parse_poly)
from e2sieve.functionals import (
    BudgetExceeded,
    _HALF_PI,
    _LN2,
    _MAX_K_DIGITS,
    _P,
    SieveParams,
    _exp,
    _outer,
    _tanh_sinh,
    _ts_nodes,
    _weight_poly,
    inner_L,
    inner_M,
    leading_coefficient,
    lemma41_constant,
    outer_L,
    outer_M,
    quad_outer,
    theorem11_plan,
)
from e2sieve.simplex import J_k_m


HALF = Fraction(1, 2)
PARAMS_K2 = SieveParams(k=2, rho=1, theta=HALF, delta=Fraction(0), eta=Fraction(1, 100))


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(k=1, rho=1, theta=HALF),                                  # k too small
    dict(k=2, rho=0, theta=HALF),                                  # rho too small
    dict(k=2, rho=1, theta=Fraction(0)),                           # theta = 0
    dict(k=2, rho=1, theta=Fraction(3, 2)),                        # theta > 1
    dict(k=2, rho=1, theta=HALF, delta=Fraction(-1, 10)),          # delta < 0
    dict(k=2, rho=1, theta=HALF, eta=Fraction(1, 4)),              # eta >= 1/4
    dict(k=2, rho=1, theta=HALF, eta=Fraction(0)),                 # eta = 0
    dict(k=2, rho=1, theta=HALF, delta=Fraction(1, 5), eta=Fraction(1, 10)),  # eta >= theta/2-delta
])
def test_sieve_params_rejects(kwargs):
    with pytest.raises((ValueError, TypeError)):
        SieveParams(**kwargs)


def test_sieve_params_r_exponent():
    p = SieveParams(k=3, rho=2, theta=Fraction(1), delta=Fraction(1, 8), eta=Fraction(1, 100))
    assert p.r_exponent == Fraction(3, 8)


# ---------------------------------------------------------------------------
# the inner substitution and its one-variable reductions
# ---------------------------------------------------------------------------


def test_inner_G_k1():
    # k=1, F=1: the shifted segment [a,1] has length (1-a); squaring for M
    F = TestFunction(k=1, poly=SymPoly.constant(1, 1))
    a = SymPoly.variable(1, 0)
    assert inner_L(F, 1) == 1 - a
    assert inner_M(F, 1) == (1 - a) ** 2


def test_inner_G_k2_constant():
    F = TestFunction(k=2, poly=SymPoly.constant(2, 1))
    a = SymPoly.variable(1, 0)
    one = SymPoly.constant(1, 1)
    # worked by hand: G_L = 1/3 - a/2 + a^3/6,  G_M = 1/3 - a + a^2 - a^3/3
    assert inner_L(F, 1) == Fraction(1, 3) * one - HALF * a + Fraction(1, 6) * a ** 3
    assert inner_M(F, 1) == Fraction(1, 3) * one - a + a ** 2 - Fraction(1, 3) * a ** 3


# F symmetric in u1 and u2 only, and F fixed by no swap of coordinates
SYM12 = "1 - P1 + u1*u2 + 3*u3**2 - u4/7 + (u1+u2)**2*u3"
ASYMMETRIC = "1 - P1 + u1/3 - 2*u2**2 + u1*u3*u4 + u4**3/5 - 7*u2*u3/4"


def test_inner_G_at_zero_recovers_J():
    # with no shift (a = 0) both bracketed integrals coincide with the plain
    # marginal, so G(0) = J for every test function and every coordinate
    for expr, k in [("(1-u1)*(1-u2)*(1-u3)", 3), ("1 - P1", 2), (SYM12, 4), (ASYMMETRIC, 4)]:
        F = TestFunction(k=k, poly=parse_poly(expr, k))
        for m in range(1, k + 1):
            J = J_k_m(F, m)
            assert inner_L(F, m).eval([Fraction(0)]) == J
            assert inner_M(F, m).eval([Fraction(0)]) == J


def test_G_divides_exactly_by_its_power_of_one_minus_a():
    # the closed form relies on G_L / (1-a) and G_M / (1-a)^2 being polynomials
    one_minus_a = SymPoly.constant(1, 1) - SymPoly.variable(1, 0)
    for expr, k in [("(1-u1)*(1-u2)", 2), (SYM12, 4), (ASYMMETRIC, 4)]:
        F = TestFunction(k=k, poly=parse_poly(expr, k))
        for G, power in ((inner_L(F, 1), 1), (inner_M(F, 1), 2)):
            coeffs = [G.terms.get((i,), Fraction(0)) for i in range(G.total_degree() + 1)]
            for _ in range(power):
                coeffs = divide_by_one_minus_x(coeffs)
            q = SymPoly(1, {(i,): c for i, c in enumerate(coeffs)})
            assert q * one_minus_a ** power == G


def test_box_bound_forces_vanishing():
    # conceptual support in [0, 1/50]^k: once the substitution offset reaches
    # the box edge the inner integrals are identically zero
    F = TestFunction(k=2, poly=SymPoly.constant(2, 1), box_bound=Fraction(1, 50))
    assert inner_L(F, 1, a_min=Fraction(1, 50)).is_zero()
    assert inner_M(F, 1, a_min=Fraction(1, 10)).is_zero()
    # below the edge there is no vanishing claim -> error rather than a wrong value
    with pytest.raises(ValueError):
        inner_L(F, 1, a_min=Fraction(1, 100))
    params = SieveParams(k=2, rho=1, theta=HALF, eta=Fraction(1, 100))
    # a_min = eta/c = 2/25 >= 1/50
    assert outer_L(F, 1, params) == LogLinear.zero()
    assert outer_M(F, 1, params) == LogLinear.zero()
    # the coefficient still takes J from the untruncated inner polynomial
    lc = leading_coefficient(F, params, "S")
    assert lc.J_values == (J_k_m(F, 1), J_k_m(F, 2)) == (Fraction(1, 3), Fraction(1, 3))
    assert lc.L_values == lc.M_values == (LogLinear.zero(), LogLinear.zero())


def test_leading_coefficient_runs_one_pair_pass_per_swap_class(monkeypatch):
    # I is read off the coordinate passes: thm1.2 is symmetric (one swap
    # class), and ASYMMETRIC at k = 4 has four
    calls, pair_sums = [], simplex._pair_sums
    monkeypatch.setattr(simplex, "_pair_sums",
                        lambda poly, m, swaps: calls.append(m) or pair_sums(poly, m, swaps))
    target = TARGETS["thm1.2"]
    leading_coefficient(target.test_function(), target.params())
    assert calls == [0]
    calls.clear()
    F = TestFunction(k=4, poly=parse_poly(ASYMMETRIC, 4))
    leading_coefficient(F, SieveParams(k=4, rho=1, theta=HALF, eta=Fraction(1, 100)))
    assert len(calls) == 4 and set(calls) == {0, 1, 2, 3}


def test_the_degree_3_basis_sum_at_k_40_keeps_its_exact_values():
    # SHA-256 of I, J and the closed-form coefficient, recorded with the pair
    # kernel that paired every term with each orbit representative; 12,341
    # terms in 7 orbits of S_40, one swap class
    F = TestFunction(k=40, poly=parse_poly("1 + P1 + P1**2 + P2 + P1**3 + P1*P2 + P3", 40))
    lc = leading_coefficient(F, SieveParams(k=40, rho=6, theta=Fraction(1), eta=Fraction(1, 10 ** 10)), "S")
    assert F.swaps == [1] * 40 and set(lc.J_values) == {lc.J_values[0]}
    digests = [hashlib.sha256(text.encode()).hexdigest()
               for text in (str(lc.I_value), str(lc.J_values[0]), lc.value.to_text())]
    assert digests == ["3e542c0c06bafb111d69db047b59fc84eec5344239d6ad401f8ad1681afa5cc7",
                       "92f21b7d98a158a6c35b829067e110962a1bcd624c465e820ba164047cde6deb",
                       "106de2bc95825c404914597c630d0994eceeda28fb613aea3c3bbe3ced0a6c57"]


# ---------------------------------------------------------------------------
# closed form vs quadrature, symmetry, exact identities
# ---------------------------------------------------------------------------


@st.composite
def sieve_params(draw):
    """Any SieveParams: theta in (0, 1], delta in [0, theta/2), eta in (0, min(c, 1/4))."""
    theta = Fraction(draw(st.integers(1, 1000)), 1000)
    delta = theta / 2 * Fraction(draw(st.integers(0, 99)), 100)
    top = min(theta / 2 - delta, Fraction(1, 4))
    eta = top * Fraction(draw(st.integers(1, 10 ** 6 - 1)), 10 ** 6) / 10 ** draw(st.integers(0, 40))
    return SieveParams(k=2, rho=1, theta=theta, delta=delta, eta=eta)


@given(coeffs=st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=1000), max_size=12),
       power=st.sampled_from([1, 2]), params=sieve_params())
@example(coeffs=[], power=1, params=PARAMS_K2)
@example(coeffs=[Fraction(0)] * 3, power=2, params=PARAMS_K2)
@example(coeffs=[Fraction(2, 3)], power=1, params=PARAMS_K2)
@example(coeffs=[Fraction(1), Fraction(-1)], power=2, params=PARAMS_K2)
@settings(max_examples=200, deadline=None)
def test_outer_matches_the_division_closed_form(coeffs, power, params):
    # the suffix-sum closed form against partial fractions by exact division
    G = SymPoly(1, {(i,): c for i, c in enumerate(coeffs)})
    c = params.r_exponent
    pcoeffs = [G.terms.get((i,), Fraction(0)) * c ** (power - i)   # P(xi) = c^power G(xi/c)
               for i in range(max(G.total_degree(), 0) + 1)]
    num, den = _weight_poly(G, power, c)
    assert [Fraction(n, den) for n in num] == pcoeffs
    expected = division_closed_form(pcoeffs, params.eta, c)
    got = _outer(G, power, params)
    assert (got.const, got.terms) == (expected.const, expected.terms)


def _assert_quadrature_matches_closed_form(F, m, params):
    for kind, closed in (("L", outer_L(F, m, params)), ("M", outer_M(F, m, params))):
        quad = quad_outer(F, m, params, kind)
        assert abs(quad - float(closed.evaluate_decimal(25))) <= 1e-12, (kind, params.eta)


def test_closed_form_matches_quadrature_k2():
    F = TestFunction(k=2, poly=parse_poly("(1-u1)*(1-u2)", 2))
    _assert_quadrature_matches_closed_form(F, 1, PARAMS_K2)


def test_closed_form_matches_quadrature_with_delta():
    params = SieveParams(k=2, rho=1, theta=Fraction(1), delta=Fraction(1, 8), eta=Fraction(1, 20))
    F = TestFunction(k=2, poly=parse_poly("1 - P1 + P2", 2))
    _assert_quadrature_matches_closed_form(F, 2, params)


ETA_TINY = Fraction(1, 10 ** 30)


def _thm13_at_tiny_eta():
    target = TARGETS["thm1.3"]
    return target.test_function(), replace(target.params(), eta=ETA_TINY)


def test_closed_form_matches_quadrature_at_tiny_eta():
    F, params = _thm13_at_tiny_eta()
    _assert_quadrature_matches_closed_form(F, 1, params)


@given(eta=st.one_of(
    st.integers(1, 60).map(lambda j: Fraction(1, 10 ** j)),
    st.fractions(min_value=0, max_value=PARAMS_K2.r_exponent, max_denominator=10 ** 9)
    .filter(lambda x: 0 < x < PARAMS_K2.r_exponent),
))
@settings(max_examples=40, deadline=None)
def test_closed_form_matches_quadrature_over_the_eta_domain(eta):
    # PARAMS_K2 has c = 1/4, so (0, c) is every eta that SieveParams accepts
    F = TestFunction(k=2, poly=parse_poly("(1-u1)*(1-u2)", 2))
    _assert_quadrature_matches_closed_form(F, 1, replace(PARAMS_K2, eta=eta))


def _tanh_sinh_outer(F, m, params, kind, tol, max_evals):
    """quad_outer's integral at this tolerance and evaluation budget."""
    inner, power = (inner_L, 1) if kind == "L" else (inner_M, 2)
    c = params.r_exponent
    num, den = _weight_poly(inner(F, m, a_min=params.eta / c), power, c)
    return float(_tanh_sinh(num, den, params.eta, c, tol, max_evals))


def test_quad_evaluation_budget_covers_the_targets():
    # the cost of the check, pinned by a count: every target and the tiny-eta
    # case converge within 2000 integrand evaluations, to the value
    # quad_outer's own budget gives
    cases = [(t.test_function(), t.params()) for t in TARGETS.values()]
    cases.append(_thm13_at_tiny_eta())
    for F, params in cases:
        for kind in ("L", "M"):
            assert _tanh_sinh_outer(F, 1, params, kind, 1e-13, 2000) == quad_outer(F, 1, params, kind)


def test_outer_is_m_independent_for_symmetric_F():
    F = TestFunction(k=3, poly=parse_poly("(1-u1)*(1-u2)*(1-u3)", 3))
    params = SieveParams(k=3, rho=2, theta=Fraction(1), eta=Fraction(1, 100))
    Ls = [outer_L(F, m, params) for m in (1, 2, 3)]
    Ms = [outer_M(F, m, params) for m in (1, 2, 3)]
    assert Ls[0] == Ls[1] == Ls[2]
    assert Ms[0] == Ms[1] == Ms[2]


@pytest.mark.parametrize("expr", [SYM12, ASYMMETRIC])
def test_leading_coefficient_values_match_direct_calls_per_coordinate(expr):
    # the coefficient reuses one coordinate's values for every coordinate it
    # can be swapped with, and reads J off the inner pass: each entry must
    # still equal the direct computation at that m
    F = TestFunction(k=4, poly=parse_poly(expr, 4))
    params = SieveParams(k=4, rho=2, theta=Fraction(1), eta=Fraction(1, 100))
    lc = leading_coefficient(F, params, "S")
    for m in range(1, 5):
        assert lc.J_values[m - 1] == J_k_m(F, m)
        assert lc.L_values[m - 1] == outer_L(F, m, params)
        assert lc.M_values[m - 1] == outer_M(F, m, params)
    distinct_J = len(set(lc.J_values))
    assert distinct_J == (3 if expr == SYM12 else 4)


@pytest.mark.parametrize("expr", [SYM12, ASYMMETRIC, "1 - P1 + P2"])
def test_leading_coefficient_finds_the_swap_classes_once(monkeypatch, expr):
    # I and every coordinate class reuse the classes F keeps once found.  A
    # symmetric F's come from its grouping into orbits under all permutations;
    # any other F's from the swap search after that grouping fails
    calls = []

    def spying(name, find):
        def spy(poly, *args):
            calls.append(name)
            return find(poly, *args)
        return spy

    monkeypatch.setattr(algebra, "_swap_representatives", spying("swaps", _swap_representatives))
    monkeypatch.setattr(algebra, "_orbits", spying("orbits", algebra._orbits))
    once = ["orbits"] if expr == "1 - P1 + P2" else ["orbits", "swaps"]
    params = SieveParams(k=4, rho=2, theta=Fraction(1), eta=Fraction(1, 100))
    F = TestFunction(k=4, poly=parse_poly(expr, 4))
    leading_coefficient(F, params)
    assert calls == once
    leading_coefficient(F, params)
    assert calls == once
    F = TestFunction(k=4, poly=parse_poly(expr, 4))
    quad_outer(F, 1, params, "L")
    quad_outer(F, 1, params, "M")
    assert calls == once * 2


def test_rho_monotonicity_is_exactly_minus_cI(target_coefficients):
    from e2sieve.catalog import TARGETS

    for name, target in TARGETS.items():
        params = target.params()
        F = target.test_function()
        lc = target_coefficients[name]
        bumped = SieveParams(k=params.k, rho=params.rho + 1, theta=params.theta,
                             delta=params.delta, eta=params.eta)
        lc2 = leading_coefficient(F, bumped, target.variant)
        c = params.r_exponent  # theta/2 at delta = 0
        assert lc2.value - lc.value == LogLinear(-c * lc.I_value)


def test_variant_difference_is_c2_sum_J(target_coefficients):
    from e2sieve.catalog import TARGETS

    for name, target in TARGETS.items():
        params = target.params()
        F = target.test_function()
        base = target_coefficients[name]
        other_variant = "S" if target.variant == "Sprime" else "Sprime"
        other = leading_coefficient(F, params, other_variant)
        sprime, s = (base, other) if target.variant == "Sprime" else (other, base)
        c = params.r_exponent
        expected = LogLinear(c * c * sum(base.J_values, Fraction(0)))
        assert sprime.value - s.value == expected


def test_scale_invariance_of_the_verdict():
    F = TestFunction(k=2, poly=parse_poly("(1-u1)*(1-u2)", 2))
    lc = leading_coefficient(F, PARAMS_K2, "Sprime")
    for c in (Fraction(3), Fraction(-2, 5)):
        cF = TestFunction(k=2, poly=c * F.poly)
        lc_scaled = leading_coefficient(cF, PARAMS_K2, "Sprime")
        assert lc_scaled.value == c * c * lc.value
        assert (float(lc_scaled.value.evaluate_decimal(25)) > 0) == (float(lc.value.evaluate_decimal(25)) > 0)


def test_breakdown_sums_to_value(target_coefficients):
    for lc in target_coefficients.values():
        total = LogLinear.zero()
        for addend in lc.breakdown.values():
            total = total + addend
        assert total == lc.value


def test_leading_coefficient_rejects_mismatched_k():
    F = TestFunction(k=3, poly=SymPoly.constant(3, 1))
    with pytest.raises(ValueError):
        leading_coefficient(F, PARAMS_K2, "S")
    with pytest.raises(ValueError):
        leading_coefficient(F, SieveParams(k=3, rho=1, theta=HALF), "T")


def test_lemma41_constant():
    assert lemma41_constant(Fraction(1, 5)) == LogLinear.log(4)
    assert loglinear_eval(lemma41_constant(Fraction(1, 5)), 15) == "1.38629436111989"
    with pytest.raises(ValueError):
        lemma41_constant(Fraction(1, 4))


def test_quad_budget_is_enforced():
    # levels 0 and 1 take 10 + 8 evaluations; below that there is no estimate
    F = TestFunction(k=2, poly=parse_poly("(1-u1)*(1-u2)", 2))
    with pytest.raises(BudgetExceeded, match="exceeded 17 evaluations"):
        _tanh_sinh_outer(F, 1, PARAMS_K2, "L", 1e-13, 17)


def test_quad_error_estimate_above_tol_raises():
    # a budget of 18 stops after levels 0 and 1 (h = 1, 1/2), which differ by
    # far more than 1e-13 here
    F = TestFunction(k=2, poly=parse_poly("(1-u1)*(1-u2)", 2))
    with pytest.raises(BudgetExceeded, match="error estimate"):
        _tanh_sinh_outer(F, 1, PARAMS_K2, "L", 1e-13, 18)
    # a difference within tol is returned as it is
    closed = float(outer_L(F, 1, PARAMS_K2).evaluate_decimal(25))
    assert abs(_tanh_sinh_outer(F, 1, PARAMS_K2, "L", 0.5, 18) - closed) <= 0.5


def test_tanh_sinh_weights_integrate_one():
    # h * sum of w over the nodes up to a level, each pair counted twice, is
    # the rule's value for int_{-1}^{1} dx = 2
    total = mpmath.mpf(0)
    with mpmath.workdps(60):
        for level in range(7):
            total += sum(2 * mpmath.mpf(w) / 2 ** _P for _, w in _ts_nodes(level))
            if level >= 4:
                assert abs(total / 2 ** level - 2) < mpmath.mpf("1e-45"), level


def test_fixed_point_constants_are_rounded_at_scale():
    with mpmath.workdps(100):
        assert _LN2 == int(mpmath.nint(mpmath.log(2) * 2 ** _P))
        assert _HALF_PI == int(mpmath.nint(mpmath.pi / 2 * 2 ** _P))


def test_exp_kernel_matches_mpmath():
    # z = delta ln(c/eta)/2 reaches 1,151 at eta = 10^-1000, the node table's
    # arguments pi sinh s stay near 140
    rng = random.Random(27)
    one = 1 << _P
    xs = [0, 1, one - 1, one, _LN2 - 1, _LN2, 1731 * _LN2, 1200 * one]
    xs += [rng.randrange(2 * one) for _ in range(100)] + [rng.randrange(1200 * one) for _ in range(300)]
    with mpmath.workdps(80):
        for x in xs:
            want = mpmath.exp(mpmath.mpf(x) / 2 ** _P)
            assert abs(mpmath.mpf(_exp(x)) / 2 ** _P / want - 1) <= mpmath.mpf(2) ** -190, x


def test_tanh_sinh_nodes_match_mpmath():
    # the same nodes per level as a 60-digit recomputation, each (delta, w)
    # within 10^-55, the cutoff included: nodes stop where w < 10^-55
    with mpmath.workdps(60):
        for level in range(7):
            h = mpmath.mpf(2) ** -level
            want = [(mpmath.mpf(1), mpmath.pi / 4)] if level == 0 else []
            s = h
            while True:
                u = mpmath.pi / 2 * mpmath.sinh(s)
                w = mpmath.pi / 2 * mpmath.cosh(s) / mpmath.cosh(u) ** 2
                if w < mpmath.mpf(10) ** -55:
                    break
                want.append((2 / (mpmath.exp(2 * u) + 1), w))
                s += h if level == 0 else 2 * h
            got = _ts_nodes(level)
            assert len(got) == len(want), level
            for (delta, w), (want_delta, want_w) in zip(got, want):
                assert abs(mpmath.mpf(delta) / 2 ** _P - want_delta) <= mpmath.mpf(10) ** -55
                assert abs(mpmath.mpf(w) / 2 ** _P - want_w) <= mpmath.mpf(10) ** -55


# quad_outer's floats as the 50-digit decimal rule returned them; the
# fixed-point rule must round to the same doubles
QUAD_PINS = [
    ("thm1.2", 10, "L", 9.207434722187591e-06),
    ("thm1.2", 10, "M", 2.2226491054751057e-06),
    ("thm1.3", 10, "L", 0.16063311312894546),
    ("thm1.3", 10, "M", 0.07791631406198321),
    ("thm1.4", 10, "L", 0.003923684332501602),
    ("thm1.4", 10, "M", 0.0019009200990146473),
    ("thm1.3", 30, "L", 0.5171378553678817),
    ("thm1.3", 30, "M", 0.2561686851795317),
    ("thm1.3", 300, "L", 5.3299518756349),
    ("thm1.3", 300, "M", 2.662575695313041),
    ("thm1.3", 1000, "L", 17.807617854104947),
    ("thm1.3", 1000, "M", 8.901408684548064),
]


@pytest.mark.parametrize("name, digits, kind, expected", QUAD_PINS)
def test_quad_outer_floats_are_pinned(name, digits, kind, expected):
    target = TARGETS[name]
    params = replace(target.params(), eta=Fraction(1, 10 ** digits))
    assert repr(quad_outer(target.test_function(), 1, params, kind)) == repr(expected)


def test_quad_budget_messages_are_pinned():
    F = TestFunction(k=2, poly=parse_poly("(1-u1)*(1-u2)", 2))
    for budget, message in ((17, "quadrature exceeded 17 evaluations"),
                            (18, "quadrature error estimate 0.00315 exceeds 1e-13")):
        with pytest.raises(BudgetExceeded) as caught:
            _tanh_sinh_outer(F, 1, PARAMS_K2, "L", 1e-13, budget)
        assert str(caught.value) == message


@st.composite
def outer_integrands(draw):
    """Weight coefficients, c in (0, 1/2] and eta in (0, c), often eta = 10^-j (j <= 60)."""
    coeffs = draw(st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=1000),
                           max_size=13))
    c = Fraction(draw(st.integers(1, 500)), 1000)
    if draw(st.booleans()):
        eta = Fraction(1, 10 ** draw(st.integers(1, 60)))
        assume(eta < c)
    else:
        eta = c * Fraction(draw(st.integers(1, 10 ** 6 - 1)), 10 ** 6)
    return coeffs, eta, c


@given(case=outer_integrands())
@example(case=([], Fraction(1, 100), Fraction(1, 4)))
@example(case=([Fraction(1)] * 13, Fraction(1, 10 ** 60), Fraction(1, 2)))
@example(case=([Fraction(-10)] * 13, Fraction(499999, 10 ** 6), Fraction(1, 2)))
@settings(max_examples=50, deadline=None)
def test_tanh_sinh_matches_the_mpmath_quadrature(case):
    coeffs, eta, c = case
    den = lcm(*(q.denominator for q in coeffs))
    got = _tanh_sinh([int(q * den) for q in coeffs], den, eta, c, 1e-13, 10_000)
    want, err = mpmath_quad_outer(coeffs, eta, c)
    with mpmath.workdps(40):
        assert err <= mpmath.mpf("1e-30")
        assert abs(mpmath.mpf(str(got)) - want) <= mpmath.mpf("1e-25")


# ---------------------------------------------------------------------------
# the large-k plan
# ---------------------------------------------------------------------------


def test_theorem11_plan_rho5_snapshot():
    plan = theorem11_plan(5, HALF, Fraction(1, 10))
    assert plan.k == 78
    assert plan.eta_ratio == Fraction(1, 156)          # theta / k, exactly
    assert plan.A == pytest.approx(1.4132749945903063, rel=1e-12)
    assert plan.T == pytest.approx(2.200132060307345, rel=1e-12)
    assert plan.rhs83 < 5 and not plan.rhs83_exceeds_rho
    assert plan.vanishing_ok
    # eta = theta*T/k by construction: the rational part is carried exactly
    assert plan.eta == pytest.approx(plan.T * float(plan.eta_ratio), rel=1e-12)


def test_theorem11_plan_identity_for_random_parameters():
    rng = random.Random(4)
    for _ in range(50):
        rho = rng.randint(3, 60)
        theta = Fraction(rng.randint(1, 10), 10)
        epsilon = Fraction(rng.randint(1, 10), 10)
        plan = theorem11_plan(rho, theta, epsilon)
        assert plan.k is not None and plan.k >= 3
        # 2 k eta / theta = 2 T reduces to the exact rational statement below
        assert plan.eta_ratio == theta / plan.k
        assert plan.eta == pytest.approx(plan.T * float(plan.eta_ratio), rel=1e-12)


def test_theorem11_plan_huge_rho_skips_materializing_k():
    plan = theorem11_plan(10 ** 9, HALF, Fraction(1, 10))
    assert plan.k is None and plan.eta_ratio is None
    assert plan.log2_k > 9e7
    assert plan.vanishing_ok
    assert plan.rhs83 > 0


def test_theorem11_plan_keeps_k_only_while_str_can_print_it():
    # rho = 10^5 at theta = 1/2 needs a k of about 5,281 digits
    plan = theorem11_plan(10 ** 5, HALF, Fraction(1, 10))
    assert plan.k is None and plan.eta_ratio is None
    assert plan.log2_k == pytest.approx(17543.5, rel=1e-5)
    assert _MAX_K_DIGITS < sys.get_int_max_str_digits()
    # rho = 7 * 10^4 still gets its k, of 3,815 digits
    plan = theorem11_plan(7 * 10 ** 4, HALF, Fraction(1, 10))
    assert len(str(plan.k)) == 3815 and plan.eta_ratio == HALF / plan.k


@given(j=st.integers(1, 129), mantissa=st.integers(1, 10), theta=st.sampled_from([HALF, Fraction(1)]),
       epsilon=st.builds(Fraction, st.integers(1, 10), st.just(10)))
# at rho = 10^40, theta T / e^(ln k) at 30 digits gave 3.29e-39 for a true 1.42e-115
@example(j=40, mantissa=1, theta=HALF, epsilon=Fraction(1, 10))
@settings(max_examples=200, deadline=None)
def test_theorem11_eta_matches_a_200_digit_oracle(j, mantissa, theta, epsilon):
    rho = mantissa * 10 ** j   # 10^1 to 10^130
    plan = theorem11_plan(rho, theta, epsilon)
    true = theorem11_eta_oracle(rho, theta, epsilon, plan.k)
    if true >= sys.float_info.min:   # a normal float; eta ~ 1/(ln k)^3 leaves them near rho = 10^104
        assert abs(plan.eta - true) <= 1e-15 * true, (plan.eta, float(true))


def _run_python(code: str) -> str:
    run = run_with_src(["-c", code])
    assert run.returncode == 0, run.stderr
    return run.stdout


# what `from e2sieve import ...` reads in the scripts, the benchmark and the
# acceptance suite, and BudgetExceeded, which those calls raise; everything
# else is reached through its module
PUBLIC_NAMES = ["BudgetExceeded", "LogLinear", "SieveContext", "SieveParams", "TARGETS", "TestFunction",
                "gap_scan", "gen_admissible", "is_admissible", "lambda_weight", "leading_coefficient",
                "loglinear_eval", "mc_simplex_integral", "outer_L", "parse_poly", "quad_outer", "s_sums",
                "theorem11_plan", "tuple_hit_count", "y_from_lambda"]
# the tracer of the benchmark reads the modules it patches from sys.modules
PACKAGE_MODULES = ["e2sieve", "e2sieve.algebra", "e2sieve.catalog", "e2sieve.functionals",
                   "e2sieve.numth", "e2sieve.sieveweights", "e2sieve.simplex"]


def test_the_package_exports_exactly_the_names_its_callers_import():
    assert sorted(e2sieve.__all__) == PUBLIC_NAMES
    imported = set()
    for path in [*ROOT.glob("perfbench/**/*.py"), *ROOT.glob("scripts/*.py"),
                 ROOT / "tests" / "test_acceptance.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "e2sieve":
                imported.update(alias.name for alias in node.names)
    modules = {name.rpartition(".")[2] for name in PACKAGE_MODULES} | {"cli"}
    assert (imported - modules) | {"BudgetExceeded"} == set(PUBLIC_NAMES)
    namespace: dict = {}
    exec("from e2sieve import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == PUBLIC_NAMES


def test_importing_the_package_loads_every_module_but_the_cli():
    out = _run_python("import sys, e2sieve; print(sorted(m for m in sys.modules if m.startswith('e2sieve')))")
    assert out == f"{PACKAGE_MODULES}\n"


def test_importing_the_package_and_cli_loads_neither_mpmath_nor_sympy():
    out = _run_python("import sys, e2sieve, e2sieve.cli; "
                      "print(sorted(m for m in ('mpmath', 'sympy') if m in sys.modules))")
    assert out == "[]\n"


# SHA-256 over the repr of every plan (or its ValueError) of the sweep below,
# as printed while functionals imported mpmath at module level
THEOREM11_SWEEP_DIGEST = "58d29f8881a5f67ec881e16758437873c7668fc8d9e4683f7b3020b00b14d407"
THEOREM11_SWEEP = """
import hashlib, sys
from fractions import Fraction
from e2sieve.functionals import theorem11_plan
assert "mpmath" not in sys.modules
digest = hashlib.sha256()
for rho in list(range(3, 41)) + [50, 100, 500, 1000, 5000, 10 ** 5]:
    for theta in ("1/10", "1/4", "1/3", "1/2", "3/4", "1"):
        for eps in ("1/100", "1/10", "1/2", "1"):
            try:
                out = repr(theorem11_plan(rho, Fraction(theta), Fraction(eps)))
            except ValueError as exc:
                out = f"ValueError: {exc}"
            digest.update(out.encode() + b"\\n")
print("mpmath" in sys.modules, digest.hexdigest())
"""


def test_theorem11_plan_loads_mpmath_itself_and_keeps_its_records():
    # 1,056 (rho, theta, epsilon) cases, ValueErrors included
    assert _run_python(THEOREM11_SWEEP) == f"True {THEOREM11_SWEEP_DIGEST}\n"


@pytest.mark.parametrize("bad", [
    (2, HALF, Fraction(1, 10)),           # rho too small
    (5, Fraction(0), Fraction(1, 10)),    # theta = 0
    (5, Fraction(2), Fraction(1, 10)),    # theta > 1
    (5, HALF, Fraction(0)),               # epsilon = 0
    (5, HALF, Fraction(2)),               # epsilon > 1
])
def test_theorem11_plan_rejects(bad):
    with pytest.raises(ValueError):
        theorem11_plan(*bad)
