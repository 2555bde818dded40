"""Outer weighted functionals, leading coefficients, and the large-k plan."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from e2sieve import TARGETS
from e2sieve.algebra import LogLinear, SymPoly, TestFunction, loglinear_eval, parse_poly
from e2sieve.functionals import (
    BudgetExceeded,
    SieveParams,
    inner_L,
    inner_M,
    leading_coefficient,
    lemma41_constant,
    outer_L,
    outer_M,
    quad_outer,
    substitute_m_delta,
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


def test_substitute_m_delta_evaluates_consistently():
    F = TestFunction(k=2, poly=parse_poly("u1 + u2**2", 2))
    sub = substitute_m_delta(F, 1)
    assert sub.nvars == 3  # u1, u2, and the shift variable
    t, u2, a = Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)
    assert sub.eval([t, u2, a]) == F.poly.eval([a + (1 - a) * t, u2])


def test_inner_G_k1():
    # k=1, F=1: the shifted segment [a,1] has length (1-a); squaring for M
    F = TestFunction(k=1, poly=SymPoly.constant(1, 1))
    a = SymPoly.variable(1, 0)
    assert inner_L(F, 1).G == 1 - a
    assert inner_M(F, 1).G == (1 - a) ** 2


def test_inner_G_k2_constant():
    F = TestFunction(k=2, poly=SymPoly.constant(2, 1))
    a = SymPoly.variable(1, 0)
    one = SymPoly.constant(1, 1)
    # worked by hand: G_L = 1/3 - a/2 + a^3/6,  G_M = 1/3 - a + a^2 - a^3/3
    assert inner_L(F, 1).G == Fraction(1, 3) * one - HALF * a + Fraction(1, 6) * a ** 3
    assert inner_M(F, 1).G == Fraction(1, 3) * one - a + a ** 2 - Fraction(1, 3) * a ** 3


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
            assert inner_L(F, m).G.eval([Fraction(0)]) == J
            assert inner_M(F, m).G.eval([Fraction(0)]) == J


def test_quotient_poly_divides_exactly():
    F = TestFunction(k=2, poly=parse_poly("(1-u1)*(1-u2)", 2))
    for inner in (inner_L(F, 1), inner_M(F, 1)):
        q = inner.quotient_poly()
        power = 1 if inner.kind == "L" else 2
        one_minus_a = SymPoly.constant(1, 1) - SymPoly.variable(1, 0)
        assert q * one_minus_a ** power == inner.G
    a = Fraction(1, 3)
    # value_at is the semantic value G(a)/(1-a)^power
    assert inner_L(F, 1).value_at(a) == inner_L(F, 1).G.eval([a]) / (1 - a)
    assert inner_M(F, 1).value_at(a) == inner_M(F, 1).G.eval([a]) / (1 - a) ** 2


def test_box_bound_forces_vanishing():
    # conceptual support in [0, 1/50]^k: once the substitution offset reaches
    # the box edge the inner integrals are identically zero
    F = TestFunction(k=2, poly=SymPoly.constant(2, 1), box_bound=Fraction(1, 50))
    assert inner_L(F, 1, a_min=Fraction(1, 50)).G.is_zero()
    assert inner_M(F, 1, a_min=Fraction(1, 10)).G.is_zero()
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


# ---------------------------------------------------------------------------
# closed form vs quadrature, symmetry, exact identities
# ---------------------------------------------------------------------------


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


def test_quad_evaluation_budget_covers_the_targets():
    # the cost of the check, pinned by a count: every target and the tiny-eta
    # case finish within 2000 integrand evaluations
    cases = [(t.test_function(), t.params()) for t in TARGETS.values()]
    cases.append(_thm13_at_tiny_eta())
    for F, params in cases:
        for kind in ("L", "M"):
            quad_outer(F, 1, params, kind, max_evals=2000)


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
        assert (lc_scaled.value.to_float() > 0) == (lc.value.to_float() > 0)


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
    F = TestFunction(k=2, poly=parse_poly("(1-u1)*(1-u2)", 2))
    with pytest.raises(BudgetExceeded):
        quad_outer(F, 1, PARAMS_K2, "L", max_evals=20)


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
