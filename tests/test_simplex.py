"""Simplex integrals: exact Dirichlet formula, I/J functionals, MC oracle."""

import itertools
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import iterated_simplex_integral
from e2sieve import TARGETS
from e2sieve.algebra import SymPoly, TestFunction, power_sum_build
from e2sieve.simplex import (
    I_k,
    J_k_m,
    integrate_poly_simplex,
    mc_simplex_integral,
    monomial_simplex_integral,
    simplex_integral,
)


def test_monomial_examples():
    # volume of the k-simplex is 1/k!
    assert monomial_simplex_integral((0,)) == 1
    assert monomial_simplex_integral((0, 0)) == Fraction(1, 2)
    assert monomial_simplex_integral((0, 0, 0)) == Fraction(1, 6)
    # int over R_1 of u du = 1/2;  R_2 of u1 u2 = 1/24;  R_3 of u1^2 u3 = 1/360
    assert monomial_simplex_integral((1,)) == Fraction(1, 2)
    assert monomial_simplex_integral((1, 1)) == Fraction(1, 24)
    assert monomial_simplex_integral((2, 0, 1)) == Fraction(1, 360)


def test_monomial_exhaustive_against_iterated_integration():
    # small slice here; the full k <= 4, degree <= 6 sweep runs in acceptance
    for k in (1, 2, 3):
        for exps in itertools.product(range(4), repeat=k):
            if sum(exps) > 4:
                continue
            assert monomial_simplex_integral(exps) == iterated_simplex_integral(exps)


def test_integrate_poly_simplex_is_linear():
    p = SymPoly(2, {(1, 0): Fraction(2), (0, 2): Fraction(-3)})
    expected = 2 * monomial_simplex_integral((1, 0)) - 3 * monomial_simplex_integral((0, 2))
    assert integrate_poly_simplex(p) == expected


def test_I_and_J_on_the_constant_function():
    one2 = TestFunction(k=2, poly=SymPoly.constant(2, 1))
    assert I_k(one2) == Fraction(1, 2)            # volume of R_2
    assert J_k_m(one2, 1) == Fraction(1, 3)       # int_0^1 (1-u)^2 du
    assert J_k_m(one2, 2) == Fraction(1, 3)
    one1 = TestFunction(k=1, poly=SymPoly.constant(1, 1))
    assert I_k(one1) == 1
    assert J_k_m(one1, 1) == 1                    # (int_0^1 1 du)^2


def test_J_rejects_bad_m():
    F = TestFunction(k=2, poly=SymPoly.constant(2, 1))
    with pytest.raises(ValueError):
        J_k_m(F, 0)
    with pytest.raises(ValueError):
        J_k_m(F, 3)


@given(st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6)))
@settings(max_examples=30)
def test_quadratic_scaling(c):
    F = TestFunction.from_expression(3, "1 - P1 + P2")
    cF = TestFunction(k=3, poly=c * F.poly)
    assert I_k(cF) == c * c * I_k(F)
    assert J_k_m(cF, 2) == c * c * J_k_m(F, 2)


def test_J_is_m_independent_for_symmetric_functions():
    for expr in ("1", "1 - P1", "1 - 2*P1 + P2 + P1**3"):
        F = TestFunction(k=4, poly=power_sum_build(4, expr))
        values = {J_k_m(F, m) for m in range(1, 5)}
        assert len(values) == 1


@given(poly_terms=st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5)),
    max_size=4,
))
@settings(max_examples=80)
def test_I_positive_unless_zero(poly_terms):
    p = SymPoly(2, poly_terms)
    F = TestFunction(k=2, poly=p)
    if p.is_zero():
        assert I_k(F) == 0
    else:
        # the square of a nonzero polynomial has positive integral
        assert I_k(F) > 0


def test_simplex_integral_wrapper():
    F = TestFunction(k=2, poly=SymPoly.constant(2, 1))
    r = simplex_integral(F, "I")
    assert (r.value, r.k, r.kind, r.m) == (Fraction(1, 2), 2, "I", None)
    rj = simplex_integral(F, "J", m=1)
    assert rj.value == Fraction(1, 3) and rj.m == 1
    with pytest.raises(ValueError):
        simplex_integral(F, "K")
    with pytest.raises(ValueError):
        simplex_integral(F, "J")  # J needs m


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_mc_is_deterministic_per_seed():
    F = TestFunction.from_expression(3, "1 - P1 + 2*P2")
    a = mc_simplex_integral(F, "I", 20_000, 5)
    b = mc_simplex_integral(F, "I", 20_000, 5)
    c = mc_simplex_integral(F, "I", 20_000, 6)
    assert (a.value, a.stderr) == (b.value, b.stderr)
    assert a.value != c.value


def test_mc_chunked_draws_match_the_single_draw_figures():
    # 200,000 samples span four chunks of 2**16 rows, the last one partial;
    # the figures were recorded when the estimator drew all rows at once
    F = TestFunction.from_expression(3, "1 - P1 + 2*P2")
    est_i = mc_simplex_integral(F, "I", 200_000, 20261018)
    assert (repr(est_i.value), repr(est_i.stderr)) == (
        "0.12612381479016965", "0.00014165144429627072")
    est_j = mc_simplex_integral(F, "J", 200_000, 20261018, m=2)
    assert (repr(est_j.value), repr(est_j.stderr)) == (
        "0.059183497305287984", "0.00017988240162779623")


def test_mc_memory_stays_bounded():
    F = TARGETS["thm1.2"].test_function()  # k = 6
    tracemalloc.start()
    try:
        mc_simplex_integral(F, "I", 10 ** 6, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_mc_agrees_with_exact_within_4_sigma():
    F = TestFunction.from_expression(3, "(1-u1)*(1-u2)*(1-u3)")
    est = mc_simplex_integral(F, "I", 100_000, 12)
    assert abs(est.value - float(I_k(F))) <= 4 * est.stderr
    est_j = mc_simplex_integral(F, "J", 100_000, 13, m=2)
    assert abs(est_j.value - float(J_k_m(F, 2))) <= 4 * est_j.stderr


def test_mc_J_at_k1_is_exact():
    # the outer domain is 0-dimensional: the estimate is the exact value
    F = TestFunction(k=1, poly=SymPoly.variable(1, 0))
    est = mc_simplex_integral(F, "J", 10_000, 3, m=1)
    assert est.stderr == 0.0
    assert est.value == float(J_k_m(F, 1))  # (1/2)^2


def test_mc_rejects_tiny_sample_counts():
    F = TestFunction(k=2, poly=SymPoly.constant(2, 1))
    with pytest.raises(ValueError):
        mc_simplex_integral(F, "I", 100, 0)
