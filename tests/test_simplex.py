"""Simplex integrals: exact Dirichlet formula, I/J functionals, MC oracle."""

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    compile_poly,
    eval_poly_array,
    expanding_G,
    expanding_I,
    expanding_J,
    integrate_poly_simplex,
    iterated_simplex_integral,
    sample_solid_simplex,
)
from e2sieve import TARGETS, simplex
from e2sieve.algebra import BudgetExceeded, SymPoly, TestFunction, parse_poly
from e2sieve.simplex import (
    _MAX_PAIRS,
    I_k,
    J_k_m,
    _column_sampler,
    _orbit_representatives,
    _term_evaluator,
    inner_G,
    mc_simplex_integral,
    monomial_simplex_integral,
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


def _partially_symmetric(k, classes, monomials):
    """The sum of c * (orbit of alpha) over the group permuting coordinates with equal labels."""
    terms = {}
    for alpha, c in monomials.items():
        for perm in itertools.permutations(range(k)):
            if all(classes[i] == classes[perm[i]] for i in range(k)):
                terms[tuple(alpha[perm[i]] for i in range(k))] = c
    return SymPoly(k, terms)


@st.composite
def partially_symmetric_functions(draw):
    k = draw(st.integers(2, 4))
    classes = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    exponents = st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(lambda e: sum(e) <= 3)
    monomials = draw(st.dictionaries(exponents.map(tuple), st.builds(
        Fraction, st.integers(-9, 9), st.integers(1, 9)), max_size=6))
    return TestFunction(k=k, poly=_partially_symmetric(k, classes, monomials))


@given(F=partially_symmetric_functions())
@settings(max_examples=40, deadline=None)
def test_pair_kernel_equals_the_expanding_oracle(F):
    assert I_k(F) == expanding_I(F)
    for m in range(1, F.k + 1):
        G_L, G_M = inner_G(F, m, "LM")
        assert G_L == expanding_G(F, m, "L")
        assert G_M == expanding_G(F, m, "M")
        assert J_k_m(F, m) == expanding_J(F, m)


def test_orbit_pairs_of_a_symmetric_degree_7_function():
    # (1 - P1)^7 at k = 6 has 1716 terms; I sums over 44 orbit representatives
    # of the full symmetric group, G at one coordinate over 116 of S_5
    F = TestFunction.from_expression(6, "(1-P1)**7")
    assert len(F.poly.terms) == 1716
    assert len(_orbit_representatives(F.poly, None)) * 1716 == 75_504
    assert len(_orbit_representatives(F.poly, 0)) * 1716 == 199_056
    assert all(len(_orbit_representatives(F.poly, m)) == 116 for m in range(6))


def test_kernel_over_the_pair_budget_raises_before_its_pair_loop():
    F = TestFunction.from_expression(6, "P1**12")   # 6188 terms
    assert len(_orbit_representatives(F.poly, 0)) * len(F.poly.terms) > _MAX_PAIRS
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="pairs"):
            inner_G(F, 1, "LM")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


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
        F = TestFunction(k=4, poly=parse_poly(expr, 4))
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
    # 200,000 samples span 13 chunks of 2**14 rows, the last one partial;
    # the figures were recorded when the estimator drew all rows at once
    F = TestFunction.from_expression(3, "1 - P1 + 2*P2")
    est_i = mc_simplex_integral(F, "I", 200_000, 20261018)
    assert (repr(est_i.value), repr(est_i.stderr)) == (
        "0.12612381479016965", "0.00014165144429627072")
    est_j = mc_simplex_integral(F, "J", 200_000, 20261018, m=2)
    assert (repr(est_j.value), repr(est_j.stderr)) == (
        "0.059183497305287984", "0.00017988240162779623")


def test_mc_pins_the_benchmark_size_figures():
    # thm1.2 (k = 6) at 10**6 samples: I over R_6 and J over R_5 with the
    # 126-term integrated inner polynomial, as the row-major path computed them
    F = TARGETS["thm1.2"].test_function()
    est_i = mc_simplex_integral(F, "I", 10 ** 6, 20261018)
    assert (repr(est_i.value), repr(est_i.stderr)) == (
        "5.301792024168767e-06", "1.3860495749138523e-08")
    est_j = mc_simplex_integral(F, "J", 10 ** 6, 20261018, m=1)
    assert (repr(est_j.value), repr(est_j.stderr)) == (
        "1.8754598523963603e-06", "1.0546518470399202e-08")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(dim=st.integers(1, 12), size=st.integers(1, 600), partial=st.integers(1, 600),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=120, deadline=None)
def test_column_sampler_equals_the_row_major_oracle_bit_for_bit(dim, size, partial, seed):
    # a full chunk and then a partial one from the same stream
    rows = [size, min(partial, size)]
    sample = _column_sampler(dim, size)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for n in rows:
        cols = sample(rng, n)
        assert _same_bits(np.stack(cols), sample_solid_simplex(oracle_rng, n, dim).T)


@st.composite
def sparse_polynomials(draw):
    """(p, drop): a sparse p and None or a coordinate that p does not involve."""
    nvars = draw(st.integers(1, 6))
    drop = draw(st.none() | st.integers(0, nvars - 1)) if nvars > 1 else None
    exps = st.lists(st.integers(0, 4), min_size=nvars, max_size=nvars).map(
        lambda e: tuple(0 if j == drop else x for j, x in enumerate(e)))
    terms = draw(st.dictionaries(exps, st.fractions(min_value=-50, max_value=50,
                                                    max_denominator=97), max_size=10))
    return SymPoly(nvars, terms), drop


@given(case=sparse_polynomials(), rows=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
@example(case=(SymPoly.zero(3), None), rows=5, seed=1)
@example(case=(SymPoly.constant(2, Fraction(-7, 3)), None), rows=5, seed=2)
@example(case=(SymPoly(3, {(1, 0, 0): Fraction(2), (0, 0, 1): Fraction(1, 3)}), None),
         rows=5, seed=3)
@example(case=(SymPoly(3, {(2, 0, 1): Fraction(5), (0, 0, 3): Fraction(-1)}), None),
         rows=7, seed=4)   # u2 unused, still a column
@example(case=(SymPoly(4, {(1, 2, 0, 1): Fraction(3), (0, 1, 0, 0): Fraction(1)}), 2),
         rows=9, seed=5)   # u3 dropped, as J drops the integrated coordinate
@settings(max_examples=150, deadline=None)
def test_term_evaluator_equals_the_per_term_oracle_bit_for_bit(case, rows, seed):
    p, drop = case
    dim = p.nvars - (drop is not None)
    X = sample_solid_simplex(np.random.default_rng(seed), rows, dim)
    exps, coeffs = compile_poly(p)
    if drop is not None:
        exps = np.delete(exps, drop, axis=1)
    expected = eval_poly_array(exps, coeffs, X)
    evaluate = _term_evaluator(p, drop, rows + 3)
    cols = list(np.ascontiguousarray(X.T))
    assert _same_bits(evaluate(cols), expected)
    assert _same_bits(evaluate(cols), expected)   # its buffers are reused cleanly


def test_mc_memory_stays_bounded():
    F = TARGETS["thm1.2"].test_function()  # k = 6
    tracemalloc.start()
    try:
        mc_simplex_integral(F, "I", 10 ** 6, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20


def test_mc_statistics_take_no_second_sample_array():
    # 8 MB of squares at 10^6 samples plus one chunk's buffers; a copy of
    # the squares for the standard deviation put the peak at 16.0 MiB
    F = TARGETS["thm1.2"].test_function()  # k = 6
    tracemalloc.start()
    try:
        mc_simplex_integral(F, "I", 10 ** 6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13 * 2 ** 20, peak


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


def test_mc_sample_budget_raises_before_allocating(monkeypatch):
    F = TestFunction.from_expression(3, "(1-u1)*(1-u2)*(1-u3)")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="Monte Carlo samples"):
            mc_simplex_integral(F, "I", 10 ** 7 + 1, 0)    # 8 bytes a sample: 80 MiB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    # the budget is inclusive, for I and J alike
    monkeypatch.setattr(simplex, "_MAX_MC_SAMPLES", 20_000)
    assert mc_simplex_integral(F, "J", 20_000, 0, m=1).samples == 20_000
    with pytest.raises(BudgetExceeded):
        mc_simplex_integral(F, "J", 20_001, 0, m=1)
