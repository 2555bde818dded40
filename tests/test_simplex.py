"""Simplex integrals: exact Dirichlet formula, I/J functionals, MC oracle."""

import gc
import itertools
import os
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_swap_representatives,
    compile_poly,
    definite_integral_one_var,
    eval_poly_array,
    expanding_G,
    expanding_I,
    expanding_J,
    integrate_poly_simplex,
    iterated_simplex_integral,
    monomial_simplex_integral,
    sample_solid_simplex,
)
from e2sieve import TARGETS, simplex
from e2sieve.algebra import BudgetExceeded, SymPoly, TestFunction, _orbits, _swap_representatives, parse_poly
from e2sieve.simplex import (
    _MAX_PAIRS,
    _MAX_TOP,
    _MC_CHUNK,
    I_k,
    J_k_m,
    _column_sampler,
    _term_evaluator,
    integrate_out,
    mc_simplex_integral,
    pair_pass,
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
    members = [[i for i in range(k) if classes[i] == label] for label in sorted(set(classes))]
    terms = {}
    for alpha, c in monomials.items():
        # each class's nonzero exponents, placed on its coordinates in every distinct way
        placings = [{tuple(zip(spots, [alpha[i] for i in idx if alpha[i]]))
                     for spots in itertools.permutations(idx, sum(1 for i in idx if alpha[i]))}
                    for idx in members]
        for choice in itertools.product(*placings):
            exps = [0] * k
            for spots in choice:
                for i, e in spots:
                    exps[i] = e
            terms[tuple(exps)] = c
    return SymPoly(k, terms)


@st.composite
def partially_symmetric_functions(draw):
    k = draw(st.integers(2, 8))
    classes = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    exponents = st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(lambda e: sum(e) <= 3)
    monomials = draw(st.dictionaries(exponents.map(tuple), st.builds(
        Fraction, st.integers(-9, 9), st.integers(1, 9)), max_size=6 if k <= 4 else 3))
    return TestFunction(k=k, poly=_partially_symmetric(k, classes, monomials))


@given(F=partially_symmetric_functions())
@example(F=TestFunction.from_expression(8, "1 - P1**2 + P3/3"))   # one class of 8
@example(F=TestFunction.from_expression(   # classes {u1, u2, u3} and {u4, u5}
    5, "1 - (u1+u2+u3)*(u4+u5) + u1*u2*u3 - 2*(u4**2+u5**2) + 3*(u1**2+u2**2+u3**2)*u4*u5"))
@settings(max_examples=100, deadline=None)   # about as many k <= 4 draws as the 40 of k in 2..4
def test_pair_kernel_equals_the_expanding_oracle(F):
    # G at every coordinate up to k = 4 and past it at one per swap class (the
    # oracle takes about 0.5 s a G at k = 8); J at every coordinate
    assert I_k(F) == expanding_I(F)
    for m in range(1, F.k + 1) if F.k <= 4 else set(F.swaps):
        _, G_L, G_M = pair_pass(F, m)
        assert G_L == expanding_G(F, m, "L")
        assert G_M == expanding_G(F, m, "M")
    for m in range(1, F.k + 1):
        assert J_k_m(F, m) == expanding_J(F, m)


@st.composite
def small_polynomials(draw):
    nvars = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 4)] * nvars)
    return SymPoly(nvars, draw(st.dictionaries(exponents, st.builds(
        Fraction, st.integers(-9, 9), st.integers(1, 9)), max_size=6)))


@given(p=small_polynomials())
@example(p=SymPoly(1))
@example(p=SymPoly(4))
@settings(max_examples=100, deadline=None)
def test_integrate_out_equals_the_definite_integral(p):
    n = p.nvars
    for var in range(n):
        upper = 1 - sum((SymPoly.variable(n, i) for i in range(n) if i != var), SymPoly.zero(n))
        want = definite_integral_one_var(p, var, Fraction(0), upper)
        assert all(exps[var] == 0 for exps in want.terms)
        # integrate_out leaves u_var out of the result's coordinates
        assert integrate_out(p, var) == SymPoly(n - 1, {e[:var] + e[var + 1:]: c
                                                        for e, c in want.terms.items()})


@st.composite
def labelled_polynomials(draw, max_k=5):
    """Sums of orbits under the coordinate permutations that keep labels: from
    every coordinate in one class (symmetric) to every one alone (asymmetric)."""
    k = draw(st.integers(1, max_k))
    classes = draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
    exponents = st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(lambda e: sum(e) <= 4)
    monomials = draw(st.dictionaries(exponents.map(tuple), st.builds(
        Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9)), max_size=6))
    return _partially_symmetric(k, classes, monomials)


@given(poly=labelled_polynomials())
@example(poly=SymPoly(3, {(1, 1, 0): Fraction(1), (2, 0, 0): Fraction(1)}))   # only u1^2 moves
@example(poly=parse_poly("(1 - P1)**3 + P2", 4))
@settings(max_examples=150, deadline=None)
def test_swap_classes_equal_the_brute_invariance_check(poly):
    assert _swap_representatives(poly) == brute_swap_representatives(poly)


@given(poly=labelled_polynomials(max_k=4))
@example(poly=parse_poly("1 - P1 + u1*u2 + 3*u3**2 - u4/7 + (u1+u2)**2*u3", 4))   # swaps u1, u2 only
@example(poly=parse_poly("1 + u1/2 - 3*u2**2 + u1*u3 + u2*u3**2/5", 3))   # fixed by no swap
@settings(max_examples=60, deadline=None)
def test_every_coordinate_pass_gives_the_same_I(poly):
    # each coordinate's orbit-weighted pair sums cover every pair of terms
    F = TestFunction(k=poly.nvars, poly=poly)
    assert {pair_pass(F, m)[0] for m in range(1, F.k + 1)} == {expanding_I(F)}


def _kernel_counts(F, m, monkeypatch):
    """(rests, orbits) of the kernel's pass at the 0-based coordinate m, read off its budget check."""
    monkeypatch.setattr(simplex, "_MAX_PAIRS", -1)
    with pytest.raises(BudgetExceeded) as raised:
        simplex._pair_sums(F.poly, m, F.swaps)
    monkeypatch.undo()
    rests, orbits = re.match(r"(\d+) rests x (\d+) orbits", str(raised.value)).groups()
    return int(rests), int(orbits)


def test_orbit_pairs_of_a_symmetric_degree_7_function(monkeypatch):
    # (1 - P1)^7 at k = 6 has 1716 terms in 44 orbits of S_6, the partitions
    # with at most 6 parts of each n <= 7.  The pass at one coordinate groups
    # them into 116 orbits of S_5 with 42 distinct rests: 4,872 pairs
    F = TestFunction.from_expression(6, "(1-P1)**7")
    assert len(F.poly.terms) == 1716
    assert F.swaps == [1] * 6 and len(_orbits(F.poly, F.swaps)[2]) == 44
    for m in range(6):
        assert len(_orbits(F.poly, [0 if i == m else 1 for i in range(6)])[2]) == 116
        assert _kernel_counts(F, m, monkeypatch) == (42, 116)


def test_kernel_over_the_pair_budget_raises_before_its_pair_loop(monkeypatch):
    # distinct weights fix no swap: 1716 orbits of one term each, 792 rests
    F = TestFunction.from_expression(6, "(1 + u1 + 2*u2 + 3*u3 + 4*u4 + 5*u5 + 6*u6)**7")
    assert F.swaps == [1, 2, 3, 4, 5, 6]
    rests, orbits = _kernel_counts(F, 0, monkeypatch)
    assert (rests, orbits) == (792, 1716) and rests * orbits > _MAX_PAIRS
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="pairs"):
            pair_pass(F, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_kernel_builds_G_up_to_the_degree_budget_and_refuses_one_past_it():
    d = (_MAX_TOP - 4) // 2   # top = k + 1 + 2 d = _MAX_TOP at k = 3
    I, G_L, G_M = pair_pass(TestFunction(k=3, poly=SymPoly.variable(3, 0) ** d), 1)
    assert I == monomial_simplex_integral((2 * d, 0, 0))
    assert G_L.total_degree() <= _MAX_TOP and G_M.total_degree() <= _MAX_TOP
    over = TestFunction(k=2, poly=SymPoly.variable(2, 0) ** (d + 1))   # top = _MAX_TOP + 1
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=f"G of degree {_MAX_TOP + 1}, .* degree budget"):
            pair_pass(over, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16, peak


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
    nvars = draw(st.integers(1, 6))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    terms = draw(st.dictionaries(exps, st.fractions(min_value=-50, max_value=50,
                                                    max_denominator=97), max_size=10))
    return SymPoly(nvars, terms)


@given(p=sparse_polynomials(), rows=st.integers(1, 300), seed=st.integers(0, 2 ** 32 - 1))
@example(p=SymPoly.zero(3), rows=5, seed=1)
@example(p=SymPoly.constant(2, Fraction(-7, 3)), rows=5, seed=2)
@example(p=SymPoly(3, {(1, 0, 0): Fraction(2), (0, 0, 1): Fraction(1, 3)}), rows=5, seed=3)
@example(p=SymPoly(3, {(2, 0, 1): Fraction(5), (0, 0, 3): Fraction(-1)}),
         rows=7, seed=4)   # u2 unused, still a column
@example(p=integrate_out(SymPoly(4, {(1, 2, 0, 1): Fraction(3), (0, 1, 0, 0): Fraction(1)}), 2),
         rows=9, seed=5)   # u3 integrated out, as for the Monte Carlo J
@settings(max_examples=150, deadline=None)
def test_term_evaluator_equals_the_per_term_oracle_bit_for_bit(p, rows, seed):
    X = sample_solid_simplex(np.random.default_rng(seed), rows, p.nvars)
    exps, coeffs = compile_poly(p)
    expected = eval_poly_array(exps, coeffs, X)
    evaluate = _term_evaluator(p, rows + 3)
    cols = list(np.ascontiguousarray(X.T))
    assert _same_bits(evaluate(cols), expected)
    assert _same_bits(evaluate(cols), expected)   # its buffers are reused cleanly


def test_mc_memory_stays_bounded():
    # the squares sit in an anonymous mapping that tracemalloc does not see,
    # so the traced peak is one chunk's buffers, 3.4 MiB, at any sample count
    F = TARGETS["thm1.2"].test_function()  # k = 6
    tracemalloc.start()
    try:
        mc_simplex_integral(F, "I", 10 ** 6, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20, peak


def test_mc_statistics_take_no_second_sample_array():
    # one chunk's buffers, 3.4 MiB, beside the untraced mapping of squares;
    # a traced copy of the 8 MB of squares would pass 11 MiB
    F = TARGETS["thm1.2"].test_function()  # k = 6
    tracemalloc.start()
    try:
        mc_simplex_integral(F, "I", 10 ** 6, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20, peak


def _on_cpus(mp: pytest.MonkeyPatch, n: int) -> list:
    """Let this process see n CPUs; the returned list gets an entry per fork."""
    forks, fork = [], os.fork
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    mp.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the split fill forks")


@needs_fork
@given(dim=st.integers(1, 6), chunks=st.sampled_from([1, 2, 3]), offset=st.integers(-3, 3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(dim=6, chunks=3, offset=1, seed=5)    # four chunks, the child's last one a single row
@settings(max_examples=25, deadline=None)
def test_the_split_fill_equals_the_inline_fill_bit_for_bit(dim, chunks, offset, seed):
    # on either side of one chunk (inline both times), of two chunks and of
    # three, where the parent fills one chunk more than the child
    samples = chunks * _MC_CHUNK + offset
    F = TestFunction.from_expression(dim, "1 - 2*P1 + 3*P2 - P1*P2")
    G = TestFunction.from_expression(dim + 1, "(1 - P1) * (1 + u1)")
    runs = []
    for cpus in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            forks = _on_cpus(mp, cpus)
            sq = simplex._squares(F.poly, samples, np.random.default_rng(seed))
            est_i = mc_simplex_integral(F, "I", samples, seed)
            est_j = mc_simplex_integral(G, "J", samples, seed, m=1)
        assert len(forks) == (3 if cpus == 2 and samples > _MC_CHUNK else 0)
        runs.append((sq.tobytes(), est_i, est_j))
    assert runs[0] == runs[1]


def _evaluator_failing_in(monkeypatch: pytest.MonkeyPatch, side: str) -> None:
    """Make the evaluator raise in the forked child or in the calling process."""
    parent, plan = os.getpid(), simplex._term_evaluator

    def failing_plan(*args):
        evaluate = plan(*args)

        def checked(cols):
            if (os.getpid() == parent) == (side == "parent"):
                raise ArithmeticError(f"evaluator fails in the {side}")
            return evaluate(cols)
        return checked
    monkeypatch.setattr(simplex, "_term_evaluator", failing_plan)


@needs_fork
def test_a_failing_child_makes_the_parent_raise(monkeypatch, capfd):
    F = TARGETS["thm1.2"].test_function()
    _on_cpus(monkeypatch, 2)
    _evaluator_failing_in(monkeypatch, "child")
    with pytest.raises(RuntimeError, match="Monte Carlo child process failed"):
        mc_simplex_integral(F, "I", 40_000, 1)
    assert "ArithmeticError: evaluator fails in the child" in capfd.readouterr().err


@needs_fork
@pytest.mark.parametrize("failing", [None, "child", "parent"])
def test_no_child_process_is_left_after_a_call(monkeypatch, capfd, failing):
    F = TARGETS["thm1.2"].test_function()
    forks = _on_cpus(monkeypatch, 2)
    if failing is None:
        mc_simplex_integral(F, "J", 40_000, 1, m=1)
    else:
        _evaluator_failing_in(monkeypatch, failing)
        with pytest.raises((RuntimeError, ArithmeticError), match=failing):
            mc_simplex_integral(F, "J", 40_000, 1, m=1)
    assert forks == [1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
@pytest.mark.parametrize("failing", [None, "child", "fork"])
def test_no_object_stays_frozen_after_a_call(monkeypatch, capfd, failing):
    F = TARGETS["thm1.2"].test_function()
    forks = _on_cpus(monkeypatch, 2)

    def failing_fork():
        forks.append(1)
        raise OSError("fork fails")

    if failing is None:
        mc_simplex_integral(F, "I", 40_000, 1)
    else:
        if failing == "child":
            _evaluator_failing_in(monkeypatch, "child")
        else:
            monkeypatch.setattr(os, "fork", failing_fork)
        with pytest.raises((RuntimeError, OSError), match="child process failed|fork fails"):
            mc_simplex_integral(F, "I", 40_000, 1)
    assert forks == [1]
    assert gc.get_freeze_count() == 0


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
