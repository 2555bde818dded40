"""Sieve weights: support, surrogate logs, Mobius inversion, weighted sums."""

import hashlib
import math
import os
import time
import tracemalloc
from fractions import Fraction
from itertools import product as iter_product
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import euler_phi, run_with_src, supported_by_predicate, trie_s_sums, weight_w
from e2sieve import sieveweights
from e2sieve.algebra import SymPoly, TestFunction, parse_poly
from e2sieve.numth import is_squarefree
from e2sieve.sieveweights import (
    SieveContext,
    lambda_weight,
    s_sums,
    y_from_lambda,
)


def make_ctx_k1(**overrides) -> SieveContext:
    kwargs = dict(
        N=101,
        shifts=(0,),
        F=TestFunction(k=1, poly=parse_poly("1 - u1", 1)),
        theta=Fraction(1),
        delta=Fraction(1, 2000),
        eta=Fraction(1, 100),
        W=1,
    )
    kwargs.update(overrides)
    return SieveContext(**kwargs)


def make_ctx_k2(**overrides) -> SieveContext:
    kwargs = dict(
        N=1009,
        shifts=(0, 2),
        F=TestFunction(k=2, poly=parse_poly("(1-u1)*(1-u2)", 2)),
        theta=Fraction(1),
        delta=Fraction(1, 125),
        eta=Fraction(1, 100),
        W=1,
    )
    kwargs.update(overrides)
    return SieveContext(**kwargs)


def make_ctx_desk_k2() -> SieveContext:
    """The benchmark's desk context at k = 2: N = 10^4, theta = 1, W from N."""
    F = TestFunction(k=2, poly=parse_poly("(1-u1)*(1-u2)", 2))
    return SieveContext(N=10 ** 4, shifts=(0, 2), F=F, theta=Fraction(1), delta=Fraction(149, 2000),
                        eta=Fraction(1, 10))


def make_ctx_desk_k3() -> SieveContext:
    """The benchmark's desk context at k = 3: N = 10^4, theta = 1, W from N."""
    F = TestFunction(k=3, poly=parse_poly("(1-u1)*(1-u2)*(1-u3)", 3))
    return SieveContext(N=10 ** 4, shifts=(0, 2, 6), F=F, theta=Fraction(1), delta=Fraction(149, 2000),
                        eta=Fraction(1, 10))


def make_ctx_vanishing_at_r1_one() -> SieveContext:
    """F = u1 * (1 - u2) is 0 at r1 = 1, so those y_r add nothing to lambda."""
    return make_ctx_k2(F=TestFunction(k=2, poly=parse_poly("u1*(1-u2)", 2)))


# ---------------------------------------------------------------------------
# construction and support
# ---------------------------------------------------------------------------


def test_context_derived_quantities():
    ctx = make_ctx_k1()
    assert (ctx.R, ctx.Y, ctx.W, ctx.nu0) == (10, 1, 1, 0)
    ctx2 = make_ctx_k2()
    assert ctx2.R == 30
    big = make_ctx_desk_k2()
    # default W = 2 at this size; nu0 makes n, n+2 coprime to 2
    assert (big.R, big.Y, big.W, big.nu0) == (50, 2, 2, 1)
    assert big.nu0 % 2 == 1


@pytest.mark.parametrize("overrides", [
    dict(N=10),                                  # N too small
    dict(shifts=(0, 0)),                         # duplicate shifts
    dict(F=TestFunction(k=2, poly=SymPoly.constant(2, 1))),  # arity mismatch
    dict(eta=Fraction(1, 4)),                    # eta out of range
    dict(eta=Fraction(3, 5)),                    # eta >= theta/2 - delta
    dict(W=4),                                   # W must be squarefree
    dict(delta=Fraction(0), N=100),              # R^2 = N violates R^2 < N
])
def test_context_rejects(overrides):
    with pytest.raises(ValueError):
        make_ctx_k1(**overrides)


def test_supported_tuples_k1():
    ctx = make_ctx_k1()
    assert ctx.supported_tuples() == [(1,), (2,), (3,), (5,), (6,), (7,)]
    assert not ctx.is_supported((4,))    # not squarefree
    assert not ctx.is_supported((10,))   # product must stay below R
    assert ctx.is_supported((7,))


def test_supported_tuples_k2_pairwise_coprime():
    ctx = make_ctx_k2()
    assert ctx.is_supported((2, 3))
    assert not ctx.is_supported((2, 2))      # product 4 not squarefree
    assert not ctx.is_supported((6, 10))     # shared factor 2
    assert not ctx.is_supported((5, 6))      # product 30 reaches R
    for t in ctx.supported_tuples():
        prod = t[0] * t[1]
        assert prod < ctx.R and is_squarefree(prod)


K3 = dict(shifts=(0, 2, 6), F=TestFunction(k=3, poly=parse_poly("(1-u1)*(1-u2)*(1-u3)", 3)))
K3_R36 = dict(K3, N=1500)   # R = 36 at W = 1, so v = 2 * 3 * 5 takes all 27 placements


@pytest.mark.parametrize("make, overrides", [
    (make_ctx_k1, {}), (make_ctx_k2, {}), (make_ctx_k2, dict(W=6)),
    (make_ctx_k2, K3), (make_ctx_k2, dict(K3, W=6)), (make_ctx_k2, K3_R36),
], ids=["k1", "k2", "k2-W6", "k3", "k3-W6", "k3-R36"])
def test_supported_tuples_are_every_tuple_the_predicate_accepts(make, overrides):
    ctx = make(**overrides)
    accepted = {t for t in iter_product(range(1, ctx.R), repeat=ctx.k) if supported_by_predicate(ctx, t)}
    assert len(accepted) > ctx.R // 2
    assert ctx.supported_tuples() == sorted(accepted)   # each tuple once, ascending
    for t in iter_product(range(ctx.R + 1), repeat=ctx.k):     # 0 and R included
        assert ctx.is_supported(t) == supported_by_predicate(ctx, t), t


def test_tuple_budget_is_held_at_the_exact_count(monkeypatch):
    count = len(make_ctx_k2(**K3).supported_tuples())
    monkeypatch.setattr(sieveweights, "_TUPLE_BUDGET", count)
    assert len(make_ctx_k2(**K3).supported_tuples()) == count
    monkeypatch.setattr(sieveweights, "_TUPLE_BUDGET", count - 1)
    with pytest.raises(ValueError, match="^supported-tuple enumeration exceeds budget$"):
        make_ctx_k2(**K3)


# ---------------------------------------------------------------------------
# surrogate logs
# ---------------------------------------------------------------------------


def test_surrogate_log_brackets_the_true_ratio():
    ctx = make_ctx_k1()
    assert ctx.surrogate_log(1) == 0
    with mpmath.workdps(60):
        for r in (2, 3, 5, 6, 7):
            true = mpmath.log(r) / mpmath.log(ctx.R)
            approx = ctx.surrogate_log(r)
            err = abs(mpmath.mpf(approx.numerator) / approx.denominator - true)
            assert err <= mpmath.mpf(ctx.log_eps.numerator) / ctx.log_eps.denominator
    # monotone in r
    vals = [ctx.surrogate_log(r) for r in (1, 2, 3, 5, 6, 7)]
    assert vals == sorted(vals)


# ---------------------------------------------------------------------------
# lambda table and inversion
# ---------------------------------------------------------------------------


def brute_force_lambda(ctx: SieveContext, d: tuple[int, ...]) -> Fraction:
    """Independent slow path: the defining sum over all supported r with d | r."""
    def mobius(n: int) -> int:
        if n == 1:
            return 1
        m = 1
        for p in range(2, n + 1):
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                m = -m
        return m

    total = Fraction(0)
    for r in ctx.supported_tuples():
        if all(ri % di == 0 for ri, di in zip(r, d)):
            phi = math.prod(euler_phi(ri) for ri in r)
            total += ctx.y_table_value(r) / phi
    sign = math.prod(mobius(di) * di for di in d)
    return sign * total


@pytest.mark.parametrize("ctx_maker", [make_ctx_k1, make_ctx_k2, make_ctx_desk_k3, make_ctx_vanishing_at_r1_one])
def test_lambda_matches_brute_force(ctx_maker):
    ctx = ctx_maker()
    for d in ctx.supported_tuples():
        assert lambda_weight(ctx, d) == brute_force_lambda(ctx, d)
    off = (ctx.R + 1,) + (1,) * (ctx.k - 1)
    assert lambda_weight(ctx, off) == 0


# SHA-256 of repr((_lambda_den, sorted(_lambda_numerators.items()))) per context
LAMBDA_PINS = [
    (make_ctx_desk_k2, "b9756f2804693a1d9e6f635f4c23bddd77252959f69525b38378f50120259a3b"),
    (make_ctx_desk_k3, "ba80afdc70f8c77ccb4f16c4c3cc6fd9da5ee81d261d64545d78191c20f08f18"),
    (lambda: make_ctx_k2(W=6), "5a38cc8837dce458612335e9a53150aca546497065884be8ae4ce69947329e7c"),
]


@pytest.mark.parametrize("ctx_maker, digest", LAMBDA_PINS, ids=["desk-k2", "desk-k3", "k2-W6"])
def test_lambda_is_pinned_and_y_is_F_at_the_surrogate_logs(ctx_maker, digest):
    ctx = ctx_maker()
    table = repr((ctx._lambda_den, sorted(ctx._lambda_numerators.items())))
    assert hashlib.sha256(table.encode()).hexdigest() == digest
    for r in ctx.supported_tuples():
        assert ctx.y_table_value(r) == ctx.F.poly.eval([ctx.surrogate_log(v) for v in r]), r


@pytest.mark.parametrize("ctx_maker", [make_ctx_k1, make_ctx_k2])
def test_roundtrip_recovers_y_exactly(ctx_maker):
    ctx = ctx_maker()
    for r in ctx.supported_tuples():
        assert y_from_lambda(ctx, r) == ctx.y_table_value(r)
    assert y_from_lambda(ctx, (ctx.R + 1,) + (1,) * (ctx.k - 1)) == 0


def test_roundtrip_tracks_the_true_function_values():
    ctx = make_ctx_k2()
    bound = ctx.y_error_bound()
    with mpmath.workdps(60):
        lnR = mpmath.log(ctx.R)
        for r in ctx.supported_tuples():
            recovered = y_from_lambda(ctx, r)
            point = [Fraction(ctx.surrogate_log(ri)) for ri in r]
            # replace the surrogate ratios by 60-digit true ratios
            true_val = float(ctx.F.poly.eval(point))  # same polynomial ...
            exact_pt = [mpmath.log(ri) / lnR for ri in r]
            f = ctx.F.poly
            acc = mpmath.mpf(0)
            for exps, c in f.terms.items():
                term = mpmath.mpf(c.numerator) / c.denominator
                for e, x in zip(exps, exact_pt):
                    term *= x ** e
                acc += term
            err = abs(mpmath.mpf(recovered.numerator) / recovered.denominator - acc)
            assert err <= mpmath.mpf(bound.numerator) / bound.denominator
            assert abs(float(recovered) - true_val) < 1e-12  # sanity on the float path


# ---------------------------------------------------------------------------
# assembled weights and counting sums
# ---------------------------------------------------------------------------


def brute_force_weight(ctx: SieveContext, n: int) -> Fraction:
    total = Fraction(0)
    values = [n + h for h in ctx.shifts]

    def rec(i: int, d: tuple[int, ...]):
        nonlocal total
        if i == ctx.k:
            total += lambda_weight(ctx, d)
            return
        for div in range(1, ctx.R):
            if values[i] % div == 0:
                rec(i + 1, d + (div,))

    rec(0, ())
    return total * total


def test_weight_matches_brute_force_window():
    ctx = make_ctx_k1()
    for n in range(101, 140):
        w = weight_w(ctx, n)
        assert w == brute_force_weight(ctx, n)
        assert w >= 0


def test_weight_on_twin_prime_pair_is_lambda_one_squared():
    ctx = make_ctx_k2()
    # 1031 and 1033 are both prime and exceed R=30: only d=(1,1) survives
    assert weight_w(ctx, 1031) == lambda_weight(ctx, (1, 1)) ** 2


def test_s_sums_identities():
    ctx = make_ctx_k1()
    sums = s_sums(ctx, rho=1)
    assert sums.n_scanned == 101                       # every n in [101, 202) with W=1
    assert sums.S0 > 0
    assert len(sums.S1) == len(sums.S2) == len(sums.parts) == 1
    for m, parts in enumerate(sums.parts):
        assert set(parts) == {"I", "II", "III", "IV"}
        assert sum(parts.values(), Fraction(0)) == sums.S2[m]
    assert sums.S == sum(sums.S2, Fraction(0)) - 1 * sums.S0
    assert sums.Sprime == sum(sums.S2, Fraction(0)) + sum(sums.S1, Fraction(0)) - 1 * sums.S0
    with pytest.raises(ValueError):
        s_sums(ctx, rho=0)


def test_scaling_F_scales_lambda_linearly_and_sums_quadratically():
    base = make_ctx_k1()
    scaled = make_ctx_k1(F=TestFunction(k=1, poly=3 * parse_poly("1 - u1", 1)))
    for d in base.supported_tuples():
        assert lambda_weight(scaled, d) == 3 * lambda_weight(base, d)
    for n in (101, 105, 110):
        assert weight_w(scaled, n) == 9 * weight_w(base, n)
    a, b = s_sums(base, 1), s_sums(scaled, 1)
    assert b.S0 == 9 * a.S0
    assert b.S == 9 * a.S
    assert b.Sprime == 9 * a.Sprime


# ---------------------------------------------------------------------------
# the direct scan against an independent dual form, golden pins, budget
# ---------------------------------------------------------------------------

DESK = dict(theta=Fraction(1), delta=Fraction(149, 2000), eta=Fraction(1, 10))


def desk_ctx(N, shifts, expression, **overrides) -> SieveContext:
    k = len(shifts)
    kwargs = dict(DESK, **overrides)
    return SieveContext(N=N, shifts=shifts, F=TestFunction(k=k, poly=parse_poly(expression, k)),
                        **kwargs)


def crt(congruences):
    """(a, M) with x = a (mod M) exactly when x meets every (b, q); None if none does."""
    a, M = 0, 1
    for b, q in congruences:
        g = math.gcd(M, q)
        if (b - a) % g:
            return None
        t = (b - a) // g * pow(M // g, -1, q // g) % (q // g)
        a, M = (a + M * t) % (M * q // g), M * q // g
    return a, M


def dual_S0(ctx: SieveContext) -> Fraction:
    """sum_{d,e} lambda_d lambda_e #{n in [N, 2N): n = nu0 (W), [d_i, e_i] | n + h_i}."""
    lam = [(t, lambda_weight(ctx, t)) for t in ctx.supported_tuples()]
    lam = [(t, v) for t, v in lam if v]
    total = Fraction(0)
    for d, ld in lam:
        for e, le in lam:
            sol = crt([(ctx.nu0, ctx.W)] + [(-h, math.lcm(di, ei))
                                            for h, di, ei in zip(ctx.shifts, d, e)])
            if sol is not None:
                a, M = sol
                total += ld * le * ((2 * ctx.N - 1 - a) // M - (ctx.N - 1 - a) // M)
    return total


@pytest.mark.parametrize("N, shifts, expression, overrides", [
    (10_000, (0, 2), "(1-u1)*(1-u2)", {}),                                 # W = 2
    (5_000, (0, 2), "(1-u1)*(1-u2)", {"W": 1}),
    (6_000, (0, 2, 6), "(1-u1)*(1-u2)*(1-u3)", {}),                        # k = 3
    (7_000, (0, 4), "1 - u1 + u1*u2/3 - 2*u2**2", {"W": 6}),               # asymmetric F
    (3_000, (0, 2, 8), "1 - u1 - u2/2 + u3**2", {"W": 1}),                 # k = 3, W = 1
], ids=["W2", "W1", "k3", "asymmetric", "k3_W1"])
def test_direct_S0_equals_the_dual_form(N, shifts, expression, overrides):
    ctx = desk_ctx(N, shifts, expression, **overrides)
    assert s_sums(ctx, 1).S0 == dual_S0(ctx)


@pytest.mark.parametrize("N, shifts, expression, rho, overrides, digest", [
    (10_000, (0, 2), "(1-u1)*(1-u2)", 1, {},
     "cb317609b7466eeed84354fb9dccbe470b327005b6b16c6d8e78fd92ef213d4f"),
    (10_000, (0, 2, 6), "(1-u1)*(1-u2)*(1-u3)", 2, {},
     "0ed49ed825065c487170a9eb60149c23b7650247fd86a3634cea7597aaf5e6e6"),
    (10_000, (0, 2), "(1-u1)*(1-u2)", 1, {"W": 1},
     "9bbb05ac13ab9b12ee399c77b18f20abd8d8695b5f4b5b1392318b3f09e6f978"),
], ids=["desk_k2", "desk_k3", "desk_k2_W1"])
def test_s_sums_repr_is_pinned(N, shifts, expression, rho, overrides, digest):
    sums = s_sums(desk_ctx(N, shifts, expression, **overrides), rho)
    assert hashlib.sha256(repr(sums).encode()).hexdigest() == digest


def test_s_sums_over_the_table_budget_raises_before_allocating():
    # 2N + max h = 4,000,002 entries, just over the factor table's budget;
    # theta = 1/5 keeps R = 4, so the context itself is small
    ctx = desk_ctx(2_000_000, (0, 2), "(1-u1)*(1-u2)", theta=Fraction(1, 5),
                   delta=Fraction(0), eta=Fraction(1, 100))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(ValueError, match="budget"):
            s_sums(ctx, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 2 ** 20


# ---------------------------------------------------------------------------
# the progression scan against the kernel-grouped trie walk, and at scale
# ---------------------------------------------------------------------------


@st.composite
def weight_systems(draw):
    """A small desk context: k = 1..3, W default, 1 or 6, a random F of degree <= 2."""
    k = draw(st.integers(1, 3))
    offset = draw(st.integers(0, 1))  # one parity, so the default W = 2 is admissible
    halves = draw(st.sets(st.integers(0, 6), min_size=k, max_size=k))
    shifts = sorted(2 * x + offset for x in halves)
    W = draw(st.sampled_from([None, 1, 6]))
    assume(W != 6 or len({h % 3 for h in shifts}) < 3)
    exponent = st.tuples(*([st.integers(0, 2)] * k))
    coefficient = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    F = TestFunction(k=k, poly=SymPoly(k, draw(st.dictionaries(exponent, coefficient, max_size=4))))
    return SieveContext(N=draw(st.integers(100, 3000)), shifts=shifts, F=F, W=W, **DESK)


@given(ctx=weight_systems(), rho=st.integers(1, 3),
       block=st.one_of(st.just(sieveweights._BLOCK), st.integers(5, 300)))
@settings(max_examples=40, deadline=None)
def test_s_sums_equals_the_kernel_grouped_trie_walk(ctx, rho, block):
    with mock.patch.object(sieveweights, "_BLOCK", block):  # small blocks cross many boundaries
        assert repr(s_sums(ctx, rho)) == repr(trie_s_sums(ctx, rho))


def test_s_sums_over_several_blocks_equals_the_trie_walk():
    ctx = desk_ctx(70_000, (0, 2), "(1-u1)*(1-u2)", W=1)
    sums = s_sums(ctx, 1)
    assert sums.n_scanned > 4 * sieveweights._BLOCK
    assert repr(sums) == repr(trie_s_sums(ctx, 1))


SCALE_GUARD = """
import hashlib
from fractions import Fraction
from e2sieve import SieveContext, TestFunction, parse_poly, s_sums
F = TestFunction(k=2, poly=parse_poly("(1-u1)*(1-u2)", 2))
ctx = SieveContext(N=10**6, shifts=(0, 2), F=F, theta=Fraction(1), delta=Fraction(149, 2000),
                   eta=Fraction(1, 10))
print(hashlib.sha256(repr(s_sums(ctx, 1)).encode()).hexdigest())
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from procfs")
def test_s_sums_at_a_million_keeps_its_digest_and_a_bounded_peak():
    # 80 MiB lies between the block scan's peak here (about 47 MiB) and the 136 MiB of
    # grouping the window by kernel tuples.  The child reports VmHWM, the peak RSS of its
    # own address space: its ru_maxrss would carry over the high-water mark of the
    # process that spawned it.
    run = run_with_src(["-c", SCALE_GUARD])
    assert run.returncode == 0, run.stderr
    digest, peak_kib = run.stdout.split()
    assert digest == "c5fa3f4102155e2665ef21adfbb609b98edf068775141266be6f4e3d691794c9"
    assert int(peak_kib) < 80 * 1024
