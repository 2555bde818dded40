"""Primes, two-prime-factor sequences, admissibility, scans, distribution tables."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cofactor_members
from e2sieve.numth import (
    _FACTOR_TABLE_BUDGET,
    UNIVERSES,
    _members,
    AdmissibleSet,
    beta,
    beta_mask,
    bv_table,
    e2_sequence,
    euler_phi,
    factor_table,
    floor_rational_power,
    gap_scan,
    gen_admissible,
    is_admissible,
    is_squarefree,
    p2_sequence,
    pi_beta,
    pi_flat,
    primes_in_range,
    primes_up_to,
    tuple_hit_count,
)


def test_primes_up_to_basics():
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_up_to(1) == []
    assert len(primes_up_to(10 ** 6)) == 78498


def test_primes_in_range_matches_plain_sieve():
    full = primes_up_to(5000)
    for lo, hi in [(0, 100), (100, 1000), (997, 998), (4000, 5001), (1, 2)]:
        expected = [p for p in full if lo <= p < hi]
        assert primes_in_range(lo, hi) == expected


def test_squarefree_and_phi():
    assert [n for n in range(1, 20) if is_squarefree(n)] == \
        [1, 2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19]
    assert euler_phi(1) == 1
    assert euler_phi(12) == 4
    assert euler_phi(97) == 96
    # multiplicativity on a coprime pair
    assert euler_phi(35) == euler_phi(5) * euler_phi(7)


def test_floor_rational_power():
    assert floor_rational_power(10, Fraction(1, 2)) == 3
    assert floor_rational_power(49, Fraction(1, 2)) == 7     # exact square
    assert floor_rational_power(1024, Fraction(3, 10)) == 8  # 2^10 -> 2^3
    assert floor_rational_power(101, Fraction(999, 2000)) == 10
    assert floor_rational_power(10 ** 10, Fraction(1, 10)) == 10


@given(st.integers(2, 10 ** 6), st.integers(1, 5), st.integers(2, 6))
@settings(max_examples=60)
def test_floor_rational_power_is_the_true_floor(N, num, den):
    exponent = Fraction(num, den)
    if exponent > 1:
        exponent = 1 / exponent
    r = floor_rational_power(N, exponent)
    # r <= N^exponent < r+1   <=>   r^den <= N^num < (r+1)^den
    assert r ** exponent.denominator <= N ** exponent.numerator
    assert (r + 1) ** exponent.denominator > N ** exponent.numerator


def test_pi_flat_counts_the_dyadic_window():
    assert pi_flat(10) == 4                 # 11, 13, 17, 19
    rows = bv_table(10, None, Fraction(1), "primes").rows
    assert rows[3] == 0                     # 13, 19 = 1 and 11, 17 = 2 (mod 3)
    assert rows[7] == Fraction(2, 3)        # one prime in each of 3, 4, 5, 6 (mod 7)


# ---------------------------------------------------------------------------
# the restricted two-factor indicator
# ---------------------------------------------------------------------------


def test_beta_examples():
    eta = Fraction(1, 10)
    assert beta(202, 200, eta) == 1         # 2 * 101 with 1 < 2 <= sqrt(200) < 101
    assert beta(6, 200, eta) == 0           # below the window
    assert beta(209, 200, eta) == 1         # 11 * 19, 121 <= 200 < 361
    assert beta(211, 200, eta) == 0         # prime
    assert beta(225, 200, eta) == 0         # 15^2: p1 = p2 not allowed by the size split
    assert pi_beta(200, eta) == 60


def test_beta_matches_trial_division_oracle():
    N, eta = 3000, Fraction(1, 10)
    Y = floor_rational_power(N, eta)
    flagged = 0
    for n in range(N + 1, 2 * N + 1):
        # oracle: factor n as p1 * p2 and check the integer inequalities
        hits = 0
        for p in primes_up_to(int(math.isqrt(n)) + 1):
            if n % p == 0:
                q = n // p
                ok = (q != p and all(q % r for r in primes_up_to(int(math.isqrt(q)) + 1) if r < q)
                      and p > Y and p * p <= N and q * q > N)
                hits = 1 if ok else 0
                break
        assert beta(n, N, eta) == hits, n
        flagged += hits
    assert flagged == pi_beta(N, eta)


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


def test_e2_sequence_prefix():
    assert e2_sequence(40) == [6, 10, 14, 15, 21, 22, 26, 33, 34, 35, 38, 39]
    assert 4 not in e2_sequence(100)      # 2^2 is excluded
    assert 12 not in e2_sequence(100)     # three prime factors with multiplicity
    assert 49 not in e2_sequence(100)     # 7^2 is excluded


def _prime_pairs(limit):
    """Products p * q <= limit of two distinct primes, by a double loop."""
    primes = primes_up_to(limit // 2)
    return sorted(p * q for i, p in enumerate(primes) for q in primes[i + 1:] if p * q <= limit)


def test_e2_sequence_matches_prime_pair_oracle():
    for limit in [*range(61), 20_000]:   # every small limit covers the v = 0, 1 edges
        assert e2_sequence(limit) == _prime_pairs(limit), limit


def test_p2_sequence_is_the_union():
    limit = 20_000
    expected = sorted(set(primes_up_to(limit)) | set(e2_sequence(limit)))
    assert p2_sequence(limit) == expected
    assert p2_sequence(40)[:10] == [2, 3, 5, 6, 7, 10, 11, 13, 14, 15]
    for limit in range(61):
        assert p2_sequence(limit) == sorted(primes_up_to(limit) + _prime_pairs(limit)), limit


def _member_limits():
    """Every limit to 300, random ones to 2*10^5, p^2 and p*q and one below, and +max H."""
    rng = random.Random(20261018)
    primes = primes_up_to(320)
    limits = set(range(301)) | {rng.randrange(2 * 10 ** 5) for _ in range(16)}
    for p, q in zip(primes, primes[1:]):
        for v in (p * p, p * q):
            limits |= {v - 1, v}
    limits |= {v + 12 for v in list(limits)}   # a hit scan's table reaches limit + max H
    return sorted(limits)


@pytest.mark.parametrize("universe", UNIVERSES)
def test_members_equal_the_cofactor_oracle(universe):
    for limit in _member_limits():
        got, want = _members(universe, limit), cofactor_members(universe, limit)
        assert got.dtype == want.dtype and got.shape == want.shape, (universe, limit)
        assert np.array_equal(got, want), (universe, limit)


def test_members_peak_memory_at_a_million():
    # table 4 bytes, index 4 bytes and mask 1 byte a value while the primes
    # are read off; the cofactor version peaked at 14.3 MiB
    tracemalloc.start()
    try:
        _members("E2", 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_is_admissible_verdicts():
    ok, cert = is_admissible([0, 2, 6])
    assert ok
    # certificate: for each prime p <= k, a residue class mod p avoided by H
    for p, free in cert.items():
        assert all(h % p != free for h in [0, 2, 6])
    ok, cert = is_admissible([0, 2, 4])
    assert not ok and cert["covering_prime"] == 3
    assert {h % 3 for h in [0, 2, 4]} == {0, 1, 2}
    assert is_admissible([0, 2, 6, 8, 12])[0]
    assert is_admissible([0, 4, 6, 10, 12, 16])[0]


def test_admissible_set_normalizes_and_validates():
    s = AdmissibleSet((6, 0, 2))
    assert s.elements == (0, 2, 6)
    assert s.k == 3 and s.diameter == 6
    with pytest.raises(ValueError):
        AdmissibleSet((0, 2, 2))
    with pytest.raises(ValueError):
        AdmissibleSet((0, -2, 6))
    with pytest.raises(ValueError):
        AdmissibleSet((0, 2, 4))


def test_gen_admissible():
    assert gen_admissible(1).elements == (0,)
    assert gen_admissible(5).elements == (0, 4, 6, 10, 12)
    for k in range(1, 201):
        s = gen_admissible(k)   # AdmissibleSet re-checks admissibility on build
        assert s.k == k


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_gap_scan_witnesses():
    r1 = gap_scan(1000, 1, "E2")
    assert (r1.min_gap, r1.argmin) == (1, (14, 15))
    r2 = gap_scan(1000, 2, "E2")
    assert (r2.min_gap, r2.argmin) == (2, (33, 34, 35))
    rp = gap_scan(1000, 1, "primes")
    assert (rp.min_gap, rp.argmin) == (1, (2, 3))
    assert sum(r1.histogram.values()) == r1.scanned  # one histogram entry per index
    with pytest.raises(ValueError):
        gap_scan(1000, 1, "martians")


@pytest.mark.parametrize("rho", [1, 2, 3])
@pytest.mark.parametrize("universe", UNIVERSES)
def test_gap_scan_matches_a_plain_loop(universe, rho):
    limit = 5000
    primes = primes_up_to(limit)
    seq = {"E2": _prime_pairs(limit), "P2": sorted(primes + _prime_pairs(limit)),
           "primes": primes}[universe]
    gaps = [seq[i + rho] - seq[i] for i in range(len(seq) - rho)]
    histogram: dict[int, int] = {}
    for g in gaps:
        histogram[g] = histogram.get(g, 0) + 1
    i0 = gaps.index(min(gaps))
    rep = gap_scan(limit, rho, universe)
    assert (rep.min_gap, rep.argmin, rep.scanned) == (gaps[i0], tuple(seq[i0:i0 + rho + 1]), len(gaps))
    assert rep.histogram == histogram


def test_tuple_hit_count():
    rep = tuple_hit_count((0, 2, 6), 100, "P2", 3)
    assert 5 in rep.witnesses          # 5, 7, 11 all prime
    assert rep.count >= 1
    zero = tuple_hit_count((0, 2), 50, "E2", 0)
    assert zero.count == 50            # threshold 0 is satisfied vacuously
    with pytest.raises(ValueError):
        tuple_hit_count((0, 2), 100, "P2", 3)   # threshold > |H|
    with pytest.raises(ValueError):
        tuple_hit_count((0, 2), 100, "primes", 1)  # universe not supported here


def test_tuple_hit_count_matches_a_brute_loop():
    rng = random.Random(20161)
    limit = 3000
    members = {"E2": set(e2_sequence(limit + 40)), "P2": set(p2_sequence(limit + 40))}
    cases = 0
    while cases < 6:
        k = rng.randint(1, 4)
        shifts = tuple(sorted(rng.sample(range(0, 41, 2), k)))
        if not is_admissible(shifts)[0]:
            continue
        cases += 1
        for universe, members_u in members.items():
            hits = [sum(n + h in members_u for h in shifts) for n in range(1, limit + 1)]
            for threshold in range(k + 1):
                rep = tuple_hit_count(shifts, limit, universe, threshold)
                qualifying = [n for n, c in zip(range(1, limit + 1), hits) if c >= threshold]
                assert rep.count == len(qualifying)
                assert rep.witnesses == tuple(qualifying[:10])


# ---------------------------------------------------------------------------
# the shared factor table
# ---------------------------------------------------------------------------


def test_factor_table_matches_primes_and_beta_on_a_window():
    N, eta = 2500, Fraction(1, 10)
    lo, hi = N, 2 * N + 7
    spf = factor_table(hi)
    assert len(spf) == hi and spf.dtype == np.int32
    window_primes = set(primes_in_range(lo, hi))
    base = primes_up_to(hi)
    for v in range(lo, hi):
        p = int(spf[v])
        assert (p == v) == (v in window_primes), v
        assert p in base and v % p == 0, v                            # a prime factor
        assert all(v % q for q in base if q < p), v                   # ... the least one
    values = np.arange(lo, hi, dtype=np.int64)
    flags = beta_mask(spf, values, N, floor_rational_power(N, eta))
    assert flags.tolist() == [bool(beta(v, N, eta)) for v in range(lo, hi)]
    assert factor_table(0).tolist() == [] and factor_table(3).tolist() == [0, 1, 2]


def test_factor_table_budget():
    with pytest.raises(ValueError, match="budget"):
        factor_table(_FACTOR_TABLE_BUDGET + 1)
    with pytest.raises(ValueError, match="budget"):
        pi_beta(_FACTOR_TABLE_BUDGET // 2, Fraction(1, 10))   # 2N + 1 entries


def test_bv_table_primes():
    table = bv_table(1000, None, Fraction(1, 3), "primes")
    assert sorted(table.rows) == [1, 2, 3, 5, 6, 7, 10]   # squarefree q <= 10
    assert table.rows[1] == 0
    assert table.rows[2] == 0        # all odd primes in (N, 2N] are 1 mod 2
    assert all(v >= 0 for v in table.rows.values())
    assert table.weighted_sum >= 0


def test_bv_table_beta():
    table = bv_table(500, Fraction(1, 10), Fraction(1, 4), "beta")
    assert 1 in table.rows and table.rows[1] == 0
    assert all(v >= 0 for v in table.rows.values())


def _assert_raises_before_allocating(call, *args):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="budget"):
            call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def test_scans_over_the_table_budget_raise_before_allocating():
    N = _FACTOR_TABLE_BUDGET // 2 + 1   # a table over [0, 2N)
    _assert_raises_before_allocating(pi_flat, N)
    _assert_raises_before_allocating(bv_table, N, None, Fraction(1, 2), "primes")
    _assert_raises_before_allocating(e2_sequence, _FACTOR_TABLE_BUDGET)   # limit + 1 entries


def _bv_rows_by_brute_count(N, eta, theta, universe):
    if universe == "beta":
        values = [n for n in range(N + 1, 2 * N + 1) if beta(n, N, eta)]
    else:
        values = [p for p in primes_up_to(2 * N - 1) if p >= N]
    rows = {}
    for q in range(1, floor_rational_power(N, theta) + 1):
        if not is_squarefree(q):
            continue
        counts = [0] * q
        for v in values:
            counts[v % q] += 1
        coprime = [counts[a] for a in range(q) if math.gcd(a, q) == 1]
        reference = Fraction(sum(coprime) if universe == "beta" else len(values), euler_phi(q))
        rows[q] = max(abs(c - reference) for c in coprime)
    return rows


@pytest.mark.parametrize("N, theta, universe, eta", [
    (1000, Fraction(1, 2), "primes", None),
    (3000, Fraction(1, 3), "primes", None),
    (2000, Fraction(2, 3), "primes", None),
    (1000, Fraction(1, 2), "beta", Fraction(1, 10)),
    (2500, Fraction(1, 3), "beta", Fraction(1, 20)),
    (1500, Fraction(3, 5), "beta", Fraction(1, 10)),
])
def test_bv_table_matches_a_brute_count(N, theta, universe, eta):
    rows = _bv_rows_by_brute_count(N, eta, theta, universe)
    table = bv_table(N, eta, theta, universe)
    assert table.rows == rows
    assert table.weighted_sum == sum(rows.values(), Fraction(0))
