"""Desk-scale number theory: sieves, semiprime counts, admissible shift sets.

Conventions (kept exactly as in the analytic setup this package models):

* beta(n) = 1 iff n = p1 * p2 with Y < p1 <= sqrt(N) < p2, where
  Y = floor(N^eta).  The comparisons are exact integer comparisons
  (p1^2 <= N, p2^2 > N, p1 > Y), so no floating point enters the counts.
* The flat prime counts run over [N, 2N); the beta counts run over (N, 2N].
  The asymmetry is deliberate and matched by the tests.
* E2 numbers are products of two *distinct* primes (4, 9, 25, ... excluded);
  P2 = primes union E2.

Bulk questions take primality from one prime sieve, `_prime_mask` (the
sequences, the gap and tuple scans), and factorisation from one factor
table, `factor_table` (beta numbers, BV moduli, `sieveweights`), both under
one 4*10^6-entry budget that raises ValueError before allocating.  Both
strike the even entries once, then odd multiples of odd primes only.  The
mask seeds itself, and `primes_up_to`, read off it, gives `factor_table` its
base primes.  The trial-division oracles that the tests compare these against
(a single-value beta and Euler's phi) live in the tests' conftest.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .algebra import BudgetExceeded, as_rational

# ---------------------------------------------------------------------------
# Basic sieves and integer helpers
# ---------------------------------------------------------------------------


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, read off the prime sieve _prime_mask(limit + 1) and under its budget."""
    return primes_in_range(2, limit + 1).tolist()


def primes_in_range(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi) as an int64 array, read off the prime sieve _prime_mask(hi)."""
    lo = max(lo, 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(_prime_mask(hi)[lo:]) + lo


_FACTOR_TABLE_BUDGET = 4_000_000


def _check_table_budget(limit: int) -> None:
    if limit > _FACTOR_TABLE_BUDGET:
        raise ValueError(f"factor table of {limit} entries exceeds the budget of {_FACTOR_TABLE_BUDGET}")


def _prime_mask(limit: int) -> np.ndarray:
    """Bool mask over [0, limit): which v are prime, under factor_table's budget.

    One strike clears the even v > 2; each odd p <= sqrt(limit - 1) still unstruck, so prime,
    then strikes only p*p, p*p + 2p, ...
    """
    _check_table_budget(limit)
    prime = np.ones(limit, dtype=bool)
    prime[:2] = False
    prime[4::2] = False
    for p in range(3, math.isqrt(max(limit - 1, 0)) + 1, 2):
        if prime[p]:
            prime[p * p:: 2 * p] = False
    return prime


def factor_table(limit: int) -> np.ndarray:
    """Smallest prime factor of every v in [0, limit) as a flat int32 array.

    spf[v] == v exactly when v is prime (spf[0] = 0, spf[1] = 1), so any
    v < limit factors by repeated lookup, and so does every cofactor v // p.
    Raises ValueError above _FACTOR_TABLE_BUDGET entries, before allocating.
    An odd prime p writes only p*p, p*p + 2p, ...; the even v >= 4 get 2 last.
    """
    _check_table_budget(limit)
    spf = np.arange(limit, dtype=np.int32)
    # largest prime first, so the smallest prime factor is written last
    for p in reversed(primes_up_to(math.isqrt(max(limit - 1, 0)))[1:]):
        spf[p * p:: 2 * p] = p
    spf[4::2] = 2
    return spf


def _prime_factors(spf: np.ndarray, v: int) -> list[int]:
    """Prime factors of v (with multiplicity, ascending) by table lookup."""
    out = []
    while v > 1:
        p = int(spf[v])
        out.append(p)
        v //= p
    return out


def beta_mask(spf: np.ndarray, values: np.ndarray, N: int, Y: int) -> np.ndarray:
    """beta(v) for each v of `values` (all below len(spf)), read off the table.

    v = p1 * m with p1 its least prime factor; m must be prime with m^2 > N,
    which also forces m > p1 >= 2 once p1^2 <= N.
    """
    p1 = spf[values].astype(np.int64)
    m = values // p1
    return (p1 > Y) & (p1 * p1 <= N) & (m * m > N) & (spf[m] == m)


def is_squarefree(n: int) -> bool:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 4 == 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        while n % d == 0:
            n //= d
        d += 1
    return True


def _integer_nth_root(x: int, n: int) -> int:
    """floor(x^(1/n)) for x >= 0, n >= 1, exactly."""
    if x < 0 or n < 1:
        raise ValueError("need x >= 0, n >= 1")
    if x in (0, 1) or n == 1:
        return x
    if n >= x.bit_length():
        return 1  # 2^n > x >= 2 implies the root is below 2
    r = 1 << -(-x.bit_length() // n)  # upper-ish start
    while True:
        nr = ((n - 1) * r + x // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r ** n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


_POWER_BIT_BUDGET = 4_000_000


def floor_rational_power(N: int, exponent: Fraction) -> int:
    """floor(N^exponent) computed exactly for rational exponent >= 0."""
    exponent = as_rational(exponent)
    if N < 1:
        raise ValueError("N must be >= 1")
    if exponent < 0:
        raise ValueError("exponent must be >= 0")
    if exponent == 0:
        return 1
    a, b = exponent.numerator, exponent.denominator
    if a * N.bit_length() > _POWER_BIT_BUDGET:
        raise ValueError("floor_rational_power: N^exponent numerator too large")
    return _integer_nth_root(N ** a, b)


# ---------------------------------------------------------------------------
# Beta numbers in a window
# ---------------------------------------------------------------------------


def _beta_numbers(N: int, eta: Fraction) -> np.ndarray:
    """All n in (N, 2N] with beta(n) = 1 as an int64 array, read off one factor table."""
    spf = factor_table(2 * N + 1)
    values = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    return values[beta_mask(spf, values, N, floor_rational_power(N, as_rational(eta)))]


# ---------------------------------------------------------------------------
# E2 / P2 sequences
# ---------------------------------------------------------------------------


UNIVERSES = ("E2", "P2", "primes")


def _members(universe: str, limit: int) -> np.ndarray:
    """Bool mask over [0, limit]: which v lie in the universe.

    The primes come from the prime sieve _prime_mask(limit + 1).  E2 is
    copied off it by strides: for each prime p <= sqrt(limit), one slice copy
    sets e2[p * q] = prime[q] for the odd q with p < q <= limit // p.  A
    composite q writes False, as p * q then has three prime factors, and an
    E2 number p * q with p < q is written from p alone.
    """
    if universe not in UNIVERSES:
        raise ValueError(f"universe must be one of {UNIVERSES}")
    prime = _prime_mask(limit + 1)
    if universe == "primes":
        return prime
    e2 = np.zeros(limit + 1, dtype=bool)
    for p in primes_up_to(math.isqrt(limit)):
        lo, hi = (p + 1) | 1, limit // p   # lo: the least odd q > p
        e2[p * lo: p * hi + 1: 2 * p] = prime[lo: hi + 1: 2]
    if universe == "P2":
        e2 |= prime
    return e2


def e2_sequence(limit: int) -> list[int]:
    """All products of two distinct primes up to limit, ascending."""
    return np.flatnonzero(_members("E2", limit)).tolist()


def p2_sequence(limit: int) -> list[int]:
    """Primes and E2 numbers up to limit, ascending."""
    return np.flatnonzero(_members("P2", limit)).tolist()


# ---------------------------------------------------------------------------
# Admissible shift sets
# ---------------------------------------------------------------------------


def is_admissible(shifts: Iterable[int]) -> tuple[bool, dict]:
    """Check that the shifts avoid a full residue system mod every prime <= k.

    Returns (True, {p: free_residue}) with a witness residue per prime, or
    (False, {"covering_prime": p}) for the first prime whose classes are all
    occupied.  Primes p > k can never be covered by k shifts.
    """
    hs = sorted(set(int(h) for h in shifts))
    if len(hs) == 0:
        raise ValueError("shift set must be nonempty")
    if any(h < 0 for h in hs):
        raise ValueError("shifts must be non-negative")
    certificate: dict[int, int] = {}
    for p in primes_up_to(len(hs)):
        taken = {h % p for h in hs}
        if len(taken) == p:
            return False, {"covering_prime": p}
        certificate[p] = min(r for r in range(p) if r not in taken)
    return True, certificate


@dataclass(frozen=True)
class AdmissibleSet:
    """A sorted admissible tuple of distinct non-negative shifts."""

    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(int(h) for h in self.elements))
        if len(set(elems)) != len(elems):
            raise ValueError("shifts must be distinct")
        object.__setattr__(self, "elements", elems)
        ok, cert = is_admissible(elems)
        if not ok:
            raise ValueError(f"shift set is not admissible: {cert}")

    @property
    def k(self) -> int:
        return len(self.elements)

    @property
    def diameter(self) -> int:
        return self.elements[-1] - self.elements[0]


def gen_admissible(k: int) -> AdmissibleSet:
    """The k primes just above k, shifted to start at 0.

    Standard construction: p_{pi(k)+1}, ..., p_{pi(k)+k} avoid every prime
    p <= k automatically (none of them is divisible by such p, so residue 0
    is free).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    bound = max(2 * k, 16)
    while True:
        ps = primes_up_to(bound)
        skip = sum(1 for p in ps if p <= k)
        if len(ps) >= skip + k:
            chosen = ps[skip:skip + k]
            break
        bound *= 2
    first = chosen[0]
    return AdmissibleSet(tuple(h - first for h in chosen))


# ---------------------------------------------------------------------------
# Gap scans and tuple hit counts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapReport:
    """Minimum rho-step gap in a sequence up to `limit`, with a witness."""

    universe: str
    limit: int
    rho: int
    min_gap: int
    argmin: tuple[int, ...]          # the rho+1 consecutive members realizing it
    histogram: dict[int, int] = field(repr=False)
    scanned: int


def gap_scan(limit: int, rho: int, universe: str) -> GapReport:
    """Scan q_{n+rho} - q_n over the chosen sequence up to limit."""
    if limit < 100:
        raise ValueError("limit must be >= 100")
    if rho < 1:
        raise ValueError("rho must be >= 1")
    seq = np.flatnonzero(_members(universe, limit))
    if len(seq) <= rho:
        raise ValueError("sequence too short for this rho")
    gaps = seq[rho:] - seq[:-rho]
    i0 = int(gaps.argmin())
    min_gap = int(gaps[i0])
    counts = np.bincount(np.subtract(gaps, min_gap, out=gaps))   # spans max - min gap only
    values = np.flatnonzero(counts)
    return GapReport(
        universe=universe,
        limit=limit,
        rho=rho,
        min_gap=min_gap,
        argmin=tuple(seq[i0:i0 + rho + 1].tolist()),
        histogram=dict(zip((values + min_gap).tolist(), counts[values].tolist())),
        scanned=len(gaps),
    )


@dataclass(frozen=True)
class TupleHitReport:
    shifts: tuple[int, ...]
    universe: str
    limit: int
    threshold: int
    count: int
    witnesses: tuple[int, ...]  # first 10 qualifying n


def tuple_hit_count(shifts: Sequence[int], limit: int, universe: str, threshold: int) -> TupleHitReport:
    """Count n <= limit for which at least `threshold` of n + h_i land in the universe."""
    hs = tuple(sorted(set(int(h) for h in shifts)))
    if not hs:
        raise ValueError("shift set must be nonempty")
    if hs[0] < 0:
        raise ValueError("shifts must be non-negative")
    if limit < 0:
        raise ValueError("limit must be >= 0")
    if not 0 <= threshold <= len(hs):
        raise ValueError("threshold must be between 0 and |shifts|")
    if universe not in ("E2", "P2"):
        raise ValueError("universe must be 'E2' or 'P2' for tuple hits")
    dtype = np.min_scalar_type(len(hs))  # holds every count without a wider temporary
    members = _members(universe, limit + hs[-1])
    hits = np.zeros(limit, dtype=dtype)  # hits[i] counts n = i + 1
    for h in hs:
        hits += members[1 + h: limit + 1 + h]
    qualifying = hits >= threshold
    count = int(np.count_nonzero(qualifying))
    witnesses = [int(i) + 1 for i in np.flatnonzero(qualifying)[:10]]
    return TupleHitReport(
        shifts=hs,
        universe=universe,
        limit=limit,
        threshold=threshold,
        count=count,
        witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# Distribution-in-progressions table
# ---------------------------------------------------------------------------

# Most moduli q <= floor(N^theta) that bv_table takes.  An odd q and 2q share a residue
# pass over the values: 2*10^4 moduli at N = 2*10^4, theta = 1 take about 0.7 s, with a
# 1,521-digit weighted-sum denominator (5*10^4 took 5.7 s and 3,720 digits before q and
# 2q shared a pass; 10^5 pass Python's 4,300-digit str() limit).
_BV_MODULI = 20_000
# Most moduli times values that bv_table takes, counted before it sieves as
# floor(N^theta) * N, N bounding the primes in [N, 2N) or the beta numbers in
# (N, 2N].  A residue pass costs one step a value, so this bounds the time: at
# 10^9, N = 10^6 and theta = 1/2 take 0.3 s for beta numbers, and N = 5*10^4 at
# theta = 32/35 (19,778 moduli) 0.9 s, where N = 1,999,999 at theta = 2/3
# (3.2*10^10) takes 10 s (2-CPU Xeon, Python 3.11.7).
_BV_WORK = 10 ** 9


@dataclass(frozen=True)
class BVTable:
    """Exact discrepancy table over squarefree moduli q <= floor(N^theta).

    For the prime universe the reference count is the number of primes in
    [N, 2N) over phi(q); for the beta universe it is the count of beta numbers
    in (N, 2N] coprime to q over phi(q).  The weighted sum aggregates
    mu^2(q) * max_(a,q)=1 |discrepancy|.
    """

    N: int
    theta: Fraction
    eta: Fraction | None
    universe: str
    rows: dict[int, Fraction] = field(repr=False)
    weighted_sum: Fraction


def bv_table(N: int, eta: Fraction | None, theta: Fraction, universe: str) -> BVTable:
    """Discrepancy diagnostics for primes or beta numbers in progressions.

    When 2q <= qmax, one residue pass mod 2q gives the rows of 2q and, folded, of q.
    """
    theta = as_rational(theta)
    if universe not in ("primes", "beta"):
        raise ValueError("universe must be 'primes' or 'beta'")
    if not 0 < theta <= 1:
        raise ValueError("theta must satisfy 0 < theta <= 1")
    if universe == "beta" and eta is None:
        raise ValueError("beta universe needs eta")
    qmax = floor_rational_power(N, theta)
    if qmax > _BV_MODULI:
        raise BudgetExceeded(f"{qmax} moduli q <= N^theta exceed the budget of {_BV_MODULI}")
    # the table budget of the sieve below goes first: no theta brings such an N within budget
    _check_table_budget(2 * N + 1 if universe == "beta" else 2 * N)
    if qmax * N > _BV_WORK:
        raise BudgetExceeded(f"{qmax} moduli q <= N^theta times N = {N} exceed the budget "
                             f"of {_BV_WORK}")
    if universe == "beta":
        eta = as_rational(eta)
        values = _beta_numbers(N, eta)
    else:
        values = primes_in_range(N, 2 * N)
    spf = factor_table(qmax + 1)
    residues = values.astype(np.int32)   # below the table budget, so exact; % q runs faster than on int64
    rows: dict[int, Fraction] = {}
    for q in range(1, qmax + 1, 2):   # every even squarefree q is 2 * (odd q)
        primes = _prime_factors(spf, q)
        if len(set(primes)) < len(primes):
            continue  # mu^2(q) = 0
        moduli = [(2 * q, [2] + primes), (q, primes)] if 2 * q <= qmax else [(q, primes)]
        counts = np.bincount(residues % moduli[0][0], minlength=moduli[0][0])
        for m, ps in moduli:
            if len(counts) > m:   # fold the counts mod 2q onto q: one residue pass for both
                counts = counts[:m] + counts[m:]
            coprime = np.ones(m, dtype=bool)
            for p in ps:
                coprime[::p] = False
            c = counts[coprime]
            phi = math.prod(p - 1 for p in ps)
            total = int(c.sum()) if universe == "beta" else len(values)
            # |c - total/phi| is largest at the least or the greatest count c
            rows[m] = Fraction(max(abs(int(c.min()) * phi - total), abs(int(c.max()) * phi - total)), phi)
    # the weighted sum of mu^2(q) * rows[q]; mu^2(q) = 1 on every q kept
    return BVTable(N=N, theta=theta, eta=eta, universe=universe, rows=dict(sorted(rows.items())),
                   weighted_sum=sum(rows.values(), Fraction(0)))
