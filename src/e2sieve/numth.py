"""Desk-scale number theory: sieves, semiprime counts, admissible shift sets.

Conventions (kept exactly as in the analytic setup this package models):

* beta(n) = 1 iff n = p1 * p2 with Y < p1 <= sqrt(N) < p2, where
  Y = floor(N^eta).  The comparisons are exact integer comparisons
  (p1^2 <= N, p2^2 > N, p1 > Y), so no floating point enters the counts.
* The flat prime counts run over [N, 2N); the beta counts run over (N, 2N].
  The asymmetry is deliberate and matched by the tests.
* E2 numbers are products of two *distinct* primes (4, 9, 25, ... excluded);
  P2 = primes union E2.

Every bulk question -- is v prime, E2 or beta, what are the prime factors of
q -- is read off one smallest-prime-factor table, `factor_table`, capped at
4*10^6 entries: the sequences, the gap and tuple scans, the beta numbers and
the BV table all raise ValueError before allocating past the cap.  The byte
sieve `primes_up_to` supplies the table's base primes, and together with the
single-value `beta`, `is_squarefree` and `euler_phi` (trial division) it is
the independent oracle the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .algebra import as_rational

# ---------------------------------------------------------------------------
# Basic sieves and integer helpers
# ---------------------------------------------------------------------------


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit by a plain byte sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p:: p] = bytearray(len(sieve[p * p:: p]))
    return [i for i, flag in enumerate(sieve) if flag]


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi), read off factor_table(hi)."""
    lo = max(lo, 2)
    if hi <= lo:
        return []
    spf = factor_table(hi)
    return (np.flatnonzero(spf[lo:] == np.arange(lo, hi, dtype=np.int32)) + lo).tolist()


_FACTOR_TABLE_BUDGET = 4_000_000


def factor_table(limit: int) -> np.ndarray:
    """Smallest prime factor of every v in [0, limit) as a flat int32 array.

    spf[v] == v exactly when v is prime (spf[0] = 0, spf[1] = 1), so any
    v < limit factors by repeated lookup, and so does every cofactor v // p.
    Raises ValueError above _FACTOR_TABLE_BUDGET entries, before allocating.
    """
    if limit > _FACTOR_TABLE_BUDGET:
        raise ValueError(f"factor table of {limit} entries exceeds the budget "
                         f"of {_FACTOR_TABLE_BUDGET}")
    spf = np.arange(limit, dtype=np.int32)
    # largest prime first, so the smallest prime factor is written last
    for p in reversed(primes_up_to(math.isqrt(max(limit - 1, 0)))):
        spf[p * p:: p] = p
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


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("n must be >= 1")
    result = n
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            result -= result // d
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        result -= result // m
    return result


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
# Prime and semiprime counting functions
# ---------------------------------------------------------------------------


def pi_flat(N: int) -> int:
    """Number of primes in [N, 2N)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return len(primes_in_range(N, 2 * N))


def _smallest_prime_factor(n: int, base: Sequence[int]) -> int | None:
    for p in base:
        if p * p > n:
            return None  # n is prime
        if n % p == 0:
            return p
    return None


def beta(n: int, N: int, eta: Fraction) -> int:
    """Indicator that n = p1 p2 with floor(N^eta) < p1 <= sqrt(N) < p2.

    Trial division by the primes up to sqrt(n), for a single n of any size;
    the window counts below read the same predicate off `factor_table`.
    """
    eta = as_rational(eta)
    if n < 2:
        return 0
    Y = floor_rational_power(N, eta)
    base = primes_up_to(math.isqrt(n))
    p1 = _smallest_prime_factor(n, base)
    if p1 is None:
        return 0  # prime
    if not (p1 > Y and p1 * p1 <= N):
        return 0
    m = n // p1
    if m == p1 or m * m <= N:
        return 0
    return 1 if _smallest_prime_factor(m, base) is None else 0


@lru_cache(maxsize=16)
def _beta_numbers(N: int, eta: Fraction) -> tuple[int, ...]:
    """All n in (N, 2N] with beta(n) = 1, read off one factor table."""
    spf = factor_table(2 * N + 1)
    values = np.arange(N + 1, 2 * N + 1, dtype=np.int64)
    flags = beta_mask(spf, values, N, floor_rational_power(N, as_rational(eta)))
    return tuple(values[flags].tolist())


def pi_beta(N: int, eta: Fraction) -> int:
    """sum of beta(n) over N < n <= 2N."""
    return len(_beta_numbers(N, as_rational(eta)))


# ---------------------------------------------------------------------------
# E2 / P2 sequences
# ---------------------------------------------------------------------------


UNIVERSES = ("E2", "P2", "primes")


def _members(universe: str, limit: int) -> np.ndarray:
    """Bool mask over [0, limit]: which v lie in the universe.

    The primes are read off factor_table(limit + 1) (v >= 2 is prime iff
    spf[v] == v), and the table is dropped.  E2 is marked product by
    product: for each prime p <= sqrt(limit), p * q for every prime q with
    p < q <= limit // p.
    """
    if universe not in UNIVERSES:
        raise ValueError(f"universe must be one of {UNIVERSES}")
    spf = factor_table(limit + 1)
    prime = spf == np.arange(limit + 1, dtype=np.int32)
    del spf
    prime[:2] = False
    if universe == "primes":
        return prime
    ps = np.flatnonzero(prime)
    e2 = np.zeros(limit + 1, dtype=bool)
    small = ps[:np.searchsorted(ps, math.isqrt(limit), "right")]
    ends = np.searchsorted(ps, limit // small, "right")   # q <= limit // p
    for i, (p, end) in enumerate(zip(small.tolist(), ends.tolist())):
        e2[p * ps[i + 1:end]] = True
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
    scanned: int = 0

    def to_dict(self) -> dict:
        return {
            "universe": self.universe,
            "limit": self.limit,
            "rho": self.rho,
            "min_gap": self.min_gap,
            "argmin": list(self.argmin),
            "histogram": {str(g): c for g, c in sorted(self.histogram.items())},
            "scanned": self.scanned,
        }


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
    values, counts = np.unique(gaps, return_counts=True)
    return GapReport(
        universe=universe,
        limit=limit,
        rho=rho,
        min_gap=int(gaps[i0]),
        argmin=tuple(seq[i0:i0 + rho + 1].tolist()),
        histogram=dict(zip(values.tolist(), counts.tolist())),
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

    def to_dict(self) -> dict:
        return {
            "shifts": list(self.shifts),
            "universe": self.universe,
            "limit": self.limit,
            "threshold": self.threshold,
            "count": self.count,
            "witnesses": list(self.witnesses),
        }


def tuple_hit_count(shifts: Sequence[int], limit: int, universe: str, threshold: int) -> TupleHitReport:
    """Count n <= limit for which at least `threshold` of n + h_i land in the universe."""
    hs = tuple(sorted(set(int(h) for h in shifts)))
    if not hs:
        raise ValueError("shift set must be nonempty")
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


@dataclass(frozen=True)
class BVTable:
    """Exact discrepancy table over squarefree moduli q <= floor(N^theta).

    For the prime universe the reference count is pi_flat(N)/phi(q); for the
    beta universe it is the count of beta numbers coprime to q over phi(q).  The
    weighted sum aggregates mu^2(q) * max_(a,q)=1 |discrepancy|.
    """

    N: int
    theta: Fraction
    eta: Fraction | None
    universe: str
    rows: dict[int, Fraction] = field(repr=False)
    weighted_sum: Fraction = Fraction(0)

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "theta": str(self.theta),
            "eta": None if self.eta is None else str(self.eta),
            "universe": self.universe,
            "rows": {str(q): str(v) for q, v in sorted(self.rows.items())},
            "weighted_sum": str(self.weighted_sum),
        }


def bv_table(N: int, eta: Fraction | None, theta: Fraction, universe: str) -> BVTable:
    """Discrepancy diagnostics for primes or beta numbers in progressions."""
    theta = as_rational(theta)
    if universe not in ("primes", "beta"):
        raise ValueError("universe must be 'primes' or 'beta'")
    if not 0 < theta <= 1:
        raise ValueError("theta must satisfy 0 < theta <= 1")
    if universe == "beta":
        if eta is None:
            raise ValueError("beta universe needs eta")
        eta = as_rational(eta)
        values = np.array(_beta_numbers(N, eta), dtype=np.int64)
    else:
        values = np.array(primes_in_range(N, 2 * N), dtype=np.int64)
    qmax = floor_rational_power(N, theta)
    spf = factor_table(qmax + 1)
    rows: dict[int, Fraction] = {}
    for q in range(1, qmax + 1):
        primes = _prime_factors(spf, q)
        if len(set(primes)) < len(primes):
            continue  # mu^2(q) = 0
        coprime = np.ones(q, dtype=bool)
        for p in primes:
            coprime[::p] = False
        counts = np.bincount(values % q, minlength=q)[coprime]
        phi = math.prod(p - 1 for p in primes)
        total = int(counts.sum()) if universe == "beta" else len(values)
        # |c - total/phi| is largest at the least or the greatest count c
        worst = max(abs(int(counts.min()) * phi - total), abs(int(counts.max()) * phi - total))
        rows[q] = Fraction(worst, phi)
    # the weighted sum of mu^2(q) * rows[q]; mu^2(q) = 1 on every q kept
    return BVTable(N=N, theta=theta, eta=eta, universe=universe, rows=rows,
                   weighted_sum=sum(rows.values(), Fraction(0)))
