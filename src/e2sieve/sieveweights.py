"""Exact sieve weights for a shifted tuple, with every structural identity in Q.

The weights are the classical multidimensional ones: for a squarefree
d = (d_1, ..., d_k) with prod d_i < R and coprime to W,

    lambda_d = (prod_i mu(d_i) d_i) * sum_{d_i | r_i, supported r}
               y_r / prod_i phi(r_i),
    y_r      = F( log r_1 / log R, ..., log r_k / log R ),

and w_n = (sum_{d_i | n + h_i} lambda_d)^2.

Two deliberate implementation choices keep the whole pipeline exact:

* The irrational inputs log r / log R are replaced *once* by rational
  surrogates rounded to `log_digits` decimal digits (default 48); the
  surrogate error is at most 10^-log_digits per coordinate and is tracked
  (`log_eps`, `y_error_bound`).  Everything downstream is Fraction
  arithmetic, so the partition of the almost-prime sums into their four
  parts, the linear-combination identities, the symmetry and the c^2
  scaling all hold exactly, not just to rounding.
* `y_from_lambda` applies the exact Mobius inversion of the lambda
  transform (weights mu(r_i) phi(r_i) and 1/prod d_i), so a roundtrip
  through lambda reproduces the y table identically.

Factorizations come from `numth.factor_table`: one table below R for the
moduli, and one over [0, 2N + max h) for the window that `s_sums` scans
(`weight_w`, for a single n, tests the primes below R instead).
"""

from __future__ import annotations

import decimal
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Sequence

import numpy as np

from .algebra import TestFunction, as_rational
from .numth import (
    _prime_factors,
    beta_mask,
    factor_table,
    floor_rational_power,
    is_squarefree,
    primes_up_to,
)

_TUPLE_BUDGET = 2_000_000


def _divisors_below(primes: Sequence[int], bound: int) -> list[int]:
    """Products of subsets of the distinct `primes` that stay below `bound`."""
    out = [1]
    for p in primes:
        out += [d * p for d in out if d * p < bound]
    return out


class SieveContext:
    """Precomputed state for one weight system: moduli, tables, surrogate logs.

    Derived quantities:
      R  = floor(N^(theta/2 - delta)), the sieve level (R^2 < N is enforced),
      Y  = floor(N^eta), the lower cutoff for small prime factors,
      W  = product of primes <= D0 with D0 = max(2, floor(ln ln ln N)),
           unless overridden (W = 1 turns the pre-sieve off),
      nu0 = least non-negative residue with gcd(nu0 + h_i, W) = 1 for all i.
    """

    def __init__(
        self,
        N: int,
        shifts: Sequence[int],
        F: TestFunction,
        theta: Fraction,
        delta: Fraction = Fraction(0),
        eta: Fraction = Fraction(1, 100),
        W: int | None = None,
        log_digits: int = 48,
    ):
        if N < 16:
            raise ValueError("N is too small")
        self.N = int(N)
        self.shifts = tuple(sorted(int(h) for h in shifts))
        if len(set(self.shifts)) != len(self.shifts) or any(h < 0 for h in self.shifts):
            raise ValueError("shifts must be distinct and non-negative")
        self.k = len(self.shifts)
        if F.k != self.k:
            raise ValueError("test function arity must match the number of shifts")
        self.F = F
        self.theta = as_rational(theta)
        self.delta = as_rational(delta)
        self.eta = as_rational(eta)
        if not 0 < self.theta <= 1:
            raise ValueError("theta must be in (0, 1]")
        if self.delta < 0 or self.theta / 2 - self.delta <= 0:
            raise ValueError("need 0 <= delta < theta/2")
        if not 0 < self.eta < Fraction(1, 4):
            raise ValueError("eta must be in (0, 1/4)")
        if log_digits < 20:
            raise ValueError("log_digits must be >= 20")
        self.log_digits = int(log_digits)

        self.R = floor_rational_power(self.N, self.theta / 2 - self.delta)
        if self.R < 3:
            raise ValueError("sieve level R is too small")
        if self.R * self.R >= self.N:
            raise ValueError("R must satisfy R^2 < N; lower theta or raise delta")
        self.Y = floor_rational_power(self.N, self.eta)
        if self.Y >= self.R:
            raise ValueError("need Y < R")

        if W is None:
            lll = math.log(math.log(math.log(self.N)))
            self.D0 = max(2, math.floor(lll))
            self.W = 1
            for p in primes_up_to(self.D0):
                self.W *= p
        else:
            W = int(W)
            if W < 1 or (W > 1 and not is_squarefree(W)):
                raise ValueError("W must be a positive squarefree integer")
            self.D0 = None
            self.W = W

        self.nu0 = self._find_nu0()

        self._log_cache: dict[int, Fraction] = {1: Fraction(0)}
        # prime factors of every squarefree v < R coprime to W
        spf = factor_table(self.R)
        self._factors: dict[int, list[int]] = {}
        for v in range(1, self.R):
            primes = _prime_factors(spf, v)
            if len(set(primes)) == len(primes) and math.gcd(v, self.W) == 1:
                self._factors[v] = primes
        self._small_primes = [v for v, primes in self._factors.items() if primes == [v]]
        self._tuples = self._enumerate_supported()
        self._y_table = {t: self._y_value(t) for t in self._tuples}
        self._lambda_table = self._build_lambda()
        # the same table as int numerators over one common denominator, in a
        # trie keyed by d_1, ..., d_k
        self._lambda_den = math.lcm(*(v.denominator for v in self._lambda_table.values()))
        self._lambda_trie: dict = {}
        for d, v in self._lambda_table.items():
            node = self._lambda_trie
            for x in d[:-1]:
                node = node.setdefault(x, {})
            node[d[-1]] = v.numerator * (self._lambda_den // v.denominator)

    # -- context structure ----------------------------------------------------

    def _find_nu0(self) -> int:
        for nu in range(self.W):
            if all(math.gcd(nu + h, self.W) == 1 for h in self.shifts):
                return nu
        raise ValueError("no admissible residue mod W; the shift set collides with W")

    def is_supported(self, values: Sequence[int]) -> bool:
        """Support predicate: squarefree product < R, coprime to W, arity k."""
        if len(values) != self.k:
            return False
        prod = 1
        for v in values:
            if v < 1:
                return False
            prod *= v
        if prod >= self.R:
            return False
        if math.gcd(prod, self.W) != 1:
            return False
        return is_squarefree(prod)

    def _enumerate_supported(self) -> list[tuple[int, ...]]:
        out: list[tuple[int, ...]] = []

        def rec(pos: int, prefix: tuple[int, ...], prod: int):
            if pos == self.k:
                out.append(prefix)
                if len(out) > _TUPLE_BUDGET:
                    raise ValueError("supported-tuple enumeration exceeds budget")
                return
            for v in self._factors:
                newprod = prod * v
                if newprod >= self.R:
                    continue
                if math.gcd(v, prod) == 1:
                    rec(pos + 1, prefix + (v,), newprod)

        rec(0, (), 1)
        return out

    # -- surrogate logs ---------------------------------------------------------

    @property
    def log_eps(self) -> Fraction:
        """Certified bound on |surrogate - log(r)/log(R)| per coordinate."""
        return Fraction(1, 10 ** self.log_digits)

    def surrogate_log(self, r: int) -> Fraction:
        """log(r)/log(R) rounded once to log_digits decimal digits, as a Fraction."""
        if r < 1:
            raise ValueError("r must be >= 1")
        cached = self._log_cache.get(r)
        if cached is not None:
            return cached
        with decimal.localcontext() as ctx:
            ctx.prec = self.log_digits + 22
            ratio = decimal.Decimal(r).ln() / decimal.Decimal(self.R).ln()
            scaled = int((ratio * 10 ** self.log_digits)
                         .to_integral_value(rounding=decimal.ROUND_HALF_EVEN))
        val = Fraction(scaled, 10 ** self.log_digits)
        self._log_cache[r] = val
        return val

    def _y_value(self, t: tuple[int, ...]) -> Fraction:
        return self.F.poly.eval(tuple(self.surrogate_log(v) for v in t))

    def y_error_bound(self) -> Fraction:
        """Lipschitz bound on |y_r - F(true logs)| from the surrogate rounding.

        Uses sup |dF/du_j| <= sum_terms |c| e_j (3/2)^(deg-1) on [0, 3/2]^k,
        comfortably containing both the true ratios and their surrogates.
        """
        total = Fraction(0)
        for j in range(self.k):
            bound_j = Fraction(0)
            for exps, c in self.F.poly.terms.items():
                if exps[j]:
                    deg = sum(exps)
                    bound_j += abs(c) * exps[j] * Fraction(3, 2) ** (deg - 1)
            total += bound_j
        return total * self.log_eps

    # -- tables -------------------------------------------------------------------

    def _build_lambda(self) -> dict[tuple[int, ...], Fraction]:
        acc: dict[tuple[int, ...], Fraction] = {}
        for r in self._tuples:
            factors = [self._factors[v] for v in r]
            contrib = self._y_table[r] / math.prod(p - 1 for primes in factors for p in primes)
            if contrib == 0:
                continue
            for d in iter_product(*(_divisors_below(primes, self.R) for primes in factors)):
                acc[d] = acc.get(d, Fraction(0)) + contrib
        table: dict[tuple[int, ...], Fraction] = {}
        for d, s in acc.items():
            val = math.prod((-1) ** len(self._factors[v]) * v for v in d) * s
            if val != 0:
                table[d] = val
        return table

    def supported_tuples(self) -> list[tuple[int, ...]]:
        return list(self._tuples)

    def y_table_value(self, values: Sequence[int]) -> Fraction:
        """The defining y value: F at the surrogate log ratios (0 off support)."""
        t = tuple(int(v) for v in values)
        if not self.is_supported(t):
            return Fraction(0)
        return self._y_table[t]


def lambda_weight(ctx: SieveContext, t: Sequence[int]) -> Fraction:
    """The sieve weight lambda_d, exactly; zero off support."""
    values = tuple(int(v) for v in t)
    if not ctx.is_supported(values):
        return Fraction(0)
    return ctx._lambda_table.get(values, Fraction(0))


def y_from_lambda(ctx: SieveContext, r: Sequence[int]) -> Fraction:
    """Recover y_r from the lambda table by exact Mobius inversion.

    y_r = (prod_i mu(r_i) phi(r_i)) * sum_{r_i | d_i} lambda_d / prod_i d_i.
    On the support this reproduces ctx.y_table_value(r) identically.
    """
    values = tuple(int(v) for v in r)
    if not ctx.is_supported(values):
        return Fraction(0)
    acc = Fraction(0)
    for d, lam in ctx._lambda_table.items():
        if all(dv % rv == 0 for dv, rv in zip(d, values)):
            acc += lam / math.prod(d)
    front = 1
    for rv in values:
        primes = ctx._factors[rv]
        front *= (-1) ** len(primes) * math.prod(p - 1 for p in primes)
    return front * acc


# ---------------------------------------------------------------------------
# Weighted sums over the shifted tuple
# ---------------------------------------------------------------------------


def _lambda_numerator(ctx: SieveContext, divisor_lists: list[list[int]]) -> int:
    """Sum of lambda_d * ctx._lambda_den over d in the product of the lists.

    The walk down the trie drops every prefix that no supported d extends
    (product >= R or a shared factor), so it needs no bound or gcd test.
    """
    nodes = [ctx._lambda_trie]
    for divisors in divisor_lists:
        nodes = [child for node in nodes for d in divisors if (child := node.get(d)) is not None]
    return sum(nodes)


def weight_w(ctx: SieveContext, n: int) -> Fraction:
    """w_n = (sum over divisor tuples of the shifted values of lambda)^2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lists = [_divisors_below([p for p in ctx._small_primes if (n + h) % p == 0], ctx.R)
             for h in ctx.shifts]
    a = _lambda_numerator(ctx, lists)
    return Fraction(a * a, ctx._lambda_den ** 2)


@dataclass(frozen=True)
class SSums:
    """All weighted sums over one window n in [N, 2N), n = nu0 (mod W).

    parts[m-1] splits the m-th almost-prime sum S2^(m) by whether the m-th
    modulus in each of the two weight factors is 1 or the small prime factor
    p1 of n + h_m: I = (p, 1), II = (1, p), III = (1, 1), IV = (p, p).
    All entries are exact rationals; S2^(m) equals the sum of its four parts
    identically, and S / Sprime are the stated linear combinations.
    """

    rho: int
    S0: Fraction
    S1: tuple[Fraction, ...]
    S2: tuple[Fraction, ...]
    parts: tuple[dict[str, Fraction], ...]
    S: Fraction
    Sprime: Fraction
    n_scanned: int


def s_sums(ctx: SieveContext, rho: int) -> SSums:
    """Accumulate S0, S1^(m), S2^(m) (with the four-way split), S and S'.

    w_n depends on n only through the kernels of n + h_i (the product of the
    primes p < R, p coprime to W, dividing it), so the scan groups the n by
    their kernel tuple and sums count * lambda-sum^2 per group, in ints over
    the common denominator ctx._lambda_den^2.
    """
    if rho < 1:
        raise ValueError("rho must be >= 1")
    N, W, R = ctx.N, ctx.W, ctx.R
    spf = factor_table(2 * N + ctx.shifts[-1])  # raises above its budget, before allocating

    kernel = np.ones(N + ctx.shifts[-1], dtype=np.int64)  # kernel of N + i
    for p in ctx._small_primes:
        kernel[-N % p:: p] *= p
    n = np.arange(N + (ctx.nu0 - N) % W, 2 * N, W, dtype=np.int64)
    values = [n + h for h in ctx.shifts]
    # group the n by their kernel tuple; each kernel is below len(spf), and the
    # group index is renumbered after every coordinate, so the code fits int64
    group = np.zeros(len(n), dtype=np.int64)
    for v in values:
        _, first, group = np.unique(group * len(spf) + kernel[v - N],
                                    return_index=True, return_inverse=True)
    keys = list(zip(*(kernel[v[first] - N].tolist() for v in values)))
    divisors = {kv: _divisors_below(_prime_factors(spf, kv), R) for kv in set().union(*keys)}
    divisors[1] = [1]

    def total(key: tuple[int, ...]) -> int:
        """The lambda-sum numerator of every n whose kernels are `key`."""
        return _lambda_numerator(ctx, [divisors[kv] for kv in key])

    totals = [total(key) for key in keys]
    pinned_total = functools.cache(total)  # few distinct keys once d_m = 1

    def per_group(mask=None) -> list[int]:
        return np.bincount(group if mask is None else group[mask], minlength=len(keys)).tolist()

    S0 = sum(c * a * a for c, a in zip(per_group(), totals))
    S1, S2, parts = [], [], []
    for m, v in enumerate(values):
        S1.append(sum(c * a * a for c, a in zip(per_group(spf[v] == v), totals)))
        part_i = part_iii = part_iv = 0
        for c, a, key in zip(per_group(beta_mask(spf, v, N, ctx.Y)), totals, keys):
            if c:
                a1 = pinned_total(key[:m] + (1,) + key[m + 1:])  # d_m = 1
                ap = a - a1
                part_i += c * ap * a1
                part_iii += c * a1 * a1
                part_iv += c * ap * ap
        S2.append(2 * part_i + part_iii + part_iv)
        parts.append((part_i, part_iii, part_iv))

    den = ctx._lambda_den ** 2
    return SSums(
        rho=rho,
        S0=Fraction(S0, den),
        S1=tuple(Fraction(x, den) for x in S1),
        S2=tuple(Fraction(x, den) for x in S2),
        # I = ap * a1 and II = a1 * ap are equal by construction
        parts=tuple({"I": Fraction(i, den), "II": Fraction(i, den),
                     "III": Fraction(iii, den), "IV": Fraction(iv, den)}
                    for i, iii, iv in parts),
        S=Fraction(sum(S2) - rho * S0, den),
        Sprime=Fraction(sum(S1) + sum(S2) - rho * S0, den),
        n_scanned=len(n),
    )
