"""Exact sieve weights for a shifted tuple, with every structural identity in Q.

The weights are the classical multidimensional ones: for a squarefree
d = (d_1, ..., d_k) with prod d_i < R and coprime to W,

    lambda_d = (prod_i mu(d_i) d_i) * sum_{d_i | r_i, supported r}
               y_r / prod_i phi(r_i),
    y_r      = F( log r_1 / log R, ..., log r_k / log R ),

and w_n = (sum_{d_i | n + h_i} lambda_d)^2.

Two deliberate implementation choices keep the whole pipeline exact:

* The irrational inputs log r / log R are replaced *once* by rational
  surrogates rounded to `_LOG_DIGITS` = 48 decimal digits; the surrogate
  error is at most 10^-48 per coordinate and is tracked (`log_eps`,
  `y_error_bound`).  Everything downstream is exact: the y table holds ints
  over F's denominator times 10^(48 deg F), lambda is summed in ints over
  that times the lcm of the prod phi(r_i) and reduced by one gcd, so the
  partition of the almost-prime sums into their four parts, the linear-
  combination identities, the symmetry and the c^2 scaling all hold exactly.
* `y_from_lambda` applies the exact Mobius inversion of the lambda
  transform (weights mu(r_i) phi(r_i) and 1/prod d_i), so a roundtrip
  through lambda reproduces the y table identically.

Factorizations come from `numth.factor_table`: one table below R for the
moduli, and one over [0, 2N + max h) from which `s_sums` reads primality and
beta.  `s_sums` does not factor the shifted values n + h_i: an entry d of
the lambda table reaches exactly the n with d_i | n + h_i, one residue
class modulo prod d_i, so `s_sums` adds each entry along its progression.
"""

from __future__ import annotations

import decimal
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
_LOG_DIGITS = 48   # decimal digits of each surrogate log(r)/log(R)
# n per block of the s_sums scan.  A block holds object arrays of big-int
# lambda sums and squares, and each lambda entry costs one slice add per block
# and coordinate.  At N = 10^6, shifts (0, 2), blocks of 2^13 to 2^15 n time
# alike (within 10 %, 2-CPU Xeon); 2^14 peaks at 47 MiB RSS, 2^15 at 53 MiB.
_BLOCK = 2 ** 14


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

        self.R = floor_rational_power(self.N, self.theta / 2 - self.delta)
        if self.R < 3:
            raise ValueError("sieve level R is too small")
        if self.R * self.R >= self.N:
            raise ValueError("R must satisfy R^2 < N; lower theta or raise delta")
        self.Y = floor_rational_power(self.N, self.eta)
        if self.Y >= self.R:
            raise ValueError("need Y < R")

        if W is None:
            D0 = max(2, math.floor(math.log(math.log(math.log(self.N)))))
            self.W = math.prod(primes_up_to(D0))
        else:
            W = int(W)
            if W < 1 or (W > 1 and not is_squarefree(W)):
                raise ValueError("W must be a positive squarefree integer")
            self.W = W

        self.nu0 = self._find_nu0()

        # the logs behind the surrogates, at _LOG_DIGITS + 22 working digits
        self._log_context = decimal.Context(prec=_LOG_DIGITS + 22)
        self._ln_R = decimal.Decimal(self.R).ln(self._log_context)
        # prime factors and surrogate-log numerators of every squarefree v < R coprime to W
        spf = factor_table(self.R)
        self._factors: dict[int, list[int]] = {}
        logs: dict[int, int] = {}
        for v in range(1, self.R):
            primes = _prime_factors(spf, v)
            if len(set(primes)) == len(primes) and math.gcd(v, self.W) == 1:
                self._factors[v], logs[v] = primes, self._log_numerator(v)
        # y_r = _y_table[r] / _y_den: F at the surrogates, as ints over one denominator
        self._y_den = F.poly.denominator * 10 ** (_LOG_DIGITS * max(F.poly.total_degree(), 0))
        self._y_table = {r: F.poly.eval_numerator([logs[v] for v in r], 10 ** _LOG_DIGITS)
                         for r in self._enumerate_supported()}
        # lambda_d = _lambda_numerators[d] / _lambda_den, over one common denominator
        self._lambda_numerators, self._lambda_den = self._build_lambda()

    # -- context structure ----------------------------------------------------

    def _find_nu0(self) -> int:
        for nu in range(self.W):
            if all(math.gcd(nu + h, self.W) == 1 for h in self.shifts):
                return nu
        raise ValueError("no admissible residue mod W; the shift set collides with W")

    def is_supported(self, values: Sequence[int]) -> bool:
        """Arity k, squarefree product < R and coprime to W: exactly the y table's keys."""
        return tuple(values) in self._y_table

    def _enumerate_supported(self) -> list[tuple[int, ...]]:
        """The supported r, ascending: r_i multiplies the primes of a v in _factors placed in slot i,
        so there are sum_v k^omega(v) of them, held to _TUPLE_BUDGET before any is built."""
        if sum(self.k ** len(primes) for primes in self._factors.values()) > _TUPLE_BUDGET:
            raise ValueError("supported-tuple enumeration exceeds budget")
        out = []
        for primes in self._factors.values():
            for slots in iter_product(range(self.k), repeat=len(primes)):
                r = [1] * self.k
                for p, i in zip(primes, slots):
                    r[i] *= p
                out.append(tuple(r))
        return sorted(out)

    # -- surrogate logs ---------------------------------------------------------

    @property
    def log_eps(self) -> Fraction:
        """Certified bound on |surrogate - log(r)/log(R)| per coordinate."""
        return Fraction(1, 10 ** _LOG_DIGITS)

    def _log_numerator(self, r: int) -> int:
        """log(r)/log(R) rounded once to _LOG_DIGITS decimal digits, times 10^_LOG_DIGITS."""
        with decimal.localcontext(self._log_context):
            ratio = decimal.Decimal(r).ln() / self._ln_R
            return int((ratio * 10 ** _LOG_DIGITS).to_integral_value(rounding=decimal.ROUND_HALF_EVEN))

    def surrogate_log(self, r: int) -> Fraction:
        """log(r)/log(R) rounded once to _LOG_DIGITS decimal digits, as a Fraction."""
        if r < 1:
            raise ValueError("r must be >= 1")
        return Fraction(self._log_numerator(r), 10 ** _LOG_DIGITS)

    def y_error_bound(self) -> Fraction:
        """Lipschitz bound on |y_r - F(true logs)| from the surrogate rounding.

        Uses sup |dF/du_j| <= sum_terms |c| e_j (3/2)^(deg-1) on [0, 3/2]^k,
        comfortably containing both the true ratios and their surrogates.
        """
        total, terms = Fraction(0), self.F.poly.terms   # the view is built once
        for j in range(self.k):
            bound_j = Fraction(0)
            for exps, c in terms.items():
                if exps[j]:
                    deg = sum(exps)
                    bound_j += abs(c) * exps[j] * Fraction(3, 2) ** (deg - 1)
            total += bound_j
        return total * self.log_eps

    # -- tables -------------------------------------------------------------------

    def _build_lambda(self) -> tuple[dict[tuple[int, ...], int], int]:
        """The nonzero lambda_d as int numerators over their least common denominator."""
        phis = {r: math.prod(p - 1 for v in r for p in self._factors[v]) for r in self._y_table}
        phi_den = math.lcm(*phis.values())
        acc: dict[tuple[int, ...], int] = {}
        for r, y in self._y_table.items():
            if y == 0:
                continue
            contrib = y * (phi_den // phis[r])
            for d in iter_product(*(_divisors_below(self._factors[v], self.R) for v in r)):
                acc[d] = acc.get(d, 0) + contrib
        table = {d: math.prod((-1) ** len(self._factors[v]) * v for v in d) * s for d, s in acc.items() if s}
        g = math.gcd(self._y_den * phi_den, *table.values())
        return {d: val // g for d, val in table.items()}, self._y_den * phi_den // g

    def supported_tuples(self) -> list[tuple[int, ...]]:
        return list(self._y_table)

    def y_table_value(self, values: Sequence[int]) -> Fraction:
        """The defining y value: F at the surrogate log ratios (0 off support)."""
        return Fraction(self._y_table.get(tuple(int(v) for v in values), 0), self._y_den)


def lambda_weight(ctx: SieveContext, t: Sequence[int]) -> Fraction:
    """The sieve weight lambda_d, exactly; zero off support."""
    return Fraction(ctx._lambda_numerators.get(tuple(int(v) for v in t), 0), ctx._lambda_den)


def y_from_lambda(ctx: SieveContext, r: Sequence[int]) -> Fraction:
    """Recover y_r from the lambda table by exact Mobius inversion.

    y_r = (prod_i mu(r_i) phi(r_i)) * sum_{r_i | d_i} lambda_d / prod_i d_i.
    On the support this reproduces ctx.y_table_value(r) identically.
    """
    values = tuple(int(v) for v in r)
    if not ctx.is_supported(values):
        return Fraction(0)
    acc = Fraction(0)
    for d, num in ctx._lambda_numerators.items():
        if all(dv % rv == 0 for dv, rv in zip(d, values)):
            acc += Fraction(num, math.prod(d))
    front = 1
    for rv in values:
        primes = ctx._factors[rv]
        front *= (-1) ** len(primes) * math.prod(p - 1 for p in primes)
    return front * acc / ctx._lambda_den


# ---------------------------------------------------------------------------
# Weighted sums over the shifted tuple
# ---------------------------------------------------------------------------


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

    The d_i of a lambda entry d are pairwise coprime and coprime to W, so the
    n = n0 + W j of the window with d_i | n + h_i for every i are the j in
    one class j0 (mod D = prod d_i), found by CRT.  The scan walks the window
    in blocks of _BLOCK values of n; per block it adds each entry's numerator
    along its progression into an object array of lambda-sum numerators a_n,
    over the common denominator ctx._lambda_den.  S0 sums a_n^2, S1^(m) the
    same over the n with n + h_m prime.  For S2^(m) a second array holds ap_n,
    the part of a_n from the entries with d_m > 1; over the beta n,
    IV = sum ap^2 and I = sum ap a - IV, and III = S2 - 2 I - IV follows from
    a^2 = 2 ap a1 + a1^2 + ap^2 with a1 = a - ap.
    """
    if rho < 1:
        raise ValueError("rho must be >= 1")
    N, W, k = ctx.N, ctx.W, ctx.k
    spf = factor_table(2 * N + ctx.shifts[-1])  # raises above its budget, before allocating

    n0 = N + (ctx.nu0 - N) % W
    length = len(range(n0, 2 * N, W))
    progressions = []  # (j0, D, numerator, d) per entry
    for d, num in ctx._lambda_numerators.items():
        j0, D = 0, 1
        for h, di in zip(ctx.shifts, d):
            r = -(n0 + h) * pow(W, -1, di) % di
            j0 += D * ((r - j0) * pow(D, -1, di) % di)
            D *= di
        progressions.append((j0, D, num, d))

    S0, S1, S2, part_i, part_iv = 0, [0] * k, [0] * k, [0] * k, [0] * k
    for lo in range(0, length, _BLOCK):
        size = min(_BLOCK, length - lo)
        a = np.zeros(size, dtype=object)
        for j0, D, num, _ in progressions:
            a[(j0 - lo) % D:: D] += num
        sq = a * a
        S0 += sq.sum()
        n = np.arange(n0 + W * lo, n0 + W * (lo + size), W, dtype=np.int64)
        betas = []
        for m, h in enumerate(ctx.shifts):
            v = n + h
            S1[m] += sq[spf[v] == v].sum()
            betas.append(beta_mask(spf, v, N, ctx.Y))
            S2[m] += sq[betas[m]].sum()
        del sq  # the squares go before the ap arrays come
        for m, beta in enumerate(betas):
            ap = np.zeros(size, dtype=object)
            for j0, D, num, d in progressions:
                if d[m] > 1:
                    ap[(j0 - lo) % D:: D] += num
            ap = ap[beta]
            iv = ap.dot(ap)
            part_i[m] += ap.dot(a[beta]) - iv
            part_iv[m] += iv

    den = ctx._lambda_den ** 2
    return SSums(
        rho=rho,
        S0=Fraction(S0, den),
        S1=tuple(Fraction(x, den) for x in S1),
        S2=tuple(Fraction(x, den) for x in S2),
        # I = ap * a1 and II = a1 * ap are equal by construction
        parts=tuple({"I": Fraction(i, den), "II": Fraction(i, den),
                     "III": Fraction(s2 - 2 * i - iv, den), "IV": Fraction(iv, den)}
                    for s2, i, iv in zip(S2, part_i, part_iv)),
        S=Fraction(sum(S2) - rho * S0, den),
        Sprime=Fraction(sum(S1) + sum(S2) - rho * S0, den),
        n_scanned=length,
    )
