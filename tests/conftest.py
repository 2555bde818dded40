"""Shared fixtures and independent oracles for the test suite."""

import ast
import math
import os
import subprocess
import sys
from fractions import Fraction
from operator import add
from pathlib import Path

import mpmath
import numpy as np
import pytest

from e2sieve import TARGETS, leading_coefficient
from e2sieve.algebra import (_MAX_PARSE_EXPONENT, _MAX_PARSE_TERMS, _MAX_POWER_SUM_INDEX, LogLinear, SymPoly,
                             TestFunction, _check_budget, _monomials)
from e2sieve.algebra import as_rational
from e2sieve.numth import (_beta_numbers, _prime_factors, beta_mask, factor_table, floor_rational_power,
                           is_squarefree, primes_in_range)
from e2sieve.sieveweights import SieveContext, SSums, _divisors_below

ROOT = Path(__file__).resolve().parents[1]


def run_with_src(argv) -> subprocess.CompletedProcess:
    """Run the interpreter on argv from the repository root, with src on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


def monomial_simplex_integral(exponents) -> Fraction:
    """Exact integral of u1^a1 ... uk^ak over the solid k-simplex: alpha! / (k + |alpha|)!."""
    exponents = tuple(exponents)
    return Fraction(math.prod(map(math.factorial, exponents)),
                    math.factorial(len(exponents) + sum(exponents)))


def iterated_simplex_integral(exponents) -> Fraction:
    """Slow oracle: integrate a monomial over the simplex one variable at a time.

    Integrates u_k from 0 to 1 - u_1 - ... - u_{k-1}, then u_{k-1}, and so on.
    Independent of the factorial formula under test.
    """
    k = len(exponents)
    poly = SymPoly(k, {tuple(exponents): Fraction(1)})
    for var in range(k - 1, -1, -1):
        upper = SymPoly.constant(k, 1)
        for j in range(var):
            upper = upper - SymPoly.variable(k, j)
        poly = definite_integral_one_var(poly, var, Fraction(0), upper)
    return poly.constant_value()


# ---------------------------------------------------------------------------
# The expanding oracle: square or multiply out, then integrate term by term
# ---------------------------------------------------------------------------


def integrate_poly_simplex(p: SymPoly) -> Fraction:
    """Exact integral of a polynomial over the solid simplex in all its variables."""
    return sum((c * monomial_simplex_integral(exps) for exps, c in p.terms.items()), Fraction(0))


def expanding_I(F: TestFunction) -> Fraction:
    return integrate_poly_simplex(F.poly * F.poly)


def expanding_J(F: TestFunction, m: int) -> Fraction:
    """Integrate out u_m, square, and integrate over the other coordinates."""
    var = m - 1
    upper = 1 - sum((SymPoly.variable(F.k, i) for i in range(F.k) if i != var), SymPoly.zero(F.k))
    inner = definite_integral_one_var(F.poly, var, Fraction(0), upper)
    squared = inner * inner
    return integrate_poly_simplex(SymPoly(F.k - 1, {
        exps[:var] + exps[var + 1:]: c for exps, c in squared.terms.items()}))


def expanding_G(F: TestFunction, m: int, kind: str) -> SymPoly:
    """G_L or G_M: expand h1 h2 or h1^2 in (u, a), rescale u' = (1 - a) v, integrate.

    h1 = int_a^{1-s} F du_m and h2 = h1 at a = 0.  A monomial with u-degree t
    picks up (1 - a)^t from the rescaling, and (1 - a)^(k-1) is the Jacobian.
    """
    k, var = F.k, m - 1
    ring = k + 1  # u1..uk plus the substitution offset a
    lifted = SymPoly(ring, {exps + (0,): c for exps, c in F.poly.terms.items()})
    upper = 1 - sum((SymPoly.variable(ring, i) for i in range(k) if i != var), SymPoly.zero(ring))
    h1 = definite_integral_one_var(lifted, var, SymPoly.variable(ring, k), upper)
    q = h1 * (h1 if kind == "M" else substitute(h1, k, 0))
    one_minus_a = 1 - SymPoly.variable(1, 0)
    total = SymPoly.zero(1)
    for exps, c in q.terms.items():
        u_part = exps[:var] + exps[var + 1:k]
        total = total + (c * monomial_simplex_integral(u_part) * SymPoly.variable(1, 0) ** exps[k]
                         * one_minus_a ** sum(u_part))
    return total * one_minus_a ** (k - 1)


# ---------------------------------------------------------------------------
# The SymPoly-building parser: every subexpression a SymPoly of Fractions
# ---------------------------------------------------------------------------


def _sympoly_degrees(p: SymPoly, n: int = 1) -> tuple[int, int]:
    """The least and the greatest total degree of p ** n."""
    return n * min(map(sum, p.terms), default=0), n * max(map(sum, p.terms), default=0)


def _checked_product(p: SymPoly, q: SymPoly) -> SymPoly:
    pairs = len(p.terms) * len(q.terms)
    if pairs > _MAX_PARSE_TERMS:   # fewer pairs fit both budgets
        _check_budget(min(pairs, _monomials(p.nvars, *map(add, _sympoly_degrees(p), _sympoly_degrees(q)))),
                      pairs)
    return p * q


def _checked_power(base: SymPoly, n: int) -> SymPoly:
    """base ** n, after pre-counting the terms of the result and the pairs of its last squaring."""
    def terms(j: int) -> int:
        return min(len(base.terms) ** j, _monomials(base.nvars, *_sympoly_degrees(base, j)))

    _check_budget(terms(n), terms(n // 2) ** 2)
    return base ** n


def sympoly_parse(expression: str, k: int) -> SymPoly:
    """parse_poly as it was before it moved onto int numerators over one denominator.

    Only its values and budget errors serve as an oracle: it still reads
    bools as ints and u01 as u1, which parse_poly now rejects.
    """

    def build(node) -> SymPoly:
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int):
                return SymPoly.constant(k, node.value)
            raise ValueError(f"only integer literals allowed, got {node.value!r}")
        if isinstance(node, ast.Name):
            name = node.id
            if name.startswith("u") and name[1:].isdigit():
                idx = int(name[1:])
                if not 1 <= idx <= k:
                    raise ValueError(f"variable {name} out of range for k={k}")
                return SymPoly.variable(k, idx - 1)
            if name.startswith("P") and name[1:].isdigit():
                j = int(name[1:])
                if not 1 <= j <= _MAX_POWER_SUM_INDEX:
                    raise ValueError(f"power-sum index {j} out of range")
                return sum((SymPoly.variable(k, i) ** j for i in range(k)), SymPoly.zero(k))
            raise ValueError(f"unknown name {name!r} (use u1..u{k} or P1, P2, ...)")
        if isinstance(node, ast.UnaryOp):
            operand = build(node.operand)
            if isinstance(node.op, ast.USub):
                return -operand
            if isinstance(node.op, ast.UAdd):
                return operand
            raise ValueError("unsupported unary operator")
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                base = build(node.left)
                if not (isinstance(node.right, ast.Constant) and isinstance(node.right.value, int)):
                    raise ValueError("exponent must be an integer literal")
                exp = node.right.value
                if not 0 <= exp <= _MAX_PARSE_EXPONENT:
                    raise ValueError(f"exponent {exp} out of range")
                return _checked_power(base, exp)
            left = build(node.left)
            right = build(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return _checked_product(left, right)
            if isinstance(node.op, ast.Div):
                if not right.is_constant():
                    raise ValueError("division only by nonzero constants")
                val = right.constant_value()
                if val == 0:
                    raise ValueError("division by zero")
                return left * Fraction(val.denominator, val.numerator)
            raise ValueError(f"unsupported operator {type(node.op).__name__}")
        raise ValueError(f"unsupported syntax element {type(node).__name__}")

    return build(ast.parse(expression, mode="eval"))


# ---------------------------------------------------------------------------
# The row-major Monte Carlo path: np.sort spacings and per-term products
# ---------------------------------------------------------------------------


def compile_poly(p: SymPoly) -> tuple[np.ndarray, np.ndarray]:
    """(exponent matrix, float coefficient vector) in sorted-key order."""
    keys = sorted(p.terms)
    return (np.array(keys, dtype=np.int64).reshape(-1, p.nvars),
            np.array([float(p.terms[e]) for e in keys]))


def eval_poly_array(exps: np.ndarray, coeffs: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Evaluate a compiled polynomial at the rows of X (n x nvars) using power tables.

    Each term is formed in one row, coefficient first and then its factors
    in coordinate order, and added to the result in term order.
    """
    n, nv = X.shape
    out = np.zeros(n)
    Xt = np.ascontiguousarray(X.T)
    max_deg = exps.max(axis=0, initial=0)
    powers = []
    for j in range(nv):
        tab = np.empty((max_deg[j] + 1, n))
        tab[0] = 1.0
        for e in range(1, max_deg[j] + 1):
            np.multiply(tab[e - 1], Xt[j], out=tab[e])
        powers.append(tab)
    buf = np.empty(n)
    for t in range(len(coeffs)):
        buf.fill(coeffs[t])
        for j in range(nv):
            e = exps[t, j]
            if e:
                np.multiply(buf, powers[j][e], out=buf)
        out += buf
    return out


def sample_solid_simplex(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n uniform points in {x_i >= 0, sum x_i <= 1} (rows) via sorted-uniform spacings."""
    u = np.sort(rng.random((n, dim)), axis=1)
    return np.diff(u, axis=1, prepend=0.0)


# ---------------------------------------------------------------------------
# Calculus on SymPoly that only the tests need
# ---------------------------------------------------------------------------


def derivative(p: SymPoly, var: int) -> SymPoly:
    """d/du_var of p, term by term."""
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, c in p.terms.items():
        e = exps[var]
        if e:
            ne = exps[:var] + (e - 1,) + exps[var + 1:]
            out[ne] = out.get(ne, Fraction(0)) + c * e
    return SymPoly(p.nvars, out)


def antiderivative(p: SymPoly, var: int) -> SymPoly:
    """The antiderivative of p in u_var that vanishes at u_var = 0, term by term."""
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, c in p.terms.items():
        e = exps[var]
        out[exps[:var] + (e + 1,) + exps[var + 1:]] = c / (e + 1)
    return SymPoly(p.nvars, out)


def substitute(p: SymPoly, var: int, replacement) -> SymPoly:
    """Replace u_var by a rational or by a polynomial in the same ring."""
    if not isinstance(replacement, SymPoly):
        replacement = SymPoly.constant(p.nvars, replacement)
    if replacement.nvars != p.nvars:
        raise ValueError("replacement lives in a different ring")
    groups: dict[int, dict[tuple[int, ...], Fraction]] = {}   # the terms by their power of u_var
    for exps, c in p.terms.items():
        groups.setdefault(exps[var], {})[exps[:var] + (0,) + exps[var + 1:]] = c
    return sum((SymPoly(p.nvars, part) * replacement ** e for e, part in groups.items()),
               SymPoly.zero(p.nvars))


def definite_integral_one_var(f: SymPoly, var: int, lower, upper) -> SymPoly:
    """Integrate f in u_var between limits (rationals, or polynomials free of u_var)."""
    for bound in (lower, upper):
        if isinstance(bound, SymPoly) and any(e[var] for e in bound.terms):
            raise ValueError("integration limit must not involve the integration variable")
    anti = antiderivative(f, var)
    return substitute(anti, var, upper) - substitute(anti, var, lower)


def fraction_eval(p: SymPoly, point) -> Fraction:
    """p at a point of ints and Fractions, one Fraction multiply-add per term."""
    if len(point) != p.nvars:
        raise ValueError(f"point has {len(point)} coordinates, expected {p.nvars}")
    total = Fraction(0)
    for exps, c in p.terms.items():
        term = c
        for x, e in zip(point, exps):
            if e:
                term *= Fraction(x) ** e
        total += term
    return total


def permuted(p: SymPoly, perm) -> SymPoly:
    """Relabel variables: new variable perm[i] receives old variable i."""
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, c in p.terms.items():
        ne = [0] * p.nvars
        for i, e in enumerate(exps):
            ne[perm[i]] = e
        out[tuple(ne)] = c
    return SymPoly(p.nvars, out)


def brute_swap_representatives(p: SymPoly) -> list[int]:
    """For each coordinate m (1-based), the first r <= m such that relabelling
    p by the swap of u_r and u_m gives p back, comparing whole polynomials."""
    out = []
    for m in range(p.nvars):
        for r in range(m + 1):
            perm = list(range(p.nvars))
            perm[r], perm[m] = m, r
            if permuted(p, perm).terms == p.terms:
                out.append(r + 1)
                break
    return out


# ---------------------------------------------------------------------------
# The division-based closed form of the outer integrals
# ---------------------------------------------------------------------------


def divide_by_one_minus_x(coeffs: list[Fraction]) -> list[Fraction]:
    """Exact division of a coefficient list by (1 - x); the remainder must vanish."""
    # synthetic division by (x - 1), then negate: p = (x-1) q + r  =>  p = (1-x)(-q) + r
    if not coeffs:
        return []
    q = [Fraction(0)] * (len(coeffs) - 1)
    acc = Fraction(0)
    for i in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[i] + acc
        q[i - 1] = -acc
    if coeffs[0] + acc != 0:
        raise ValueError("polynomial is not divisible by (1 - x)")
    while q and q[-1] == 0:
        q.pop()
    return q


def division_closed_form(pcoeffs: list[Fraction], eta: Fraction, c: Fraction) -> LogLinear:
    """int_eta^c P(xi) / (xi (1 - xi)) dxi from P = P(0)(1-xi) + P(1) xi + xi (1-xi) Q.

    Q is the exact polynomial quotient of N = P - P(0)(1-xi) - P(1) xi by
    xi (1 - xi); the three pieces integrate to two log pairs and Qhat(c) - Qhat(eta).
    """
    if not pcoeffs:
        return LogLinear.zero()
    p0 = pcoeffs[0]
    p1 = sum(pcoeffs)
    ncoeffs = list(pcoeffs)
    ncoeffs[0] -= p0
    if len(ncoeffs) == 1:
        ncoeffs.append(Fraction(0))
    ncoeffs[1] += p0 - p1
    assert ncoeffs[0] == 0
    q = divide_by_one_minus_x(ncoeffs[1:])  # N / xi, then / (1 - xi)
    const = sum((qi * (c ** (i + 1) - eta ** (i + 1)) / (i + 1) for i, qi in enumerate(q)),
                Fraction(0))
    return LogLinear(const, [(c, p0), (eta, -p0), (1 - eta, p1), (1 - c, -p1)])


# ---------------------------------------------------------------------------
# The factoring canonical form of a LogLinear
# ---------------------------------------------------------------------------


def canonical(value: LogLinear) -> tuple[Fraction, tuple[tuple[int, Fraction], ...]]:
    """(const, sorted prime-exponent vector): the log arguments split into primes."""
    import sympy

    vec: dict[int, Fraction] = {}
    for q, r in value.terms:
        for p, e in sympy.factorint(q.numerator).items():
            vec[p] = vec.get(p, Fraction(0)) + r * e
        for p, e in sympy.factorint(q.denominator).items():
            vec[p] = vec.get(p, Fraction(0)) - r * e
    return value.const, tuple(sorted((p, c) for p, c in vec.items() if c != 0))


def mp_value(value: LogLinear, dps: int):
    """value as an mpf at dps digits: an oracle that shares no code with decimal."""
    with mpmath.workdps(dps):
        return mpmath.mpf(value.const.numerator) / value.const.denominator + mpmath.fsum(
            mpmath.mpf(r.numerator) / r.denominator * mpmath.log(mpmath.mpf(q.numerator) / q.denominator)
            for q, r in value.terms)


# ---------------------------------------------------------------------------
# The mpmath quadrature of the outer integrals
# ---------------------------------------------------------------------------


def mpmath_quad_outer(pcoeffs: list[Fraction], eta: Fraction, c: Fraction):
    """(value, error estimate) of int_{ln eta}^{ln c} P(e^t) / (1 - e^t) dt as mpf.

    One tanh-sinh mpmath.quad at 40 digits with Horner on mpf coefficients:
    the quadrature that `functionals._tanh_sinh` replaced.
    """
    with mpmath.workdps(40):
        pm = [mpmath.mpf(p.numerator) / p.denominator for p in pcoeffs]

        def integrand(t):
            x = mpmath.exp(t)
            acc = mpmath.mpf(0)
            for coeff in reversed(pm):
                acc = acc * x + coeff
            return acc / (1 - x)

        lo = mpmath.log(mpmath.mpf(eta.numerator) / eta.denominator)
        hi = mpmath.log(mpmath.mpf(c.numerator) / c.denominator)
        return mpmath.quad(integrand, [lo, hi], error=True)


# ---------------------------------------------------------------------------
# The cofactor membership masks: divide every v by its least prime factor
# ---------------------------------------------------------------------------


def cofactor_members(universe: str, limit: int) -> np.ndarray:
    """Bool mask over [0, limit] of the primes, E2 or P2 numbers, off factor_table.

    v >= 2 is prime iff spf[v] == v, and v is E2 iff its cofactor
    m = v // spf[v] is a prime larger than spf[v]: the mask that
    `numth._members` built before it marked prime products instead.
    """
    spf = factor_table(limit + 1)
    m = np.arange(limit + 1, dtype=np.int32)
    prime = spf == m
    prime[:2] = False
    if universe == "primes":
        return prime
    m[2:] //= spf[2:]
    e2 = m > spf
    e2 &= spf[m] == m
    if universe == "P2":
        e2 |= prime
    return e2


def pi_flat(N: int) -> int:
    """Number of primes in [N, 2N), the window of the prime rows of `numth.bv_table`."""
    return len(primes_in_range(N, 2 * N))


def pi_beta(N: int, eta: Fraction) -> int:
    """Sum of beta(n) over N < n <= 2N, counted off `numth._beta_numbers`."""
    return len(_beta_numbers(N, eta))


# ---------------------------------------------------------------------------
# Trial division: a primes list, single-value beta and Euler's phi
# ---------------------------------------------------------------------------


def trial_division_primes(limit: int) -> list[int]:
    """All primes <= limit, each v tried against the primes found below it up to sqrt(v).

    Shares no code with `numth`'s sieve, so the tests can compare that sieve against it.
    """
    primes: list[int] = []
    for v in range(2, limit + 1):
        for p in primes:
            if p * p > v:
                primes.append(v)
                break
            if v % p == 0:
                break
        else:
            primes.append(v)
    return primes


def _smallest_prime_factor(n: int, base) -> int | None:
    for p in base:
        if p * p > n:
            return None  # n is prime
        if n % p == 0:
            return p
    return None


def beta(n: int, N: int, eta: Fraction) -> int:
    """Indicator that n = p1 p2 with floor(N^eta) < p1 <= sqrt(N) < p2.

    Trial division by the primes up to sqrt(n), for a single n of any size;
    `numth` reads the same predicate off `factor_table`.
    """
    eta = as_rational(eta)
    if n < 2:
        return 0
    Y = floor_rational_power(N, eta)
    base = trial_division_primes(math.isqrt(n))
    p1 = _smallest_prime_factor(n, base)
    if p1 is None:
        return 0  # prime
    if not (p1 > Y and p1 * p1 <= N):
        return 0
    m = n // p1
    if m == p1 or m * m <= N:
        return 0
    return 1 if _smallest_prime_factor(m, base) is None else 0


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


# ---------------------------------------------------------------------------
# The arithmetic support predicate of the sieve weights
# ---------------------------------------------------------------------------


def supported_by_predicate(ctx: SieveContext, values) -> bool:
    """Arity k, every entry >= 1, squarefree product below R and coprime to W."""
    if len(values) != ctx.k or min(values) < 1:
        return False
    prod = math.prod(values)
    return prod < ctx.R and math.gcd(prod, ctx.W) == 1 and is_squarefree(prod)


def weight_w(ctx: SieveContext, n: int) -> Fraction:
    """w_n = (sum of lambda_d over the entries with d_i | n + h_i for every i)^2.

    Tests each entry's divisibility directly, for a single n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    values = [n + h for h in ctx.shifts]
    a = sum(num for d, num in ctx._lambda_numerators.items()
            if all(v % di == 0 for v, di in zip(values, d)))
    return Fraction(a * a, ctx._lambda_den ** 2)


# ---------------------------------------------------------------------------
# The kernel-grouped S-sums: one lambda-trie walk per group of equal kernels
# ---------------------------------------------------------------------------


def _lambda_numerator(trie: dict, divisor_lists: list[list[int]]) -> int:
    """Sum of the trie's numerators over d in the product of the lists.

    The walk down the trie drops every prefix that no supported d extends
    (product >= R or a shared factor), so it needs no bound or gcd test.
    """
    nodes = [trie]
    for divisors in divisor_lists:
        nodes = [child for node in nodes for d in divisors if (child := node.get(d)) is not None]
    return sum(nodes)


def trie_s_sums(ctx: SieveContext, rho: int) -> SSums:
    """The S-sums by grouping the window's n by their kernel tuple.

    The kernel of n + h_i is the product of the primes p < R, p coprime to W,
    that divide it, and w_n depends on n only through the kernels.  Each group
    sums count * lambda-sum^2, the lambda sum read off a trie of the lambda
    numerators keyed by d_1, ..., d_k: the scan `s_sums` did before it added
    the entries along their progressions.
    """
    N, W, R = ctx.N, ctx.W, ctx.R
    den = ctx._lambda_den
    trie: dict = {}
    for d, num in ctx._lambda_numerators.items():
        node = trie
        for x in d[:-1]:
            node = node.setdefault(x, {})
        node[d[-1]] = num
    spf = factor_table(2 * N + ctx.shifts[-1])

    kernel = np.ones(N + ctx.shifts[-1], dtype=np.int64)  # kernel of N + i
    for p in (v for v, primes in ctx._factors.items() if primes == [v]):
        kernel[-N % p:: p] *= p
    n = np.arange(N + (ctx.nu0 - N) % W, 2 * N, W, dtype=np.int64)
    values = [n + h for h in ctx.shifts]
    # group the n by their kernel tuple, renumbering the group after every coordinate
    group = np.zeros(len(n), dtype=np.int64)
    for v in values:
        _, first, group = np.unique(group * len(spf) + kernel[v - N],
                                    return_index=True, return_inverse=True)
    keys = list(zip(*(kernel[v[first] - N].tolist() for v in values)))
    divisors = {kv: _divisors_below(_prime_factors(spf, kv), R) for kv in set().union(*keys)}
    divisors[1] = [1]

    def total(key: tuple[int, ...]) -> int:
        return _lambda_numerator(trie, [divisors[kv] for kv in key])

    totals = [total(key) for key in keys]

    def per_group(mask=None) -> list[int]:
        return np.bincount(group if mask is None else group[mask], minlength=len(keys)).tolist()

    S0 = sum(c * a * a for c, a in zip(per_group(), totals))
    S1, S2, parts = [], [], []
    for m, v in enumerate(values):
        S1.append(sum(c * a * a for c, a in zip(per_group(spf[v] == v), totals)))
        part_i = part_iii = part_iv = 0
        for c, a, key in zip(per_group(beta_mask(spf, v, N, ctx.Y)), totals, keys):
            if c:
                a1 = total(key[:m] + (1,) + key[m + 1:])  # d_m = 1
                ap = a - a1
                part_i += c * ap * a1
                part_iii += c * a1 * a1
                part_iv += c * ap * ap
        S2.append(2 * part_i + part_iii + part_iv)
        parts.append((part_i, part_iii, part_iv))

    den2 = den ** 2
    return SSums(
        rho=rho,
        S0=Fraction(S0, den2),
        S1=tuple(Fraction(x, den2) for x in S1),
        S2=tuple(Fraction(x, den2) for x in S2),
        parts=tuple({"I": Fraction(i, den2), "II": Fraction(i, den2),
                     "III": Fraction(iii, den2), "IV": Fraction(iv, den2)}
                    for i, iii, iv in parts),
        S=Fraction(sum(S2) - rho * S0, den2),
        Sprime=Fraction(sum(S1) + sum(S2) - rho * S0, den2),
        n_scanned=len(n),
    )


# ---------------------------------------------------------------------------
# The theorem-11 eta at 200 digits
# ---------------------------------------------------------------------------


def theorem11_eta_oracle(rho: int, theta: Fraction, epsilon: Fraction, k: int | None):
    """eta = theta T / k = theta (e^A - 1) / (A k), A = ln k - 2 ln ln k, at 200 digits.

    k is the plan's k, or None when it was too long to keep; then
    k = floor(e^x + 1) with x = (2 + eps) rho / (3 theta ln rho), so
    ln k = x + O(e^-x), and e^-x is far below 200 digits.
    """
    with mpmath.workdps(200):
        th = mpmath.mpf(theta.numerator) / theta.denominator
        x = (mpmath.mpf((2 + epsilon).numerator) / (2 + epsilon).denominator
             * rho / (3 * th * mpmath.log(rho)))
        lnk = x if k is None else mpmath.log(k)
        A = lnk - 2 * mpmath.log(lnk)
        return th * (mpmath.exp(A) - 1) / (A * mpmath.exp(lnk))


@pytest.fixture(scope="session")
def target_coefficients():
    """Leading coefficients of the three bundled targets, computed once."""
    out = {}
    for name, target in TARGETS.items():
        out[name] = leading_coefficient(target.test_function(), target.params(), target.variant)
    return out
