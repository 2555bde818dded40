"""Reference computations for the benchmark's checks, made apart from e2sieve.

Nothing here imports e2sieve.  Polynomials go through sympy's own parser and
`Poly` type instead of `SymPoly`; simplex integrals use the Dirichlet formula
directly; outer integrals are done by mpmath quadrature in t = ln(xi) instead
of the program's partial-fraction closed form; primes, E2 numbers and beta
numbers come from the plain sieves below.  sympy and mpmath are imported
inside the functions, so importing this module costs nothing before a pass's
timed calls.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

# ---------------------------------------------------------------------------
# Simplex integrals
# ---------------------------------------------------------------------------


def dirichlet(exponents) -> Fraction:
    """Integral of u1^a1 ... uk^ak over the solid k-simplex."""
    num = 1
    for a in exponents:
        num *= math.factorial(a)
    return Fraction(num, math.factorial(len(exponents) + sum(exponents)))


def _fraction(coeff) -> Fraction:
    return Fraction(int(coeff.p), int(coeff.q))


def sympy_poly(expression: str, k: int):
    """(Poly, symbols) for an expression in u1..uk and power sums P1..Pk."""
    import sympy

    u = sympy.symbols(f"u1:{k + 1}")
    names = {f"u{i + 1}": u[i] for i in range(k)}
    names.update({f"P{j}": sum(ui ** j for ui in u) for j in range(1, k + 1)})
    expr = sympy.parse_expr(expression, local_dict=names)
    return sympy.Poly(expr, *u, domain="QQ"), u


def _simplex_integral(poly) -> Fraction:
    return sum((_fraction(c) * dirichlet(m) for m, c in poly.terms()), Fraction(0))


def _antiderivative_at(F, u, m: int):
    """(A(1 - s), A, the other coordinates): A is the u_m-antiderivative of F, s the others' sum."""
    import sympy

    um = u[m - 1]
    others = [ui for i, ui in enumerate(u) if i != m - 1]
    A = F.integrate(um)
    upper = sympy.Poly(A.as_expr().subs(um, 1 - sum(others)), *others, domain="QQ")
    return upper, A, others


def exact_I(expression: str, k: int) -> Fraction:
    F, _u = sympy_poly(expression, k)
    return _simplex_integral(F * F)


def exact_J(expression: str, k: int, m: int) -> Fraction:
    """J^(m): the square of int_0^{1-s} F du_m, integrated over the (k-1)-simplex."""
    F, u = sympy_poly(expression, k)
    upper, _A, _others = _antiderivative_at(F, u, m)
    return _simplex_integral(upper * upper)


def inner_G(expression: str, k: int, m: int, kind: str) -> list[Fraction]:
    """Coefficients in a of G_L(a) or G_M(a).

    G is the integral over {u_i >= 0 (i != m), sum u_i <= 1 - a} of
    h1 * h2 (kind L) or h1^2 (kind M), where h1 = int_a^{1-s} F du_m and
    h2 = int_0^{1-s} F du_m.  Scaling u_i = (1 - a) v_i turns a monomial
    u^alpha a^j into a^j (1 - a)^(|alpha| + k - 1) times its Dirichlet value.
    """
    import sympy

    F, u = sympy_poly(expression, k)
    a = sympy.Symbol("a")
    upper, A, others = _antiderivative_at(F, u, m)
    ring = (*others, a)
    h2 = sympy.Poly(upper.as_expr(), *ring, domain="QQ")
    h1 = h2 - sympy.Poly(A.as_expr().subs(u[m - 1], a), *ring, domain="QQ")
    q = h1 * h2 if kind == "L" else h1 * h1
    coeffs: dict[int, Fraction] = Counter()
    for monom, c in q.terms():
        alpha, j = monom[:-1], monom[-1]
        val = _fraction(c) * dirichlet(alpha)
        n = sum(alpha) + k - 1
        for i in range(n + 1):  # a^j (1 - a)^n expanded by the binomial theorem
            coeffs[j + i] += val * math.comb(n, i) * (-1) ** i
    return [coeffs[i] for i in range(max(coeffs, default=-1) + 1)]


def outer_quad(G: list[Fraction], kind: str, eta: Fraction, c: Fraction):
    """int_eta^c c^p G(xi/c) / (xi (1 - xi)) dxi (p = 1 for L, 2 for M) by quadrature.

    With xi = e^t the integrand becomes P(e^t) / (1 - e^t), smooth on
    [ln eta, ln c] however small eta is.
    """
    import mpmath

    power = 1 if kind == "L" else 2
    with mpmath.workdps(30):
        cm = mpmath.mpf(c.numerator) / c.denominator
        coeffs = [mpmath.mpf(g.numerator) / g.denominator * cm ** (power - i)
                  for i, g in enumerate(G)]

        def integrand(t):
            x = mpmath.exp(t)
            acc = mpmath.mpf(0)
            for coeff in reversed(coeffs):
                acc = acc * x + coeff
            return acc / (1 - x)

        lo = mpmath.log(mpmath.mpf(eta.numerator) / eta.denominator)
        return mpmath.quad(integrand, [lo, mpmath.log(cm)])


# ---------------------------------------------------------------------------
# Sieves
# ---------------------------------------------------------------------------


def prime_flags(limit: int) -> bytearray:
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def e2_numbers(limit: int, flags: bytearray | None = None) -> list[int]:
    """Products p*q <= limit of primes p < q, ascending."""
    flags = flags if flags is not None and len(flags) > limit else prime_flags(limit)
    primes = [n for n in range(2, limit // 2 + 1) if flags[n]]
    out = []
    for i, p in enumerate(primes):
        if p * p >= limit:
            break
        for q in primes[i + 1:]:
            if p * q > limit:
                break
            out.append(p * q)
    out.sort()
    return out


def smallest_factors(limit: int) -> list[int]:
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for n in range(p * p, limit + 1, p):
                if spf[n] == n:
                    spf[n] = p
    return spf


def floor_power(N: int, exponent: Fraction) -> int:
    """floor(N^exponent) by bisection on integers."""
    lo, hi = 0, N + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** exponent.denominator <= N ** exponent.numerator:
            lo = mid
        else:
            hi = mid
    return lo


def beta_flag(v: int, N: int, Y: int, spf: list[int]) -> bool:
    """v = p1 p2 with Y < p1, p1^2 <= N < p2^2, p1 < p2 both prime."""
    p1 = spf[v]
    if p1 == v or p1 <= Y or p1 * p1 > N:
        return False
    p2 = v // p1
    return p2 != p1 and p2 * p2 > N and spf[p2] == p2


def squarefree(n: int) -> bool:
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------------------
# Scan references
# ---------------------------------------------------------------------------


def gap_report(limit: int, rho: int) -> dict:
    seq = e2_numbers(limit)
    gaps = [seq[i + rho] - seq[i] for i in range(len(seq) - rho)]
    low = min(gaps)
    i0 = gaps.index(low)
    return {"min_gap": low, "argmin": seq[i0:i0 + rho + 1],
            "histogram": {str(g): c for g, c in sorted(Counter(gaps).items())},
            "scanned": len(gaps)}


def hit_report(shifts: tuple[int, ...], limit: int, threshold: int) -> dict:
    top = limit + max(shifts)
    flags = prime_flags(top)
    members = bytearray(flags)
    for n in e2_numbers(top, flags):
        members[n] = 1
    count, witnesses = 0, []
    for n in range(1, limit + 1):
        if sum(members[n + h] for h in shifts) >= threshold:
            count += 1
            if len(witnesses) < 10:
                witnesses.append(n)
    return {"count": count, "witnesses": witnesses}


def bv_report(N: int, theta: Fraction, universe: str, eta: Fraction | None) -> dict:
    """Max discrepancy over coprime residues for squarefree q <= N^theta."""
    import numpy as np

    if universe == "primes":
        flags = prime_flags(2 * N)
        values = [n for n in range(N, 2 * N) if flags[n]]
    else:
        spf = smallest_factors(2 * N)
        Y = floor_power(N, eta)
        values = [v for v in range(N + 1, 2 * N + 1) if beta_flag(v, N, Y, spf)]
    arr = np.array(values, dtype=np.int64)
    rows, weighted = {}, Fraction(0)
    for q in range(1, floor_power(N, theta) + 1):
        if not squarefree(q):
            continue
        counts = np.bincount(arr % q, minlength=q)
        coprime = [a for a in range(q) if math.gcd(a, q) == 1]
        total = len(values) if universe == "primes" else int(sum(counts[a] for a in coprime))
        ref = Fraction(total, len(coprime))
        worst = max(abs(int(counts[a]) - ref) for a in coprime)
        rows[q] = worst
        weighted += worst
    return {"rows": rows, "weighted_sum": weighted}


# ---------------------------------------------------------------------------
# Weighted sums from a lambda table
# ---------------------------------------------------------------------------


def crt(residues, moduli) -> tuple[int, int] | None:
    """Solve n = r_i (mod m_i); (r, lcm) or None when incompatible."""
    r, M = 0, 1
    for ri, mi in zip(residues, moduli):
        g = math.gcd(M, mi)
        if (ri - r) % g:
            return None
        step = mi // g
        t = ((ri - r) // g * pow(M // g, -1, step)) % step if step > 1 else 0
        r, M = r + M * t, M * step
        r %= M
    return r, M


def count_progression(lo: int, hi: int, r: int, M: int) -> int:
    """#{n in [lo, hi) : n = r (mod M)}."""
    return (hi - 1 - r) // M - (lo - 1 - r) // M


def s0_dual(N: int, shifts, W: int, nu0: int, lam: dict) -> Fraction:
    """S0 = sum_{d,e} lam_d lam_e #{n in [N, 2N): n = nu0 (W), [d_i, e_i] | n + h_i}."""
    items = list(lam.items())
    total = Fraction(0)
    for d, ld in items:
        for e, le in items:
            moduli = [W] + [di * ei // math.gcd(di, ei) for di, ei in zip(d, e)]
            residues = [nu0] + [-h for h in shifts]
            sol = crt(residues, moduli)
            if sol is not None:
                total += ld * le * count_progression(N, 2 * N, *sol)
    return total


def default_W(N: int) -> int:
    D0 = max(2, math.floor(math.log(math.log(math.log(N)))))
    W = 1
    for p in range(2, D0 + 1):
        if all(p % q for q in range(2, p)):
            W *= p
    return W


def window_sums(N: int, shifts, eta: Fraction, W: int, nu0: int, lam: dict) -> dict:
    """S1, S2 and the four parts of each S2, summed over n in [N, 2N), n = nu0 (W).

    a(n) = sum of lam_d over d with d_i | n + h_i is built by walking, for each
    d, the progression of n it divides (CRT), instead of factoring each n.
    """
    k = len(shifts)
    start = N + (nu0 - N) % W
    window = range(start, 2 * N, W)
    den = 1
    for v in lam.values():
        den = den * v.denominator // math.gcd(den, v.denominator)
    a = [0] * len(window)
    a1 = [[0] * len(window) for _ in range(k)]   # a(n) with the m-th modulus pinned to 1
    for d, v in lam.items():
        sol = crt([nu0] + [-h for h in shifts], [W] + list(d))
        if sol is None:
            continue
        r, M = sol
        iv = int(v * den)
        first = start + (r - start) % M
        ones = [m for m in range(k) if d[m] == 1]
        for n in range(first, 2 * N, M):
            idx = (n - start) // W
            a[idx] += iv
            for m in ones:
                a1[m][idx] += iv
    top = 2 * N + max(shifts)
    spf = smallest_factors(top)
    Y = floor_power(N, eta)
    den2 = den * den
    S1, S2, parts = [], [], []
    for m, h in enumerate(shifts):
        s1 = s2 = p1 = p3 = p4 = 0
        for idx, n in enumerate(window):
            v = n + h
            w = a[idx] * a[idx]
            if spf[v] == v:
                s1 += w
            if beta_flag(v, N, Y, spf):
                s2 += w
                one = a1[m][idx]
                rest = a[idx] - one
                p1 += rest * one
                p3 += one * one
                p4 += rest * rest
        S1.append(Fraction(s1, den2))
        S2.append(Fraction(s2, den2))
        parts.append({"I": Fraction(p1, den2), "II": Fraction(p1, den2),
                      "III": Fraction(p3, den2), "IV": Fraction(p4, den2)})
    return {"S1": S1, "S2": S2, "parts": parts, "n_scanned": len(window)}
