"""Shared fixtures and independent oracles for the test suite."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from e2sieve import TARGETS, leading_coefficient
from e2sieve.algebra import LogLinear, SymPoly, TestFunction, definite_integral_one_var
from e2sieve.numth import factor_table
from e2sieve.simplex import integrate_out, monomial_simplex_integral

ROOT = Path(__file__).resolve().parents[1]


def run_with_src(argv) -> subprocess.CompletedProcess:
    """Run the interpreter on argv from the repository root, with src on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)


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
    inner = integrate_out(F.poly, var)
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
    q = h1 * (h1 if kind == "M" else h1.substitute(k, 0))
    one_minus_a = 1 - SymPoly.variable(1, 0)
    total = SymPoly.zero(1)
    for exps, c in q.terms.items():
        u_part = exps[:var] + exps[var + 1:k]
        total = total + (c * monomial_simplex_integral(u_part) * SymPoly.variable(1, 0) ** exps[k]
                         * one_minus_a ** sum(u_part))
    return total * one_minus_a ** (k - 1)


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


def permuted(p: SymPoly, perm) -> SymPoly:
    """Relabel variables: new variable perm[i] receives old variable i."""
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, c in p.terms.items():
        ne = [0] * p.nvars
        for i, e in enumerate(exps):
            ne[perm[i]] = e
        out[tuple(ne)] = c
    return SymPoly(p.nvars, out)


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


@pytest.fixture(scope="session")
def target_coefficients():
    """Leading coefficients of the three bundled targets, computed once."""
    out = {}
    for name, target in TARGETS.items():
        out[name] = leading_coefficient(target.test_function(), target.params(), target.variant)
    return out
