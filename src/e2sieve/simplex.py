"""Integration over the solid simplex R_k = {u_i >= 0, u_1 + ... + u_k <= 1}.

Monomial integrals have the classical Dirichlet closed form

    int_{R_k} u1^a1 * ... * uk^ak du  =  (prod_i a_i!) / (k + sum_i a_i)!

which turns every polynomial integral into a finite exact sum over terms.
The two quadratic functionals the sieve analysis needs are

    I_k(F)     = int_{R_k} F(u)^2 du
    J_k^(m)(F) = int_{R_{k-1}} ( int_0^{1-s} F dt_m )^2 du_others,
                 s = sum_{i != m} u_i,

both computed exactly here for polynomial F.  A spacings-based Monte Carlo
estimator provides an independent numerical cross-check of the same
quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import RationalLike, SymPoly, TestFunction, definite_integral_one_var

# ---------------------------------------------------------------------------
# Exact integrals
# ---------------------------------------------------------------------------

_FACTORIALS: list[int] = [1, 1]


def _factorial(n: int) -> int:
    while len(_FACTORIALS) <= n:
        _FACTORIALS.append(_FACTORIALS[-1] * len(_FACTORIALS))
    return _FACTORIALS[n]


def monomial_simplex_integral(exponents: Sequence[int]) -> Fraction:
    """Exact integral of u1^a1 ... uk^ak over the solid k-simplex."""
    exponents = tuple(exponents)
    if any(e < 0 for e in exponents):
        raise ValueError("exponents must be non-negative")
    k = len(exponents)
    num = 1
    for e in exponents:
        num *= _factorial(e)
    return Fraction(num, _factorial(k + sum(exponents)))


def integrate_poly_simplex(p: SymPoly) -> Fraction:
    """Exact integral of a polynomial over the solid simplex in all its variables."""
    total = Fraction(0)
    for exps, c in p.terms.items():
        total += c * monomial_simplex_integral(exps)
    return total


def _integrate_poly_simplex_excluding(p: SymPoly, skip: int) -> Fraction:
    """Integrate p over the solid simplex of all variables except `skip`.

    p must not involve variable `skip` (exponent 0 everywhere).
    """
    total = Fraction(0)
    for exps, c in p.terms.items():
        if exps[skip] != 0:
            raise ValueError("polynomial still involves the skipped variable")
        reduced = exps[:skip] + exps[skip + 1:]
        total += c * monomial_simplex_integral(reduced)
    return total


def integrate_out(p: SymPoly, var: int, k: int, lower: SymPoly | RationalLike = 0) -> SymPoly:
    """int_lower^{1-s} p du_var with s = sum_{i < k, i != var} u_i, exactly.

    The first k variables are the simplex coordinates; any further variable
    (such as a substitution offset) is a parameter and may appear in `lower`.
    The result no longer involves u_var.
    """
    upper = SymPoly.constant(p.nvars, 1)
    for i in range(k):
        if i != var:
            upper = upper - SymPoly.variable(p.nvars, i)
    return definite_integral_one_var(p, var, lower, upper)


def I_k(F: TestFunction) -> Fraction:
    """I_k(F) = int_{R_k} F^2, exactly."""
    return integrate_poly_simplex(F.poly * F.poly)


def J_k_m(F: TestFunction, m: int) -> Fraction:
    """J_k^(m)(F): square of the m-th one-variable average, integrated exactly.

    m is 1-based.  The inner integral int_0^{1-s} F dt_m (s = sum of the
    other coordinates) is computed symbolically, squared, and integrated
    over the remaining (k-1)-simplex via the Dirichlet formula.  For k = 1
    the outer simplex is a point and the result is just the square of
    int_0^1 F.
    """
    k = F.k
    if not 1 <= m <= k:
        raise ValueError(f"m must be in 1..{k}")
    var = m - 1
    inner = integrate_out(F.poly, var, k)
    squared = inner * inner
    if k == 1:
        return squared.constant_value()
    return _integrate_poly_simplex_excluding(squared, var)


@dataclass(frozen=True)
class SimplexIntegralResult:
    """An exact simplex-functional value with its provenance attached."""

    value: Fraction
    k: int
    kind: str          # "I" or "J"
    m: int | None = None

    def __post_init__(self):
        if self.kind not in ("I", "J"):
            raise ValueError("kind must be 'I' or 'J'")
        if (self.kind == "J") != (self.m is not None):
            raise ValueError("m must be given exactly for kind 'J'")


def simplex_integral(F: TestFunction, kind: str, m: int | None = None) -> SimplexIntegralResult:
    """Convenience wrapper returning a tagged result record."""
    if kind == "I":
        return SimplexIntegralResult(value=I_k(F), k=F.k, kind="I")
    if kind == "J":
        if m is None:
            raise ValueError("kind 'J' needs m")
        return SimplexIntegralResult(value=J_k_m(F, m), k=F.k, kind="J", m=m)
    raise ValueError("kind must be 'I' or 'J'")


# ---------------------------------------------------------------------------
# Monte Carlo cross-check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    samples: int
    seed: int
    kind: str
    m: int | None = None


# Samples are drawn and evaluated this many rows at a time, so the memory of a
# call stays bounded whatever the sample count.  The generator yields the same
# rows in chunks as in one draw, so the estimate does not depend on the size.
_MC_CHUNK = 1 << 16


def _compile_poly(p: SymPoly) -> tuple[np.ndarray, np.ndarray]:
    """(exponent matrix, float coefficient vector) for vectorized evaluation."""
    if p.is_zero():
        return np.zeros((0, p.nvars), dtype=np.int64), np.zeros(0)
    exps = np.array(sorted(p.terms), dtype=np.int64)
    coeffs = np.array([float(p.terms[tuple(e)]) for e in exps])
    return exps, coeffs


def _eval_poly_array(exps: np.ndarray, coeffs: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Evaluate a compiled polynomial at the rows of X (n x nvars) using power tables."""
    n, nv = X.shape
    if len(coeffs) == 0:
        return np.zeros(n)
    max_deg = exps.max(axis=0)
    powers = []
    for j in range(nv):
        tab = np.empty((max_deg[j] + 1, n))
        tab[0] = 1.0
        for e in range(1, max_deg[j] + 1):
            tab[e] = tab[e - 1] * X[:, j]
        powers.append(tab)
    out = np.zeros(n)
    for t in range(len(coeffs)):
        term = np.full(n, coeffs[t])
        for j in range(nv):
            e = exps[t, j]
            if e:
                term = term * powers[j][e]
        out += term
    return out


def _sample_solid_simplex(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n uniform points in {x_i >= 0, sum x_i <= 1} via sorted-uniform spacings."""
    u = np.sort(rng.random((n, dim)), axis=1)
    return np.diff(u, axis=1, prepend=0.0)


def mc_simplex_integral(
    F: TestFunction,
    kind: str,
    samples: int,
    seed: int,
    m: int | None = None,
) -> MCEstimate:
    """Monte Carlo estimate of I_k(F) or J_k^(m)(F) with a standard error.

    kind "I": average of F^2 over uniform simplex samples, times vol(R_k).
    kind "J": the inner integral is done exactly (it is a polynomial), and
    the square is averaged over the (k-1)-simplex.  The estimator is
    unbiased; stderr is the sample standard error (ddof=1) scaled by the
    simplex volume.
    """
    if samples < 10_000:
        raise ValueError("samples must be >= 10000")
    if kind not in ("I", "J"):
        raise ValueError("kind must be 'I' or 'J'")
    rng = np.random.default_rng(seed)
    k = F.k

    if kind == "I":
        dim = k
        base = F.poly
    else:
        if m is None or not 1 <= m <= k:
            raise ValueError(f"kind 'J' needs m in 1..{k}")
        var = m - 1
        inner = integrate_out(F.poly, var, k)
        # drop the integrated-out variable, keeping the others in order
        reduced_terms = {
            exps[:var] + exps[var + 1:]: c for exps, c in inner.terms.items()
        }
        base = SymPoly(k - 1, reduced_terms)
        dim = k - 1
        if dim == 0:
            v = float(base.constant_value()) ** 2
            return MCEstimate(value=v, stderr=0.0, samples=samples, seed=seed, kind="J", m=m)

    exps, coeffs = _compile_poly(base)
    sq = np.empty(samples)
    for start in range(0, samples, _MC_CHUNK):
        rows = min(_MC_CHUNK, samples - start)
        vals = _eval_poly_array(exps, coeffs, _sample_solid_simplex(rng, rows, dim))
        np.multiply(vals, vals, out=sq[start:start + rows])
    vol = 1.0 / float(_factorial(dim))
    value = vol * float(sq.mean())
    stderr = vol * float(sq.std(ddof=1)) / float(np.sqrt(samples))
    return MCEstimate(value=value, stderr=stderr, samples=samples, seed=seed, kind=kind, m=m)
