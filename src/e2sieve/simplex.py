"""Integration over the solid simplex R_k = {u_i >= 0, u_1 + ... + u_k <= 1}.

Monomials have the Dirichlet closed form  int_{R_k} u^alpha du = alpha! / (k + |alpha|)!,
so the quadratic functionals of F = sum_alpha c_alpha u^alpha are sums over
pairs of its terms, with nothing expanded:

    I_k(F)     = int_{R_k} F^2 = sum c_alpha c_beta (alpha+beta)! / (k+|alpha|+|beta|)!,
    J_k^(m)(F) = int_{R_{k-1}} (int_0^{1-s} F du_m)^2 = G_L(0),   s = sum_{i != m} u_i.

For the inner functionals G_L, G_M of `functionals`, write a term as
c_alpha u'^alpha' u_m^e, rescale the other coordinates u' = (1 - a) v and keep
the slack tau = 1 - sum v as a Dirichlet coordinate, int v^gamma tau^n =
gamma! n! / (k-1+|gamma|+n)!.  As 1 - s = a + (1 - a) tau, a binomial expansion gives

    G_X(a) = sum_{alpha,beta} c_alpha c_beta / ((e+1)(f+1))
             sum_n kappa^X_n gamma! n! / (k-1+|gamma|+n)! (1-a)^(k-1+|gamma|+n) a^(e+f+2-n),
    kappa^L_n = C(e+f+2, n) - C(f+1, n),
    kappa^M_n = C(e+f+2, n) - C(e+1, n) - C(f+1, n) + [n = 0],

with gamma = alpha' + beta' and f the exponent of u_m in beta.  A pair enters
only through gamma!, |gamma|, e and f, so the sums are kept as ints per key
(e, f, |gamma|) over one denominator.  F and each pair's contribution are
invariant under permutations within F's swap classes, so one side of the sum
runs over orbit representatives weighted by orbit size (for an F fixed by no
swap, the plain pair sum).  A spacings-based Monte Carlo estimator
cross-checks I and J numerically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, prod
from operator import add
from typing import Callable, Sequence

import numpy as np

from .algebra import (BudgetExceeded, SymPoly, TestFunction, _int_numerators,
                      definite_integral_one_var)

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


def integrate_out(p: SymPoly, var: int) -> SymPoly:
    """int_0^{1-s} p du_var with s the sum of the other coordinates, exactly."""
    upper = SymPoly.constant(p.nvars, 1)
    for i in range(p.nvars):
        if i != var:
            upper = upper - SymPoly.variable(p.nvars, i)
    return definite_integral_one_var(p, var, 0, upper)


def _swap_representatives(poly: SymPoly) -> list[int]:
    """For each coordinate m (1-based), the first r <= m whose swap with m fixes poly.

    Invariance under the swap of u_r and u_m is an equivalence relation, so m
    only needs testing against the representatives found so far.
    """
    reps: list[int] = []
    out: list[int] = []
    for m in range(poly.nvars):
        for r in reps:
            perm = list(range(poly.nvars))
            perm[r], perm[m] = m, r
            if all(poly.terms.get(tuple(map(exps.__getitem__, perm))) == c
                   for exps, c in poly.terms.items()):
                out.append(r + 1)
                break
        else:
            reps.append(m)
            out.append(m + 1)
    return out


# Most pairs (orbit representatives x terms) one kernel call may sum, about
# a second of work: (1 - P1)^7 at k = 6 needs 199,056 per coordinate.
_MAX_PAIRS = 1_000_000


def _orbit_representatives(poly: SymPoly, m: int | None,
                           swaps: list[int] | None = None) -> list[tuple[tuple[int, ...], int]]:
    """(exponents, orbit size) of each term of poly sorted within every swap class.

    The 0-based coordinate m, if given, is taken out of its class first.
    `swaps` is poly's `_swap_representatives`, found here when not given.
    """
    if swaps is None:
        swaps = _swap_representatives(poly)
    classes: dict[int, list[int]] = {}
    for i, r in enumerate(swaps):
        if i != m:
            classes.setdefault(r, []).append(i)
    classes = {r: idx for r, idx in classes.items() if len(idx) > 1}   # singletons fix every term
    out = []
    for exps in poly.terms:
        size = 1
        for idx in classes.values():
            run = [exps[i] for i in idx]
            if any(x < y for x, y in zip(run, run[1:])):
                break
            size *= _factorial(len(run)) // prod(map(_factorial, Counter(run).values()))
        else:
            out.append((exps, size))
    return out


def _pair_sums(poly: SymPoly, m: int | None,
               swaps: list[int]) -> tuple[dict[tuple[int, int, int], int], int]:
    """The pair sums S[(e, f, |gamma|)] as ints, and their common denominator.

    A term splits into its exponent e of the 0-based coordinate m and the
    rest (e = 0 and rest = all exponents when m is None).  S sums
    |orbit| n_alpha n_beta gamma! over representatives alpha and all terms
    beta, gamma = rest_alpha + rest_beta, n the coefficients' int numerators.
    `swaps` is poly's `_swap_representatives`.  Raises BudgetExceeded
    before the pair loop above _MAX_PAIRS pairs.
    """
    reps = _orbit_representatives(poly, m, swaps)
    if len(reps) * len(poly.terms) > _MAX_PAIRS:
        raise BudgetExceeded(f"{len(reps)} orbit representatives x {len(poly.terms)} terms "
                             f"exceeds the {_MAX_PAIRS} pairs of the simplex kernel")
    items, den = _int_numerators(poly.terms)

    def split(exps):
        return (0, exps) if m is None else (exps[m], exps[:m] + exps[m + 1:])

    groups: dict[tuple[int, int], list] = {}
    for exps, n in items:
        f, rest = split(exps)
        groups.setdefault((f, sum(rest)), []).append((rest, n))
    fact = [_factorial(i) for i in range(2 * poly.total_degree() + 1)].__getitem__
    numerators = dict(items)
    sums: dict[tuple[int, int, int], int] = {}
    for exps, size in reps:
        e, rest = split(exps)
        weight, g = size * numerators[exps], sum(rest)
        for (f, g2), group in groups.items():
            s = sum(n * prod(map(fact, map(add, rest, other))) for other, n in group)
            key = (e, f, g + g2)
            sums[key] = sums.get(key, 0) + weight * s
    return sums, den * den


def I_k(F: TestFunction) -> Fraction:
    """I_k(F) = int_{R_k} F^2, exactly, from the pair sums."""
    return _I_k(F, _swap_representatives(F.poly))


def _I_k(F: TestFunction, swaps: list[int]) -> Fraction:
    """I_k(F), given `swaps` = `_swap_representatives(F.poly)`."""
    sums, den = _pair_sums(F.poly, None, swaps)
    return sum((Fraction(s, _factorial(F.k + g)) for (_, _, g), s in sums.items()),
               Fraction(0)) / den


def inner_G(F: TestFunction, m: int, kinds: str) -> tuple[SymPoly, ...]:
    """The univariate G(a) of each inner kind in `kinds` ("L", "M" or "LM"), m 1-based.

    Both kinds share one pass of pair sums.
    """
    return _inner_G(F, m, kinds, _swap_representatives(F.poly))


def _inner_G(F: TestFunction, m: int, kinds: str, swaps: list[int]) -> tuple[SymPoly, ...]:
    """`inner_G`, given `swaps` = `_swap_representatives(F.poly)`."""
    k = F.k
    if not 1 <= m <= k:
        raise ValueError(f"m must be in 1..{k}")
    sums, den = _pair_sums(F.poly, m - 1, swaps)
    top = max((k + 1 + sum(key) for key in sums), default=0)   # the degree of G
    # every (e+1)(f+1) (k-1+|gamma|+n)! divides the common denominator
    common = lcm(*range(1, max((max(key[:2]) for key in sums), default=0) + 2)) ** 2
    common *= _factorial(top)
    scale = [common // _factorial(P) for P in range(top + 1)]
    out = []
    for kind in kinds:
        rows: dict[int, list[int]] = {}   # P -> numerators of (1-a)^P a^Q by Q
        for (e, f, g), s in sums.items():
            for n in range(e + f + 3):
                # kappa^L_n, less C(e+1, n) - [n = 0] for kappa^M_n
                c = (comb(e + f + 2, n) - comb(f + 1, n)
                     - (kind == "M") * (comb(e + 1, n) - (n == 0)))
                if c:
                    P = k - 1 + g + n
                    row = rows.setdefault(P, [0] * (top + 1))
                    row[e + f + 2 - n] += s * c * _factorial(n) * (scale[P] // ((e + 1) * (f + 1)))
        coeffs = zero = [0] * (top + 1)
        for P in range(top, -1, -1):   # Horner in (1 - a): coeffs (1 - a) + rows[P]
            coeffs = [x - y + z for x, y, z in zip(coeffs, [0] + coeffs, rows.get(P, zero))]
        out.append(SymPoly(1, {(i,): Fraction(c, common * den) for i, c in enumerate(coeffs) if c}))
    return tuple(out)


def J_k_m(F: TestFunction, m: int) -> Fraction:
    """J_k^(m)(F) = G_L(0) exactly, m 1-based; for k = 1 it is (int_0^1 F)^2."""
    return inner_G(F, m, "L")[0].terms.get((0,), Fraction(0))


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
# 2^14 is the measured optimum (thm1.2, I and J at 10^6 samples): 2^12 pays
# 20 % more in per-call overhead, 2^15 is level, 2^16 is 15 % slower, and
# 2^13 made the crosscheck benchmark's passes about 10 % slower.  The chunk
# buffers add about 4 MiB to the traced peak at 2^14 (thm1.2, kind I).
_MC_CHUNK = 1 << 14
# The statistics are taken on the array of squares in place, so a sample holds
# 8 bytes at the peak and 10^7 samples take about 80 MiB.
_MAX_MC_SAMPLES = 10 ** 7

Columns = list[np.ndarray]


def _column_sampler(dim: int, size: int) -> Callable[[np.random.Generator, int], Columns]:
    """sample(rng, rows) -> the dim coordinates of rows uniform points of R_dim.

    A point is the spacings of dim sorted uniforms.  The uniforms are drawn
    row-major, as one (rows, dim) draw would give them, and moved to columns
    once.  Min and max are exact, so the odd-even transposition network sorts
    to the same values as np.sort; the spacings are taken in place from right
    to left.  The columns live in the sampler's buffers (rows <= size) and
    are overwritten by its next call.
    """
    u = np.empty((size, dim))
    block = np.empty((dim + 1, size))

    def sample(rng: np.random.Generator, rows: int) -> Columns:
        draw = u[:rows]
        rng.random((rows, dim), out=draw)
        np.copyto(block[:dim, :rows], draw.T)
        cols = [block[i, :rows] for i in range(dim)]
        spare = block[dim, :rows]
        for p in range(dim):
            for i in range(p % 2, dim - 1, 2):
                a, b = cols[i], cols[i + 1]
                np.minimum(a, b, out=spare)
                np.maximum(a, b, out=b)
                cols[i], spare = spare, a
        for i in range(dim - 1, 0, -1):
            np.subtract(cols[i], cols[i - 1], out=cols[i])
        return cols

    return sample


def _term_evaluator(p: SymPoly, drop: int | None, size: int) -> Callable[[Columns], np.ndarray]:
    """evaluate(cols) -> p at the points whose coordinates are cols (rows <= size).

    The 0-based coordinate `drop`, if given, is one that no term involves and
    that cols leave out; at least one coordinate remains.  Terms are planned
    once: the float coefficient and the table rows of the nonzero powers.
    x^e is x^(e-1) x, and x^1 is the column itself.  Each term is formed as
    coefficient times its powers in coordinate order, and the terms are
    added in sorted-key order.  The result lives in the evaluator's buffer
    and is overwritten by its next call.
    """
    keep = [j for j in range(p.nvars) if j != drop]
    dim = len(keep)
    keys = sorted(p.terms)
    degree = [max((e[j] for e in keys), default=0) for j in keep]
    # table rows: the dim columns, then x_j^e for e = 2 .. degree[j], j ascending
    index: dict[tuple[int, int], int] = {(j, 1): j for j in range(dim)}
    chains = []   # (source row, column) per power row, in table order
    for j in range(dim):
        for e in range(2, degree[j] + 1):
            index[(j, e)] = dim + len(chains)
            chains.append((index[(j, e - 1)], j))
    plan = [(float(p.terms[key]), [index[(j, key[c])] for j, c in enumerate(keep) if key[c]])
            for key in keys]
    powers = np.empty((len(chains), size))
    buf, out = np.empty(size), np.empty(size)

    def evaluate(cols: Columns) -> np.ndarray:
        rows = len(cols[0])
        table = list(cols) + [powers[t, :rows] for t in range(len(chains))]
        for t, (src, j) in enumerate(chains):
            np.multiply(table[src], table[j], out=table[dim + t])
        acc, term = out[:rows], buf[:rows]
        acc.fill(0.0)
        for c, factors in plan:
            if not factors:
                acc += c
                continue
            np.multiply(table[factors[0]], c, out=term)
            for f in factors[1:]:
                np.multiply(term, table[f], out=term)
            acc += term
        return acc

    return evaluate


def _squares(p: SymPoly, drop: int | None, dim: int, samples: int,
             rng: np.random.Generator) -> np.ndarray:
    """p^2 at `samples` uniform points of R_dim, drawn and evaluated in chunks.

    The chunk buffers are freed on return, so the peak is this one array of
    the full sample count plus one chunk's buffers.
    """
    sq = np.empty(samples)
    size = min(_MC_CHUNK, samples)
    sample = _column_sampler(dim, size)
    evaluate = _term_evaluator(p, drop, size)
    for start in range(0, samples, _MC_CHUNK):
        rows = min(_MC_CHUNK, samples - start)
        vals = evaluate(sample(rng, rows))
        np.multiply(vals, vals, out=sq[start:start + rows])
    return sq


def check_mc_samples(samples: int) -> None:
    """Raise unless mc_simplex_integral accepts this many samples.

    ValueError below 10^4; BudgetExceeded above _MAX_MC_SAMPLES (8 bytes a
    sample at the peak).
    """
    if samples < 10_000:
        raise ValueError("samples must be >= 10000")
    if samples > _MAX_MC_SAMPLES:
        raise BudgetExceeded(f"{samples} Monte Carlo samples exceed the budget of "
                             f"{_MAX_MC_SAMPLES} (8 bytes each)")


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
    simplex volume.  The estimate depends only on (F, kind, samples, seed,
    m), bit for bit: it is the same for every chunk size, and the column-
    major sampler and the planned evaluator do the same float operations in
    the same order as one (samples, dim) draw through np.sort, np.diff and
    per-term products, the path that the pinned figures were recorded with.
    The mean and std(ddof=1) are numpy's, step for step, taken in place on
    the array of squares.  Raises as check_mc_samples does, before
    allocating.
    """
    check_mc_samples(samples)
    if kind not in ("I", "J"):
        raise ValueError("kind must be 'I' or 'J'")
    rng = np.random.default_rng(seed)
    k = F.k
    base, drop = F.poly, None
    if kind == "J":
        if m is None or not 1 <= m <= k:
            raise ValueError(f"kind 'J' needs m in 1..{k}")
        base, drop = integrate_out(F.poly, m - 1), m - 1
        if k == 1:
            v = float(base.constant_value()) ** 2
            return MCEstimate(value=v, stderr=0.0, samples=samples, seed=seed, kind="J", m=m)
    dim = k if drop is None else k - 1
    sq = _squares(base, drop, dim, samples, rng)
    vol = 1.0 / float(_factorial(dim))
    # numpy's _var: the mean as add.reduce / n, the deviations squared in
    # place, their add.reduce / (n - 1), then sqrt; sq.std would copy sq
    mean = np.add.reduce(sq) / samples
    np.subtract(sq, mean, out=sq)
    np.square(sq, out=sq)
    std = np.sqrt(np.add.reduce(sq) / (samples - 1))
    value = vol * float(mean)
    stderr = vol * float(std) / float(np.sqrt(samples))
    return MCEstimate(value=value, stderr=stderr, samples=samples, seed=seed, kind=kind, m=m)
