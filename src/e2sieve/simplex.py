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
(e, f, |gamma|) over one denominator.  gamma! reads alpha only through its
rest alpha' = alpha without u_m, so the terms that share a rest share one
inner sum.  As (alpha+beta)! = (e+f)! gamma!, the same sums give

    I_k(F) = sum_{(e, f, |gamma|)} S (e+f)! / (k+e+f+|gamma|)!

at every coordinate, so `pair_pass` returns I, G_L and G_M from one pass,
the L and M rows of G filled in one loop over (key, n).  F is invariant under
the permutations within its swap classes, u_m taken out of its class, so its
terms are grouped once into orbits and the sum runs over pairs of orbits:
alpha's orbit size times one representative, and beta's whole orbit, whose
sum of gamma! is a product over the classes.  A lone coordinate gives
(a + b)!.  A class of s coordinates, where alpha has the nonzero parts a and
beta's orbit the parts b, gives the sum over placements of b's parts on a's
coordinates or on the s - len(a) free ones, counted there by the falling
factorial (s - len(a))_r over the parts' multiplicities.  A symmetric F thus
costs (orbits)^2 small sums whatever k is, and an F fixed by no swap the plain
pair sum.  A spacings-based Monte Carlo estimator cross-checks I and J
numerically; for J, `integrate_out` first integrates out u_m exactly by
int_0^{1-s} u^e du = (1-s)^(e+1)/(e+1), the 1/(e+1) above.
Where os.fork exists, the process may run on two CPUs and the samples span
two chunks, a forked child draws and evaluates the second half of the
samples from the same random stream, jumped ahead, so the estimate is the
same bit for bit with or without it.  The child's memory is not counted in
the parent's ru_maxrss.
"""

from __future__ import annotations

import gc
import mmap
import os
import traceback
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import add
from typing import Callable

import numpy as np

from .algebra import _MAX_TOP, BudgetExceeded, SymPoly, TestFunction, _arrangements, _orbits

# ---------------------------------------------------------------------------
# Exact integrals
# ---------------------------------------------------------------------------

def integrate_out(p: SymPoly, var: int) -> SymPoly:
    """int_0^{1-s} p du_var with s the sum of the other coordinates, exactly.

    Term by term int_0^{1-s} u^e du = (1-s)^(e+1) / (e+1): the terms with
    exponent e of u_var, weighted by 1/(e+1), are summed by Horner in (1 - s).
    The result is a polynomial in the other p.nvars - 1 coordinates, in order.
    """
    n = p.nvars - 1
    groups: dict[int, dict[tuple[int, ...], int]] = {}
    for exps, num in p.numerators.items():
        groups.setdefault(exps[var], {})[exps[:var] + exps[var + 1:]] = num
    slack = 1 - sum((SymPoly.variable(n, i) for i in range(n)), SymPoly.zero(n))
    acc = SymPoly.zero(n)
    for e in range(max(groups, default=-1), -1, -1):
        acc = acc * slack + SymPoly._make(n, (groups.get(e, {}), p.denominator * (e + 1)))
    return acc * slack


# Most pairs (distinct rests of alpha x orbits of beta) one kernel call may
# sum: 10^6 take 0.4 s at k = 6 and 0.85 s at k = 20 for an F fixed by no
# swap (2-CPU Xeon).  (1 - P1)^7 at k = 6 needs 4,872 per coordinate.
_MAX_PAIRS = 1_000_000


@lru_cache(maxsize=1 << 12)
def _placements(size: int, a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Sum of prod (a_i + b_i)! over the distinct placements of b's parts on a class of `size`.

    a and b are sorted nonzero parts, a's on coordinates of their own.  Each
    of a's parts in turn takes one of b's that is left, or none; the parts
    left at the end go to the free coordinates in _arrangements ways.
    """
    left = {b: 1}
    for x in a:
        step: dict[tuple[int, ...], int] = {}
        for rest, w in left.items():
            step[rest] = step.get(rest, 0) + w * factorial(x)
            for i, y in enumerate(rest):
                if i == 0 or y != rest[i - 1]:
                    r = rest[:i] + rest[i + 1:]
                    step[r] = step.get(r, 0) + w * factorial(x + y)
        left = step
    return sum(w * _arrangements(size - len(a), rest) * prod(map(factorial, rest)) for rest, w in left.items())


def _pair_sums(poly: SymPoly, m: int,
               swaps: list[int]) -> tuple[dict[tuple[int, int, int], int], int]:
    """The pair sums S[(e, f, |gamma|)] as ints, and their common denominator.

    A term splits into its exponent e of the 0-based coordinate m and its
    rest.  S sums n_alpha n_beta gamma!, gamma = rest_alpha + rest_beta, n
    the int numerators, over the orbits of alpha, weighted by their size,
    and of beta, both grouped once under poly's swap classes `swaps` with m
    taken out of its class.  An orbit of beta sums to the product of (a + b)!
    over the lone coordinates and of _placements over the classes.  Raises
    BudgetExceeded before the pair loop above _MAX_PAIRS pairs.
    """
    labels = list(swaps)
    labels[m] = 0   # m alone in its class
    lone, classes, numerators = _orbits(poly, labels)
    j, n1, sizes = lone.index(m), len(lone), [len(c) for c in classes]
    uses: dict[tuple, list[tuple[int, int]]] = {}   # (e, n) per orbit, by rest (singles, parts)
    for key, n in numerators.items():
        uses.setdefault((key[:j] + key[j + 1:n1], key[n1:]), []).append((key[j], n))
    count = sum(map(len, uses.values()))
    if len(uses) * count > _MAX_PAIRS:
        raise BudgetExceeded(f"{len(uses)} rests x {count} orbits "
                             f"exceeds the {_MAX_PAIRS} pairs of the simplex kernel")
    groups: dict[tuple, dict[tuple[int, int], list]] = {}   # beta's by parts, then (f, |rest|)
    for (singles, parts), shared in uses.items():
        for f, n in shared:
            groups.setdefault(parts, {}).setdefault((f, sum(singles) + sum(map(sum, parts))), []).append((singles, n))
    factorial_of = [factorial(i) for i in range(2 * poly.total_degree() + 1)].__getitem__
    sums: dict[tuple[int, int, int], int] = {}
    # gamma! reads alpha only through its rest: one inner sum per rest and group
    for (singles, parts), shared in uses.items():
        g = sum(singles) + sum(map(sum, parts))
        size = prod(map(_arrangements, sizes, parts))
        for other_parts, by_key in groups.items():
            w = size * prod(map(_placements, sizes, parts, other_parts))
            for (f, g2), group in by_key.items():
                s = w * sum(n * prod(map(factorial_of, map(add, singles, other))) for other, n in group)
                for e, n in shared:
                    key = (e, f, g + g2)
                    sums[key] = sums.get(key, 0) + n * s
    return sums, poly.denominator ** 2


def pair_pass(F: TestFunction, m: int) -> tuple[Fraction, SymPoly, SymPoly]:
    """(I_k(F), G_L, G_M) from one pass of pair sums at coordinate m, 1-based.

    A pair's (alpha+beta)! is (e+f)! gamma!, so I is the sum of
    S[(e, f, |gamma|)] (e+f)! / (k+e+f+|gamma|)!, whatever the coordinate.
    The L and M rows of G are filled in one pass over (key, n).  Raises
    BudgetExceeded, before any pair sum, when G's degree exceeds _MAX_TOP,
    and as _pair_sums does.
    """
    k = F.k
    if not 1 <= m <= k:
        raise ValueError(f"m must be in 1..{k}")
    top = k + 1 + 2 * F.poly.total_degree()   # the degree of G, from the top-degree pair
    if top > _MAX_TOP:
        raise BudgetExceeded(f"F of degree {F.poly.total_degree()} at k = {k} gives G of degree {top}, "
                             f"which exceeds the degree budget {_MAX_TOP} of the simplex kernel")
    sums, den = _pair_sums(F.poly, m - 1, F.swaps)
    fact = [factorial(i) for i in range(top + 1)]
    whole = fact[max(top - 1, 0)]   # (k + |alpha+beta|)! for the largest pair
    I = Fraction(sum(s * fact[e + f] * (whole // fact[k + e + f + g])
                     for (e, f, g), s in sums.items()), whole * den)
    # every (e+1)(f+1) (k-1+|gamma|+n)! divides the common denominator
    common = lcm(*range(1, max((max(key[:2]) for key in sums), default=0) + 2)) ** 2 * fact[top]
    scale = [common // fact[P] for P in range(top + 1)]
    # rows[P][Q] is the numerator of (1-a)^P a^Q, for L then M; kappa^M_n is
    # kappa^L_n less C(e+1, n) - [n = 0], and kappa_0 = 0 for L and M
    rows_L, rows_M = ([[0] * (top + 1) for _ in range(top + 1)] for _ in "LM")
    plans: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}   # per (e, f), once
    for (e, f, g), s in sums.items():
        if (e, f) not in plans:   # (P - g, Q, kappa^L_n n!, kappa^M_n n!) per n
            plans[e, f] = [(k - 1 + n, e + f + 2 - n, (comb(e + f + 2, n) - comb(f + 1, n)) * fact[n],
                            (comb(e + f + 2, n) - comb(f + 1, n) - comb(e + 1, n)) * fact[n])
                           for n in range(1, e + f + 3)]
        d = (e + 1) * (f + 1)
        for P, Q, kappa_L, kappa_M in plans[e, f]:
            t = s * (scale[P + g] // d)
            rows_L[P + g][Q] += kappa_L * t
            rows_M[P + g][Q] += kappa_M * t

    def collapse(rows: list[list[int]]) -> SymPoly:
        coeffs = rows[top]
        for row in reversed(rows[:top]):   # Horner in (1 - a): coeffs (1 - a) + row
            coeffs = [x - y + z for x, y, z in zip(coeffs, [0] + coeffs, row)]
        return SymPoly._make(1, ({(i,): c for i, c in enumerate(coeffs)}, common * den))

    return I, collapse(rows_L), collapse(rows_M)


def I_k(F: TestFunction) -> Fraction:
    """I_k(F) = int_{R_k} F^2 exactly, read off the pair pass at coordinate 1."""
    return pair_pass(F, 1)[0]


def J_k_m(F: TestFunction, m: int) -> Fraction:
    """J_k^(m)(F) = G_L(0) exactly, m 1-based; for k = 1 it is (int_0^1 F)^2."""
    return pair_pass(F, m)[1].eval((0,))


# ---------------------------------------------------------------------------
# Monte Carlo cross-check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MCEstimate:
    value: float
    stderr: float
    samples: int


# Samples are drawn and evaluated this many rows at a time, so the memory of a
# call stays bounded whatever the sample count.  The generator yields the same
# rows in chunks as in one draw, so the estimate does not depend on the size.
# 2^14 is the measured optimum (thm1.2, I and J at 10^6 samples): 2^12 pays
# 20 % more in per-call overhead, 2^15 is level, 2^16 is 15 % slower, and
# 2^13 made the crosscheck benchmark's passes about 10 % slower.  The chunk
# buffers are the traced peak, about 3.4 MiB at 2^14 (thm1.2, kind I); the
# squares live in an anonymous mapping, which tracemalloc does not see.
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


def _term_evaluator(p: SymPoly, size: int) -> Callable[[Columns], np.ndarray]:
    """evaluate(cols) -> p at the points whose coordinates are cols (rows <= size).

    p has at least one coordinate.  Terms are planned once: the float
    coefficient (numerator / denominator, correctly rounded, so the float of
    the Fraction coefficient) and the table rows of the nonzero powers.  x^e is
    x^(e-1) x, and x^1 is the column itself.  Each term is formed as
    coefficient times its powers in coordinate order, and the terms are
    added in sorted-key order.  The result lives in the evaluator's buffer
    and is overwritten by its next call.
    """
    dim = p.nvars
    keys = sorted(p.numerators)
    degree = [max((e[j] for e in keys), default=0) for j in range(dim)]
    # table rows: the dim columns, then x_j^e for e = 2 .. degree[j], j ascending
    index: dict[tuple[int, int], int] = {(j, 1): j for j in range(dim)}
    chains = []   # (source row, column) per power row, in table order
    for j in range(dim):
        for e in range(2, degree[j] + 1):
            index[(j, e)] = dim + len(chains)
            chains.append((index[(j, e - 1)], j))
    plan = [(p.numerators[key] / p.denominator, [index[(j, e)] for j, e in enumerate(key) if e])
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


def _child_start(samples: int) -> int:
    """The first row that a forked child fills, or `samples` when no child runs.

    A child runs where os.fork exists, the process may run on two CPUs and the
    samples span two chunks.  It takes the later half of the chunks, the
    smaller half when their count is odd.
    """
    chunks = -(-samples // _MC_CHUNK)
    if (chunks < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2):
        return samples
    return (chunks + 1) // 2 * _MC_CHUNK


def _squares(p: SymPoly, samples: int, rng: np.random.Generator) -> np.ndarray:
    """p^2 at `samples` uniform points of R_dim, dim = p.nvars, drawn and evaluated in chunks.

    The squares live in one shared anonymous mapping.  Rows from
    _child_start(samples) on are filled by a forked child whose copy of the
    generator is advanced past the parent's rows (dim draws a row), so each
    row sees the same uniforms as in one pass; the parent fills the rows
    before and waits for the child, and raises if the child failed.  The
    chunk buffers are freed on return, so the peak is this one array of the
    full sample count plus one chunk's buffers in each process.
    """
    sq = np.frombuffer(mmap.mmap(-1, 8 * samples), dtype=np.float64)
    dim, size = p.nvars, min(_MC_CHUNK, samples)
    sample = _column_sampler(dim, size)
    evaluate = _term_evaluator(p, size)

    def fill(lo: int, hi: int) -> None:
        for start in range(lo, hi, _MC_CHUNK):
            rows = min(_MC_CHUNK, hi - start)
            vals = evaluate(sample(rng, rows))
            np.multiply(vals, vals, out=sq[start:start + rows])

    cut = _child_start(samples)
    if cut == samples:
        fill(0, samples)
        return sq
    gc.freeze()   # the child's collections skip the parent's objects and copy none of their pages
    pid = -1
    try:
        pid = os.fork()
    finally:
        if pid:   # the parent, or a failed fork
            gc.unfreeze()
    if pid == 0:
        code = 1
        try:
            rng.bit_generator.advance(cut * dim)
            fill(cut, samples)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    try:
        fill(0, cut)
    finally:
        status = os.waitpid(pid, 0)[1]
    if status:
        raise RuntimeError(f"the Monte Carlo child process failed (wait status {status})")
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
    On a host where this process may run on two CPUs, samples spanning two
    chunks are split between this process and a forked child (see _squares);
    the estimate is identical either way, and the child's memory is not in
    this process's ru_maxrss.  The mean and std(ddof=1) are numpy's, step for
    step, taken in place on the array of squares.  Raises as
    check_mc_samples does, before allocating.
    """
    check_mc_samples(samples)
    if kind not in ("I", "J"):
        raise ValueError("kind must be 'I' or 'J'")
    rng = np.random.default_rng(seed)
    k = F.k
    base = F.poly
    if kind == "J":
        if m is None or not 1 <= m <= k:
            raise ValueError(f"kind 'J' needs m in 1..{k}")
        base = integrate_out(F.poly, m - 1)   # in the k - 1 other coordinates
        if k == 1:
            v = float(base.constant_value()) ** 2
            return MCEstimate(value=v, stderr=0.0, samples=samples)
    sq = _squares(base, samples, rng)
    vol = 1.0 / float(factorial(base.nvars))
    # numpy's _var: the mean as add.reduce / n, the deviations squared in
    # place, their add.reduce / (n - 1), then sqrt; sq.std would copy sq
    mean = np.add.reduce(sq) / samples
    np.subtract(sq, mean, out=sq)
    np.square(sq, out=sq)
    std = np.sqrt(np.add.reduce(sq) / (samples - 1))
    value = vol * float(mean)
    stderr = vol * float(std) / float(np.sqrt(samples))
    return MCEstimate(value=value, stderr=stderr, samples=samples)
