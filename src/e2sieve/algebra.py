"""Exact symbolic building blocks: rationals, sparse polynomials, log-linear values.

Everything downstream (simplex integrals, functionals, sieve weights) rests on
three value types, closed under the operations it needs:

* ``Fraction``    -- arbitrary-precision rationals, used as they are.
* ``SymPoly``     -- multivariate polynomials over Q, stored sparsely as
  {exponent tuple: nonzero int numerator} over one positive denominator
  coprime to all the numerators, a unique form.  One int implementation
  of each ring operation serves both SymPoly and ``parse_poly``.
* ``LogLinear``   -- exact values r0 + sum_i r_i * ln(q_i), r_i and q_i > 0
  rational: closed under addition and rational scaling, which is all the
  closed-form outer integrals produce.

The only floating point here is stdlib ``decimal``, whose ln is correctly
rounded.  ``_evaluate``, the one path from LogLinear to decimals, doubles its
working digits until a rounding bound certifies the rounded result; the
renderers and ``LogLinear.sign`` read it.
"""

from __future__ import annotations

import ast
import decimal
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, pairwise
from math import comb, gcd, lcm, perm, prod
from operator import add, itemgetter
from typing import Iterable, Mapping, Sequence

RationalLike = Fraction | int
# A polynomial as {exponents: nonzero int numerator} over one positive denominator.
_IntPoly = tuple[dict[tuple[int, ...], int], int]


class BudgetExceeded(RuntimeError):
    """Raised when a routine would exceed its work or evaluation budget."""


def as_rational(x) -> Fraction:
    """Coerce ints, Fractions and 'num/den' / decimal strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    if isinstance(x, float):
        raise TypeError(
            "refusing to coerce float %r to an exact rational; pass a string "
            "or Fraction instead" % (x,)
        )
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials over Q
# ---------------------------------------------------------------------------


class SymPoly:
    """Multivariate polynomial over Q, as int numerators over one denominator.

    `numerators` maps exponent tuples (one entry per variable) to nonzero int
    numerators over the positive int `denominator`, with gcd(denominator,
    every numerator) = 1.  That form is unique, so equal polynomials have
    equal parts; the zero polynomial is ({}, 1).  `terms` is a read-only
    view {exponents: Fraction coefficient} for display and tests, built anew
    on each access.  Instances are immutable by convention: all operations
    return new objects.
    """

    __slots__ = ("nvars", "numerators", "denominator")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], RationalLike] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        merged: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} does not match nvars={nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            merged[exps] = merged.get(exps, 0) + as_rational(coeff)
        self.nvars = nvars
        # lowest-terms Fractions over the lcm of their denominators are in the reduced form
        self.numerators, self.denominator = _int_numerators({e: c for e, c in merged.items() if c})

    # -- constructors -------------------------------------------------------

    @classmethod
    def _make(cls, nvars: int, poly: _IntPoly) -> "SymPoly":
        """Int numerators over a positive denominator, zeros dropped and reduced by their gcd."""
        nums, den = poly
        g = gcd(den, *nums.values())
        res = cls.__new__(cls)
        res.nvars = nvars
        res.numerators = {e: n // g for e, n in nums.items() if n}
        res.denominator = den // g
        return res

    @classmethod
    def constant(cls, nvars: int, value: RationalLike) -> "SymPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def zero(cls, nvars: int) -> "SymPoly":
        return cls(nvars)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "SymPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: 1})

    # -- basic queries -------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """{exponents: nonzero Fraction coefficient}, a new dict on each access."""
        return {e: Fraction(n, self.denominator) for e, n in self.numerators.items()}

    def is_zero(self) -> bool:
        return not self.numerators

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.numerators)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return Fraction(self.numerators.get((0,) * self.nvars, 0), self.denominator)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.numerators), default=-1)

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other) -> "SymPoly | None":
        if isinstance(other, SymPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return SymPoly.constant(self.nvars, other)
        return None

    def _sum(self, *parts: tuple[int, "SymPoly"]) -> "SymPoly":
        return SymPoly._make(self.nvars, _int_sum([(w, (p.numerators, p.denominator)) for w, p in parts]))

    def __add__(self, other) -> "SymPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._sum((1, self), (1, other))

    __radd__ = __add__

    def __neg__(self) -> "SymPoly":
        return self._sum((-1, self))

    def __sub__(self, other) -> "SymPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._sum((1, self), (-1, other))

    def __rsub__(self, other) -> "SymPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._sum((1, other), (-1, self))

    def __mul__(self, other) -> "SymPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return SymPoly._make(self.nvars, _int_product((self.numerators, self.denominator),
                                                      (other.numerators, other.denominator)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SymPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        return SymPoly._make(self.nvars, _int_power((self.numerators, self.denominator), n, self.nvars))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SymPoly.constant(self.nvars, other)
        if not isinstance(other, SymPoly):
            return NotImplemented
        return (self.nvars, self.denominator, self.numerators) == (other.nvars, other.denominator,
                                                                   other.numerators)

    def __hash__(self):
        return hash((self.nvars, self.denominator, frozenset(self.numerators.items())))

    # -- evaluation ------------------------------------------------------------

    def eval(self, point: Sequence[RationalLike]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.nvars}")
        pt = [as_rational(x) for x in point]
        den = lcm(*(x.denominator for x in pt))
        xs = [x.numerator * (den // x.denominator) for x in pt]
        return Fraction(self.eval_numerator(xs, den), self.denominator * den ** max(self.total_degree(), 0))

    def eval_numerator(self, xs: Sequence[int], den: int) -> int:
        """The value at (x_i / den) times self.denominator * den^max(deg, 0): terms padded by den."""
        top = max(self.total_degree(), 0)
        total = 0
        for exps, num in self.numerators.items():
            term = num * den ** (top - sum(exps))
            for x, e in zip(xs, exps):
                if e:
                    term *= x ** e
            total += term
        return total

    # -- canonical text form ---------------------------------------------------

    def to_text(self) -> str:
        """Canonical serialization: graded-lex sorted 'coeff * u1^a1*u2^a2' terms."""
        if self.is_zero():
            return "0"
        terms = self.terms
        parts = []
        for exps in sorted(terms, key=lambda e: (sum(e), e)):
            factors = "*".join(f"u{i}" if e == 1 else f"u{i}^{e}" for i, e in enumerate(exps, 1) if e)
            parts.append(f"{terms[exps]} * {factors}" if factors else f"{terms[exps]}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SymPoly({self.nvars}, {self.to_text()!r})"


def _int_numerators(terms: Mapping[tuple[int, ...], Fraction]) -> _IntPoly:
    """{exponents: integer numerator} over the common denominator, and that denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


# The ring operations on (int numerators, positive denominator) pairs, shared by
# SymPoly and parse_poly.  Each result drops zero numerators but is not reduced.

def _int_sum(parts: Sequence[tuple[int, _IntPoly]]) -> _IntPoly:
    """sum of w * p over the (int weight w, p) parts, over the lcm of the denominators."""
    den = lcm(*(p[1] for _, p in parts))
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for w, (nums, d) in parts:
        w *= den // d
        for e, n in nums.items():
            acc[e] = get(e, 0) + w * n
    return {e: n for e, n in acc.items() if n}, den


def _int_product(p: _IntPoly, q: _IntPoly) -> _IntPoly:
    """p * q: int numerators pair by pair, over the product of the denominators."""
    acc: dict[tuple[int, ...], int] = {}
    get = acc.get
    for e1, n1 in p[0].items():
        for e2, n2 in q[0].items():
            e = tuple(map(add, e1, e2))
            acc[e] = get(e, 0) + n1 * n2
    return {e: n for e, n in acc.items() if n}, p[1] * q[1]


def _int_power(p: _IntPoly, n: int, nvars: int) -> _IntPoly:
    """p ** n by binary powering."""
    result: _IntPoly = ({(0,) * nvars: 1}, 1)
    while n:
        if n & 1:
            result = _int_product(result, p)
        n >>= 1
        if n:
            p = _int_product(p, p)
    return result


# ---------------------------------------------------------------------------
# Expression parsing (safe, ast-based)
# ---------------------------------------------------------------------------

_MAX_POWER_SUM_INDEX = 50
_MAX_PARSE_EXPONENT = 64
# Budget of one parsed product or power: the terms it may create, and the
# term pairs one product may multiply.
_MAX_PARSE_TERMS = 20_000
_MAX_PARSE_PAIRS = 2_000_000
# Highest degree top = k + 1 + 2 deg F of G that the simplex kernel may build,
# so parse_poly refuses k >= _MAX_TOP.  G's L and M rows hold (top + 1)^2 ints
# each, collapsed by a big-int Horner in (1 - a), whatever the number of terms:
# u1^254 at k = 2 (top 511) takes 0.1 s and u1^512 (top 1,027) 0.75 s, and
# `functional` on u1^1024 ran 11.6 s at 125 MiB (2-CPU Xeon).
_MAX_TOP = 512


def _monomials(k: int, lo: int, hi: int) -> int:
    """Number of monomials in k variables with total degree in [lo, hi]."""
    return comb(k + hi, k) - (comb(k + lo - 1, k) if lo else 0)


def _degrees(terms: Iterable[tuple[int, ...]], n: int = 1) -> tuple[int, int]:
    """The least and the greatest total degree of p ** n, for p with these terms."""
    return n * min(map(sum, terms), default=0), n * max(map(sum, terms), default=0)


def _check_budget(terms: int, pairs: int) -> None:
    if terms > _MAX_PARSE_TERMS or pairs > _MAX_PARSE_PAIRS:
        raise BudgetExceeded(f"expression would expand to up to {terms} terms from {pairs} term "
                             f"pairs (budget {_MAX_PARSE_TERMS} terms, {_MAX_PARSE_PAIRS} pairs)")


def parse_poly(expression: str, k: int) -> SymPoly:
    """Parse an arithmetic expression into a k-variable SymPoly.

    The grammar: ASCII text of int literals (not bools), + - * / ** and
    parentheses, u1..uk for the variables and P1..P50 for the power sums
    u1^j + ... + uk^j (indices without a leading zero).  A divisor must be a
    nonzero constant (so 917/500 writes a rational) and an exponent an int
    literal from 0 to 64.  All else, and nesting past the recursion limit,
    raises ValueError; a chain of + and - is one sum, and a chain of * and /
    one product, however long.
    Subexpressions are (int numerators, denominator) pairs, and the
    SymPoly is built at the root.  A product or power that could create
    more than _MAX_PARSE_TERMS terms, or multiply more than _MAX_PARSE_PAIRS
    term pairs, raises BudgetExceeded before expanding; so does k >= _MAX_TOP
    (a P leaf alone builds k tuples of k ints).
    """

    def build(node) -> _IntPoly:
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if type(node.value) is int:
                return {(0,) * k: node.value} if node.value else {}, 1
            raise ValueError(f"only integer literals allowed, got {node.value!r}")
        if isinstance(node, ast.Name):
            kind, digits = node.id[:1], node.id[1:]
            if kind in ("u", "P") and digits.isdigit() and digits == str(int(digits)):
                j = int(digits)
                if kind == "u":
                    if not 1 <= j <= k:
                        raise ValueError(f"variable {node.id} out of range for k={k}")
                    return {tuple(int(t == j - 1) for t in range(k)): 1}, 1
                if not 1 <= j <= _MAX_POWER_SUM_INDEX:
                    raise ValueError(f"power-sum index {j} out of range")
                return {tuple(j * (t == i) for t in range(k)): 1 for i in range(k)}, 1
            raise ValueError(f"unknown name {node.id!r} (use u1..u{k} or P1, P2, ...)")
        if isinstance(node, ast.UnaryOp):
            operand = build(node.operand)
            if isinstance(node.op, ast.USub):
                return _int_sum([(-1, operand)])
            if isinstance(node.op, ast.UAdd):
                return operand
            raise ValueError("unsupported unary operator")
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                # walk the left spine of the chain in a loop, then build the summands left to right
                summands = []
                while isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
                    summands.append((1 if isinstance(node.op, ast.Add) else -1, node.right))
                    node = node.left
                summands.append((1, node))
                return _int_sum([(w, build(term)) for w, term in reversed(summands)])
            if isinstance(node.op, ast.Pow):
                base = build(node.left)
                if not (isinstance(node.right, ast.Constant) and type(node.right.value) is int):
                    raise ValueError("exponent must be an integer literal")
                n = node.right.value
                if not 0 <= n <= _MAX_PARSE_EXPONENT:
                    raise ValueError(f"exponent {n} out of range")
                # pre-count the terms of the result and the pairs of its last squaring
                terms, half = (min(len(base[0]) ** j, _monomials(k, *_degrees(base[0], j)))
                               for j in (n, n // 2))
                _check_budget(terms, half ** 2)
                return _int_power(base, n, k)
            if isinstance(node.op, (ast.Mult, ast.Div)):
                # walk the left spine of the chain in a loop, then apply the factors left to right
                factors = []
                while isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
                    factors.append((isinstance(node.op, ast.Mult), node.right))
                    node = node.left
                left, lden = build(node)
                for multiply, factor in reversed(factors):
                    right, rden = build(factor)
                    if multiply:
                        pairs = len(left) * len(right)
                        if pairs > _MAX_PARSE_TERMS:   # fewer pairs fit both budgets
                            _check_budget(min(pairs, _monomials(k, *map(add, _degrees(left),
                                                                         _degrees(right)))), pairs)
                    else:
                        if any(map(any, right)):   # a term of positive degree
                            raise ValueError("division only by nonzero constants")
                        if not right:
                            raise ValueError("division by zero")
                        num = right[(0,) * k]   # left * (rden / num)
                        right, rden = {(0,) * k: rden if num > 0 else -rden}, abs(num)
                    left, lden = _int_product((left, lden), (right, rden))
                return left, lden
            build(node.left), build(node.right)   # an operand's error comes first
            raise ValueError(f"unsupported operator {type(node.op).__name__}")
        raise ValueError(f"unsupported syntax element {type(node).__name__}")

    if not expression.isascii():
        raise ValueError("cannot parse expression: only ASCII text is allowed")
    if k + 1 > _MAX_TOP:
        raise BudgetExceeded(f"k = {k} gives G of degree at least {k + 1}, which exceeds the "
                             f"degree budget {_MAX_TOP} of the simplex kernel")
    try:
        return SymPoly._make(k, build(ast.parse(expression, mode="eval")))
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression: {exc}") from None
    except (RecursionError, MemoryError):   # CPython's parser raises MemoryError past its stack limit
        raise ValueError("expression is nested too deeply") from None


# ---------------------------------------------------------------------------
# Exact log-linear values  r0 + sum r_i * ln(q_i)
# ---------------------------------------------------------------------------


_SIGN_DIGITS = 960   # digits budget; Decimal.ln: 13 ms at 960 digits, 180 at 1,920 (2-CPU Xeon)
_GUARD_DIGITS = 15   # working digits _evaluate's first pass carries beyond the digits it rounds to


def _to_decimal(x: Fraction) -> decimal.Decimal:
    return decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)


def _split_off(n: int, g: int) -> tuple[int, int]:
    """(e, n // g**e) for the largest e with g**e | n, in O(log e) divisions."""
    if n % g:
        return 0, n
    e, m = _split_off(n // g, g * g)   # n = g^(2e + 1) m, and g*g does not divide m
    return (2 * e + 2, m // g) if m % g == 0 else (2 * e + 1, m)


class LogLinear:
    """Exact value  const + sum_i coeff_i * ln(arg_i), all rational, args > 0.

    Construction merges duplicate args (exact Fraction equality) and drops
    zero coefficients and ln(1) terms.  Comparisons rewrite the log terms over a
    coprime basis of the arguments' numerators and denominators, split by gcds
    alone (D.J. Bernstein, J. Algorithms 54, 2005), so ln(4) = 2 ln(2) is seen
    without factoring.  Logs of pairwise coprime integers > 1 are Q-linearly
    independent and no Q-combination of them is a nonzero rational (Lindemann-
    Weierstrass): zero iff constant and vector are; `sign` certifies the rest.
    """

    __slots__ = ("const", "terms")

    def __init__(self, const: RationalLike = 0, terms: Iterable[tuple[RationalLike, RationalLike]] = ()):
        self.const = as_rational(const)
        merged: dict[Fraction, Fraction] = {}
        for q, r in terms:
            q = as_rational(q)
            r = as_rational(r)
            if q <= 0:
                raise ValueError(f"log argument must be positive, got {q}")
            if q == 1 or r == 0:
                continue
            merged[q] = merged.get(q, Fraction(0)) + r
        self.terms = _ordered({q: r for q, r in merged.items() if r != 0})

    @classmethod
    def _adopt(cls, const: Fraction, terms: dict[Fraction, Fraction]) -> "LogLinear":
        """A value from clean parts: Fractions, each arg > 0 and != 1, each coefficient nonzero."""
        res = cls.__new__(cls)
        res.const = const
        res.terms = _ordered(terms)
        return res

    @classmethod
    def zero(cls) -> "LogLinear":
        return cls(0, ())

    @classmethod
    def log(cls, q: RationalLike, coeff: RationalLike = 1) -> "LogLinear":
        return cls(0, [(q, coeff)])

    # -- arithmetic (addition and rational scaling only) ----------------------

    def _plus(self, const: Fraction, terms: Iterable[tuple[Fraction, Fraction]]) -> "LogLinear":
        """const, and self's terms with clean (arg, coefficient) pairs added in."""
        merged = dict(self.terms)
        for q, r in terms:
            if s := merged.get(q, 0) + r:
                merged[q] = s
            else:
                del merged[q]
        return LogLinear._adopt(const, merged)

    def __add__(self, other) -> "LogLinear":
        if isinstance(other, (int, Fraction)):
            return LogLinear._adopt(self.const + other, dict(self.terms))
        if isinstance(other, LogLinear):
            return self._plus(self.const + other.const, other.terms)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "LogLinear":
        return LogLinear._adopt(-self.const, {q: -r for q, r in self.terms})

    def __sub__(self, other) -> "LogLinear":
        if isinstance(other, (int, Fraction)):
            return LogLinear._adopt(self.const - other, dict(self.terms))
        if isinstance(other, LogLinear):
            return self._plus(self.const - other.const, ((q, -r) for q, r in other.terms))
        return NotImplemented

    def __rsub__(self, other) -> "LogLinear":
        return (-self) + other

    def __mul__(self, scalar) -> "LogLinear":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 1:   # LogLinear is immutable
            return self
        return LogLinear._adopt(self.const * scalar, {q: r * scalar for q, r in self.terms} if scalar else {})

    __rmul__ = __mul__

    # -- exact zero test, equality and sign --------------------------------------

    def _log_vector(self) -> dict[int, Fraction]:
        """The log terms as {g: coefficient of ln g} over a coprime basis, zeros dropped."""
        numbers = list({n for q, _ in self.terms for n in (q.numerator, q.denominator) if n > 1})
        basis: list[int] = []
        while numbers:   # a split divides the product of basis and numbers by g or more
            x = numbers.pop()
            for i, b in enumerate(basis):
                if (g := gcd(x, b)) > 1:
                    del basis[i]
                    numbers += [n for n in (g, _split_off(b, g)[1], _split_off(x, g)[1]) if n > 1]
                    break
            else:
                basis.append(x)
        vec: dict[int, Fraction] = {}
        for q, r in self.terms:
            for n, c in ((q.numerator, r), (q.denominator, -r)):
                for g in [g for g in basis if n % g == 0]:   # n is a product of their powers
                    vec[g] = vec.get(g, 0) + _split_off(n, g)[0] * c
        return {g: c for g, c in vec.items() if c != 0}

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LogLinear(other)
        if not isinstance(other, LogLinear):
            return NotImplemented
        return self.const == other.const and not (self - other)._log_vector()   # see the class docstring

    def __hash__(self):
        return hash(self.const)   # equal values have equal constants

    def sign(self) -> int:
        """-1, 0 or 1: exact for a rational value, else the sign of its certified 15-digit value."""
        if not self._log_vector():
            return (self.const > 0) - (self.const < 0)
        return 1 if _evaluate([self], 15)[0] > 0 else -1

    # -- numeric evaluation -----------------------------------------------------

    def evaluate_decimal(self, digits: int) -> decimal.Decimal:
        """Correctly rounded Decimal with `digits` significant digits."""
        return _evaluate([self], digits)[0]

    def to_text(self) -> str:
        """Canonical serialization 'r0 + r1*ln(q1) + r2*ln(q2) + ...'."""
        parts = [str(self.const)]
        for q, r in self.terms:
            qs = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
            parts.append(f"{r}*ln({qs})")
        return " + ".join(parts)

    def __repr__(self):
        return f"LogLinear({self.to_text()!r})"


def _ordered(terms: dict[Fraction, Fraction]) -> tuple[tuple[Fraction, Fraction], ...]:
    """LogLinear.terms: the (arg, coefficient) pairs by the arg's (numerator, denominator)."""
    return tuple(sorted(terms.items(), key=lambda t: (t[0].numerator, t[0].denominator)))


def _evaluate(values: Sequence[LogLinear], digits: int) -> list[decimal.Decimal]:
    """Each value correctly rounded to `digits` digits, certified by a rounding bound.

    A rational value (no logs, or logs that cancel by `_log_vector`) is one correctly rounded
    division.  Others: passes at p = digits + _GUARD_DIGITS, 2p, 4p, ... working digits take one ln
    per distinct arg, all correctly rounded: with u = 10^(1 - p), a + sum c_i ln q_i over n logs is
    off by at most (n + 4) u (|a| + sum |c_i ln q_i| + sum |c_i|), and a value is kept once that
    bound leaves one rounding to `digits` digits.  BudgetExceeded past _SIGN_DIGITS + _GUARD_DIGITS.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    rounding, out = decimal.Context(prec=digits), {}
    pending, prec, undecided = list(enumerate(values)), digits + _GUARD_DIGITS, "sign"
    while pending:
        if prec > _SIGN_DIGITS + _GUARD_DIGITS:
            raise BudgetExceeded(f"{undecided} undecided at {_SIGN_DIGITS} digits")
        failed = []
        with decimal.localcontext(decimal.Context(prec=prec)):
            logs = {q: _to_decimal(q).ln() for q in {q for _, value in pending for q, _ in value.terms}}
            for i, value in pending:
                coeffs = [_to_decimal(r) for _, r in value.terms]
                parts = [_to_decimal(value.const), *(c * logs[q] for c, (q, _) in zip(coeffs, value.terms))]
                total = sum(parts)
                err = (len(parts) + 3) * (sum(map(abs, parts)) + sum(map(abs, coeffs))).scaleb(1 - prec)
                if value.terms and rounding.subtract(total, err) == rounding.add(total, err):
                    out[i] = rounding.plus(total)
                elif not value._log_vector():   # rational: no logs, or logs that cancel exactly
                    out[i] = rounding.divide(value.const.numerator, value.const.denominator)
                else:
                    failed.append((i, value))
                    undecided = "sign" if abs(total) <= err else f"{digits}-digit value"
        pending, prec = failed, 2 * prec
    return [out[i] for i in range(len(values))]


def _text(dec: decimal.Decimal) -> str:
    """A rounded value as loglinear_eval prints it."""
    return str(dec) if dec else "0"


def loglinear_eval(value: LogLinear, digits: int) -> str:
    """Render a LogLinear as a decimal string with `digits` significant digits.

    digits must be at least 15, and past _SIGN_DIGITS the budget raises.  The
    string is the value correctly rounded (round-half-even), certified by
    `_evaluate`'s bound.
    """
    if digits < 15:
        raise ValueError("digits must be >= 15")
    return _text(_evaluate([value], digits)[0])


# ---------------------------------------------------------------------------
# Test functions on the simplex
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 12)
def _arrangements(size: int, part: tuple[int, ...]) -> int:
    """The distinct placements of the sorted nonzero parts `part` on `size` coordinates."""
    count, run = perm(size, len(part)), 1
    for x, y in zip(part, part[1:]):   # divided by the place in each run of equal parts: by mult!
        run = run + 1 if x == y else 1
        count //= run
    return count


def _orbits(poly: SymPoly, swaps: Sequence[int]) -> tuple | None:
    """(singles, classes, {key: numerator}): poly's terms in orbits of the permutations within classes.

    `swaps` labels the classes.  singles are the coordinates alone in theirs,
    classes the larger ones, and a term's key is its exponents at singles,
    then its nonzero exponents on each class sorted descending.  One pass;
    None unless every such permutation fixes poly, seen as an orbit with two
    numerators or orbit sizes that do not add up to the number of terms.
    """
    members: dict[int, list[int]] = {}
    for i, r in enumerate(swaps):
        members.setdefault(r, []).append(i)
    singles = tuple(c[0] for c in members.values() if len(c) == 1)
    classes = [c for c in members.values() if len(c) > 1]
    if not classes:
        return singles, classes, poly.numerators
    order = [*singles, *(i for c in classes for i in c)]   # singles first, then class by class
    arrange = tuple if order == sorted(order) else itemgetter(*order)
    sizes = [len(c) for c in classes]
    cuts = list(pairwise(accumulate(sizes, initial=len(singles))))
    numerators: dict[tuple, int] = {}
    for exps, n in poly.numerators.items():
        r = arrange(exps)
        key = r[:len(singles)] + tuple([tuple(sorted(filter(None, r[lo:hi]), reverse=True)) for lo, hi in cuts])
        if numerators.setdefault(key, n) != n:
            return None
    if sum(prod(map(_arrangements, sizes, key[len(singles):])) for key in numerators) != len(poly.numerators):
        return None
    return singles, classes, numerators


def _swap_representatives(poly: SymPoly) -> list[int]:
    """For each coordinate m (1-based), the first r <= m whose swap with m fixes poly.

    Invariance under the swap of u_r and u_m is an equivalence relation, so m
    only needs testing against the representatives found so far, and only on
    the terms whose exponents of u_r and u_m differ: the swap fixes the rest.
    """
    reps: list[int] = []
    out: list[int] = []
    for m in range(poly.nvars):
        for r in reps:
            perm = list(range(poly.nvars))
            perm[r], perm[m] = m, r
            if all(poly.numerators.get(tuple(map(exps.__getitem__, perm))) == n
                   for exps, n in poly.numerators.items() if exps[r] != exps[m]):
                out.append(r + 1)
                break
        else:
            reps.append(m)
            out.append(m + 1)
    return out


@dataclass(frozen=True)
class TestFunction:
    """A k-variable polynomial used as the sieve test function.

    box_bound, when set, records that the function should be treated as
    supported on the box {0 <= u_i <= box_bound} inside the simplex (the
    truncated support used by the asymptotic existence argument).  The
    functional layer only needs the structural consequence (inner integrals
    vanish when the substitution pushes past the box); general box-truncated
    integration is out of scope.
    """

    __test__ = False  # not a pytest class, despite the (mathematical) name

    k: int
    poly: SymPoly
    box_bound: Fraction | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.poly.nvars != self.k:
            raise ValueError("poly must have exactly k variables")
        if self.box_bound is not None and self.box_bound <= 0:
            raise ValueError("box_bound must be positive when given")

    @cached_property
    def swaps(self) -> list[int]:
        """For each coordinate m (1-based), the first r <= m whose swap with m fixes F, found once.

        A symmetric F's are read off its grouping under all permutations.
        """
        everything = [1] * self.k
        return everything if _orbits(self.poly, everything) else _swap_representatives(self.poly)

    @classmethod
    def from_expression(cls, k: int, expression: str,
                        box_bound: Fraction | None = None) -> "TestFunction":
        return cls(k=k, poly=parse_poly(expression, k), box_bound=box_bound)
