"""Exact symbolic building blocks: rationals, sparse polynomials, log-linear values.

Everything downstream (simplex integrals, inner and outer functionals, sieve
weights) is built on three value types that are closed under the operations
we need:

* ``Fraction``    -- arbitrary-precision rationals, used as they are.
* ``SymPoly``     -- multivariate polynomials with Fraction coefficients,
  stored sparsely as {exponent tuple: coefficient}.
* ``LogLinear``   -- exact values of the shape  r0 + sum_i r_i * ln(q_i)
  with r_i, q_i rational and q_i > 0.  Closed under addition and rational
  scaling, which is all the closed-form outer integrals produce.

The only floating point in this module is stdlib ``decimal``, whose ln is
correctly rounded: ``loglinear_eval`` renders a LogLinear to a correctly rounded
string, and ``LogLinear.sign`` adds digits until the value clears a rounding bound.
"""

from __future__ import annotations

import ast
import decimal
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm
from operator import add
from typing import Iterable, Mapping, Sequence

RationalLike = Fraction | int


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
    """Multivariate polynomial with Fraction coefficients.

    Terms are held as a dict mapping exponent tuples (one entry per variable)
    to nonzero Fraction coefficients.  The zero polynomial has an empty dict.
    Instances are immutable by convention: all operations return new objects.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], RationalLike] | None = None):
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} does not match nvars={nvars}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = as_rational(coeff)
                if c != 0:
                    acc = clean.get(exps)
                    c = c if acc is None else acc + c
                    if c == 0:
                        clean.pop(exps, None)
                    else:
                        clean[exps] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def _wrap(cls, nvars: int, terms: dict[tuple[int, ...], Fraction]) -> "SymPoly":
        """Adopt an already clean terms dict (nonzero Fractions) without copying."""
        res = cls.__new__(cls)
        res.nvars = nvars
        res.terms = terms
        return res

    @classmethod
    def constant(cls, nvars: int, value: RationalLike) -> "SymPoly":
        value = as_rational(value)
        if value == 0:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def zero(cls, nvars: int) -> "SymPoly":
        return cls(nvars)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "SymPoly":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {exps: Fraction(1)})

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # -- ring operations -----------------------------------------------------

    def _coerce(self, other) -> "SymPoly | None":
        if isinstance(other, SymPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable-count mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return SymPoly.constant(self.nvars, other)
        return None

    def __add__(self, other) -> "SymPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for exps, c in other.terms.items():
            s = out.get(exps, Fraction(0)) + c
            if s == 0:
                out.pop(exps, None)
            else:
                out[exps] = s
        return SymPoly._wrap(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "SymPoly":
        return SymPoly._wrap(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "SymPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "SymPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "SymPoly":
        """Product over a common denominator: int numerators, one Fraction per term."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        items1, den1 = _int_numerators(self.terms)
        items2, den2 = _int_numerators(other.terms)
        acc: dict[tuple[int, ...], int] = {}
        get = acc.get
        for e1, n1 in items1:
            for e2, n2 in items2:
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + n1 * n2
        den = den1 * den2
        return SymPoly._wrap(self.nvars, {e: Fraction(n, den) for e, n in acc.items() if n})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "SymPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = SymPoly.constant(self.nvars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SymPoly.constant(self.nvars, other)
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- evaluation ------------------------------------------------------------

    def eval(self, point: Sequence[RationalLike]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.nvars}")
        pt = [as_rational(x) for x in point]
        # ints over the common denominators: x_i = xs[i] / den, c = num / cden,
        # and every term padded to the top degree with powers of den
        den = lcm(*(x.denominator for x in pt))
        xs = [x.numerator * (den // x.denominator) for x in pt]
        items, cden = _int_numerators(self.terms)
        top = max(map(sum, self.terms), default=0)
        total = 0
        for exps, num in items:
            term = num * den ** (top - sum(exps))
            for x, e in zip(xs, exps):
                if e:
                    term *= x ** e
            total += term
        return Fraction(total, cden * den ** top)

    # -- canonical text form ---------------------------------------------------

    def to_text(self, names: Sequence[str] | None = None) -> str:
        """Canonical serialization: graded-lex sorted 'coeff * u1^a1*u2^a2' terms."""
        if self.is_zero():
            return "0"
        if names is None:
            names = [f"u{i + 1}" for i in range(self.nvars)]
        elif len(names) != self.nvars:
            raise ValueError("names length must equal nvars")
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[exps]
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if factors:
                parts.append(f"{c} * " + "*".join(factors))
            else:
                parts.append(f"{c}")
        return " + ".join(parts)

    def __repr__(self):
        return f"SymPoly({self.nvars}, {self.to_text()!r})"


def _int_numerators(terms: Mapping[tuple[int, ...], Fraction]) -> tuple[list, int]:
    """(exponents, integer numerator) pairs over the common denominator, and that denominator."""
    den = lcm(*(c.denominator for c in terms.values()))
    return [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()], den


# ---------------------------------------------------------------------------
# Expression parsing (safe, ast-based)
# ---------------------------------------------------------------------------

_MAX_POWER_SUM_INDEX = 50
_MAX_PARSE_EXPONENT = 64
# Budget of one parsed product or power: the terms it may create, and the
# term pairs one product may multiply.
_MAX_PARSE_TERMS = 20_000
_MAX_PARSE_PAIRS = 2_000_000


def _monomials(k: int, lo: int, hi: int) -> int:
    """Number of monomials in k variables with total degree in [lo, hi]."""
    return comb(k + hi, k) - (comb(k + lo - 1, k) if lo else 0)


def _degrees(p: SymPoly, n: int = 1) -> tuple[int, int]:
    """The least and the greatest total degree of p ** n."""
    return n * min(map(sum, p.terms), default=0), n * max(map(sum, p.terms), default=0)


def _check_budget(terms: int, pairs: int) -> None:
    if terms > _MAX_PARSE_TERMS or pairs > _MAX_PARSE_PAIRS:
        raise BudgetExceeded(f"expression would expand to up to {terms} terms from {pairs} term "
                             f"pairs (budget {_MAX_PARSE_TERMS} terms, {_MAX_PARSE_PAIRS} pairs)")


def _checked_product(p: SymPoly, q: SymPoly) -> SymPoly:
    pairs = len(p.terms) * len(q.terms)
    if pairs > _MAX_PARSE_TERMS:   # fewer pairs fit both budgets
        _check_budget(min(pairs, _monomials(p.nvars, *map(add, _degrees(p), _degrees(q)))), pairs)
    return p * q


def _checked_power(base: SymPoly, n: int) -> SymPoly:
    """base ** n, after pre-counting the terms of the result and the pairs of its last squaring."""
    def terms(j: int) -> int:
        return min(len(base.terms) ** j, _monomials(base.nvars, *_degrees(base, j)))

    _check_budget(terms(n), terms(n // 2) ** 2)
    return base ** n


def _power_sum(k: int, j: int) -> SymPoly:
    """P_j = u1^j + ... + uk^j in the k-variable ring."""
    out: dict[tuple[int, ...], Fraction] = {}
    for i in range(k):
        exps = tuple(j if t == i else 0 for t in range(k))
        out[exps] = Fraction(1)
    return SymPoly(k, out)


def parse_poly(expression: str, k: int) -> SymPoly:
    """Parse an arithmetic expression into a k-variable SymPoly.

    Names u1..uk denote the variables; names P1, P2, ... denote the power
    sums u1^j + ... + uk^j.  Integer literals, + - * / ** and parentheses are
    supported; division requires a nonzero constant divisor (this is how
    rational coefficients like 917/500 are written).  A product or power
    that could create more than _MAX_PARSE_TERMS terms, or multiply more
    than _MAX_PARSE_PAIRS term pairs, raises BudgetExceeded before expanding.
    An expression nested beyond the interpreter's recursion limit raises
    ValueError.
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
                return _power_sum(k, j)
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

    try:
        return build(ast.parse(expression, mode="eval"))
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression: {exc}") from None
    except RecursionError:
        raise ValueError("expression is nested too deeply") from None


# ---------------------------------------------------------------------------
# Exact log-linear values  r0 + sum r_i * ln(q_i)
# ---------------------------------------------------------------------------


_SIGN_DIGITS = 960   # sign()'s limit; Decimal.ln: 13 ms at 960 digits, 180 at 1,920 (2-CPU Xeon)


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
        self.terms = tuple(sorted(
            ((q, r) for q, r in merged.items() if r != 0),
            key=lambda t: (t[0].numerator, t[0].denominator),
        ))

    @classmethod
    def zero(cls) -> "LogLinear":
        return cls(0, ())

    @classmethod
    def log(cls, q: RationalLike, coeff: RationalLike = 1) -> "LogLinear":
        return cls(0, [(q, coeff)])

    # -- arithmetic (addition and rational scaling only) ----------------------

    def __add__(self, other) -> "LogLinear":
        if isinstance(other, (int, Fraction)):
            return LogLinear(self.const + other, self.terms)
        if isinstance(other, LogLinear):
            return LogLinear(self.const + other.const, self.terms + other.terms)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "LogLinear":
        return LogLinear(-self.const, [(q, -r) for q, r in self.terms])

    def __sub__(self, other) -> "LogLinear":
        if isinstance(other, (int, Fraction)):
            return LogLinear(self.const - other, self.terms)
        if isinstance(other, LogLinear):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other) -> "LogLinear":
        return (-self) + other

    def __mul__(self, scalar) -> "LogLinear":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        s = as_rational(scalar)
        return LogLinear(self.const * s, [(q, r * s) for q, r in self.terms])

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

    def is_zero(self) -> bool:
        return self.const == 0 and not self._log_vector()

    def sign(self) -> int:
        """-1, 0 or 1: exact for zero, else a + sum c_g ln g at 30, 60, 120, ... digits.

        Every decimal operation (ln too) is correctly rounded, so with u = 10^(1 - digits) the
        sum is off by at most (n + 4) u (|a| + sum |c_g ln g|) for n basis terms, inside the
        test's (6n + 2) u times the computed magnitudes.  BudgetExceeded past _SIGN_DIGITS.
        """
        if not (vec := self._log_vector()):
            return (self.const > 0) - (self.const < 0)
        digits = 30
        while digits <= _SIGN_DIGITS:
            with decimal.localcontext(decimal.Context(prec=digits)):
                parts = [_to_decimal(self.const)] + [_to_decimal(c) * decimal.Decimal(g).ln()
                                                     for g, c in vec.items()]
                total = sum(parts)
                bound = (6 * len(vec) + 2) * sum(map(abs, parts)).scaleb(1 - digits)
            if abs(total) > bound:
                return 1 if total > 0 else -1
            digits *= 2
        raise BudgetExceeded(f"sign undecided at {_SIGN_DIGITS} digits")

    # -- numeric evaluation -----------------------------------------------------

    def evaluate_decimal(self, digits: int, guard: int = 15) -> decimal.Decimal:
        """Correctly rounded Decimal with `digits` significant digits."""
        if digits < 1:
            raise ValueError("digits must be >= 1")
        with decimal.localcontext() as ctx:
            ctx.prec = digits + guard
            total = _to_decimal(self.const)
            for q, r in self.terms:
                total += _to_decimal(r) * _to_decimal(q).ln()
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            ctx.rounding = decimal.ROUND_HALF_EVEN
            return +total

    def to_float(self) -> float:
        return float(self.evaluate_decimal(25))

    def to_text(self) -> str:
        """Canonical serialization 'r0 + r1*ln(q1) + r2*ln(q2) + ...'."""
        parts = [str(self.const)]
        for q, r in self.terms:
            qs = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
            parts.append(f"{r}*ln({qs})")
        return " + ".join(parts)

    def __repr__(self):
        return f"LogLinear({self.to_text()!r})"


def loglinear_eval(value: LogLinear, digits: int) -> str:
    """Render a LogLinear as a decimal string with `digits` significant digits.

    digits must be at least 15.  The ln calls are correctly rounded at
    digits+15 working precision, so the printed string is accurate to well
    under one unit in the last place (final rounding: round-half-even).
    """
    if digits < 15:
        raise ValueError("digits must be >= 15")
    dec = value.evaluate_decimal(digits)
    if dec == 0:
        return "0"
    return str(dec)


# ---------------------------------------------------------------------------
# Test functions on the simplex
# ---------------------------------------------------------------------------


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
            if all(poly.terms.get(tuple(map(exps.__getitem__, perm))) == c
                   for exps, c in poly.terms.items() if exps[r] != exps[m]):
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
        """`_swap_representatives` of poly, found once: F is frozen and SymPoly immutable."""
        return _swap_representatives(self.poly)

    @classmethod
    def from_expression(cls, k: int, expression: str,
                        box_bound: Fraction | None = None) -> "TestFunction":
        return cls(k=k, poly=parse_poly(expression, k), box_bound=box_bound)
