"""Substituted simplex functionals and the leading coefficient of the sieve sums.

The m-th coordinate substitution

    u_m  ->  a + (1 - a) u_m,        a = xi / c,   c = theta/2 - delta,

models forcing the m-th shifted component to carry a prime factor of size
N^xi.  For a polynomial test function F supported on the simplex, the two
inner quantities at a fixed xi are

    L-inner(xi) = G_L(a) / (1 - a),      M-inner(xi) = G_M(a) / (1 - a)^2,

where G_L(a) (resp. G_M(a)) is the integral over {u_i >= 0 (i != m),
sum u_i <= 1 - a} of [int_a^{1-s} F dt][int_0^{1-s} F dt] (resp. of
[int_a^{1-s} F dt]^2).  `simplex.inner_G` gives both as exact univariate
polynomials from sums over pairs of F's terms: with u' = (1 - a) v and the
slack tau = 1 - sum v as an extra Dirichlet coordinate, a pair with u_m
exponents e, f and gamma = alpha' + beta' contributes

    c_alpha c_beta / ((e+1)(f+1)) sum_n kappa_n gamma! n! / (k-1+|gamma|+n)!
                                        (1-a)^(k-1+|gamma|+n) a^(e+f+2-n),
    kappa^L_n = C(e+f+2, n) - C(f+1, n),
    kappa^M_n = C(e+f+2, n) - C(e+1, n) - C(f+1, n) + [n = 0].

The outer integrals carry the weights (c - xi)/(1 - xi) / xi for L and
(c - xi)^2/(1 - xi) / xi for M on eta <= xi <= c.  Because
c - xi = c (1 - a), the weights absorb the inner denominators exactly:

    L-outer = int_eta^c  P_L(xi) / (xi (1 - xi)) dxi,   P_L(xi) = c   G_L(xi/c),
    M-outer = int_eta^c  P_M(xi) / (xi (1 - xi)) dxi,   P_M(xi) = c^2 G_M(xi/c),

so the integrand is a polynomial divided by xi (1 - xi), with no singularity
inside [eta, c].  With 1/(xi (1 - xi)) = 1/xi + 1/(1 - xi) and
P(1) - P(xi) = (1 - xi) R(xi), where R has the suffix sums
r_i = p_{i+1} + p_{i+2} + ... of P's coefficients as its own, the exact
closed form is the LogLinear value

    P(0) ln(c/eta) + P(1) ln((1-eta)/(1-c)) - sum_{i>=1} r_i (c^i - eta^i) / i.

An independent check integrates the same polynomial numerically after the
substitution xi = e^t, which turns the integrand into the smooth, bounded
P(e^t) / (1 - e^t) on [ln eta, ln c], and evaluates it by tanh-sinh
quadrature without the partial fractions: stdlib `decimal` at 50 digits, the
step halving until two successive levels agree, over a per-level node table
that is built once per process.  `theorem11_plan` is the only user of mpmath
(exp and log at thousands of digits), and it imports it itself, so importing
the package does not load mpmath.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from .algebra import BudgetExceeded, LogLinear, SymPoly, TestFunction, as_rational
from .simplex import _I_k, _inner_G, _swap_representatives, inner_G

# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SieveParams:
    """Parameters of one sieve run.

    k      -- number of shifts (>= 2)
    rho    -- target count of almost-prime components in an interval (>= 1)
    theta  -- distribution exponent, 0 < theta <= 1
    delta  -- prelimit offset, >= 0 (0 means evaluate at the endpoint directly)
    eta    -- lower cutoff for the small prime factor, 0 < eta < 1/4,
              and eta < theta/2 - delta so the outer range is nonempty
    """

    k: int
    rho: int
    theta: Fraction
    delta: Fraction = Fraction(0)
    eta: Fraction = Fraction(1, 10 ** 10)

    def __post_init__(self):
        object.__setattr__(self, "theta", as_rational(self.theta))
        object.__setattr__(self, "delta", as_rational(self.delta))
        object.__setattr__(self, "eta", as_rational(self.eta))
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError("k must be an integer >= 2")
        if not isinstance(self.rho, int) or self.rho < 1:
            raise ValueError("rho must be an integer >= 1")
        if not 0 < self.theta <= 1:
            raise ValueError("theta must satisfy 0 < theta <= 1")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if not 0 < self.eta < Fraction(1, 4):
            raise ValueError("eta must satisfy 0 < eta < 1/4")
        if self.r_exponent <= 0:
            raise ValueError("theta/2 - delta must be positive")
        if self.eta >= self.r_exponent:
            raise ValueError("eta must be < theta/2 - delta")

    @property
    def r_exponent(self) -> Fraction:
        """c = theta/2 - delta: the sieve level is R = N^c."""
        return self.theta / 2 - self.delta


# ---------------------------------------------------------------------------
# Inner functionals
# ---------------------------------------------------------------------------


def _box_vanishes(F: TestFunction, a_min: Fraction | None) -> bool:
    """True if a box-truncated F makes the inner functionals vanish identically.

    Returns False when the truncation is absent or vacuous (bound >= 1).
    Raises for a real truncation that the substitution does not exhaust:
    genuine box-truncated integration is out of scope.
    """
    if F.box_bound is None or F.box_bound >= 1:
        return False
    if a_min is not None and a_min >= F.box_bound:
        return True
    raise ValueError(
        "box-truncated test functions are only supported when the "
        "substitution offset covers the box (a_min >= box_bound)"
    )


def inner_L(F: TestFunction, m: int, a_min: Fraction | None = None) -> SymPoly:
    """Inner L functional: the univariate G_L(a), whose value at a is G_L(a)/(1-a)."""
    return SymPoly.zero(1) if _box_vanishes(F, a_min) else inner_G(F, m, "L")[0]


def inner_M(F: TestFunction, m: int, a_min: Fraction | None = None) -> SymPoly:
    """Inner M functional: the univariate G_M(a), whose value at a is G_M(a)/(1-a)^2."""
    return SymPoly.zero(1) if _box_vanishes(F, a_min) else inner_G(F, m, "M")[0]


# ---------------------------------------------------------------------------
# Outer integrals: closed form and quadrature
# ---------------------------------------------------------------------------


def _weight_coeffs(G: SymPoly, power: int, c: Fraction) -> list[Fraction]:
    """Coefficients of P(xi) = c^power * G(xi/c), power = 1 (L) or 2 (M)."""
    return [g * c ** (power - i) for i, g in enumerate(G.univariate_coeffs())]


def _outer(G: SymPoly, power: int, params: SieveParams) -> LogLinear:
    """Exact int_eta^c P(xi) / (xi (1 - xi)) dxi as a LogLinear, P from _weight_coeffs.

    P(0) ln(c/eta) + P(1) ln((1-eta)/(1-c)) - sum_{i>=1} r_i (c^i - eta^i)/i,
    with the suffix sums r_i = p_{i+1} + p_{i+2} + ... (see the module docstring).
    """
    c, eta = params.r_exponent, params.eta
    p = _weight_coeffs(G, power, c)
    const = r = Fraction(0)
    for i in range(len(p) - 1, 0, -1):
        const -= r * (c ** i - eta ** i) / i
        r += p[i]
    p0, p1 = p[0], p[0] + r
    return LogLinear(const, [(c, p0), (eta, -p0), (1 - eta, p1), (1 - c, -p1)])


def outer_L(F: TestFunction, m: int, params: SieveParams) -> LogLinear:
    """L^(m): the weighted outer integral of the inner L functional, exact."""
    return _outer(inner_L(F, m, a_min=params.eta / params.r_exponent), 1, params)


def outer_M(F: TestFunction, m: int, params: SieveParams) -> LogLinear:
    """M^(m): the weighted outer integral of the inner M functional, exact."""
    return _outer(inner_M(F, m, a_min=params.eta / params.r_exponent), 2, params)


# tanh-sinh in t = ln xi, in decimal at _QUAD_DIGITS working digits.  Level j
# has the step h = 2^-j; its new nodes are the odd multiples of h (every
# multiple at level 0).  A node s > 0 stands for the pair x = +-tanh(pi/2 sinh s)
# and is stored as (delta, w): delta = 1 - |x| = 2/(e^(pi sinh s) + 1), which
# keeps its digits near the ends, and w = (pi/2) cosh s / cosh^2(pi/2 sinh s).
# The node s = 0 is stored as the pair (1, pi/4), which sums to its weight pi/2
# at x = 0.  Nodes stop where w < 10^-(_QUAD_DIGITS + 5).  The table depends
# only on the level and the precision, never on an input.
_QUAD_DIGITS = 50
_QUAD_CONTEXT = decimal.Context(prec=_QUAD_DIGITS)
_HALF_PI = Decimal("1.57079632679489661923132169163975144209858469968755291048747")
# two successive levels must agree to tol * _LEVEL_AGREEMENT; the later sum's
# error is then about the square of that difference, far below tol
_LEVEL_AGREEMENT = 1e-7
_TS_NODES: list[list[tuple[Decimal, Decimal]]] = []


def _ts_nodes(level: int) -> list[tuple[Decimal, Decimal]]:
    """The (delta, w) nodes that tanh-sinh level `level` adds to the earlier levels."""
    with decimal.localcontext(_QUAD_CONTEXT):
        while len(_TS_NODES) <= level:
            j = len(_TS_NODES)
            h, step = Decimal(2) ** -j, 1 if j == 0 else 2
            nodes = [(Decimal(1), _HALF_PI / 2)] if j == 0 else []
            cutoff = Decimal(10) ** -(_QUAD_DIGITS + 5)
            # s = h, h + step h, ...: e^s is stepped by one product per node
            es, factor = h.exp(), (step * h).exp()
            while True:
                eu = (_HALF_PI * (es - 1 / es) / 2).exp()
                cosh_u = (eu + 1 / eu) / 2
                w = _HALF_PI * (es + 1 / es) / 2 / (cosh_u * cosh_u)
                if w < cutoff:
                    break
                nodes.append((2 / (eu * eu + 1), w))
                es *= factor
            _TS_NODES.append(nodes)
    return _TS_NODES[level]


def _tanh_sinh(pcoeffs: list[Fraction], eta: Fraction, c: Fraction,
               tol: float, max_evals: int) -> Decimal:
    """int_{ln eta}^{ln c} P(e^t) / (1 - e^t) dt by tanh-sinh, P from its coefficients.

    A node pair at t = ln c - z and t = ln eta + z, z = delta ln(c/eta)/2,
    needs the one exponential ez = e^z: xi = c/ez and xi = eta ez.  Levels are
    added until two successive sums agree to tol * _LEVEL_AGREEMENT or the
    next level would take the evaluation count past max_evals.  Raises
    BudgetExceeded if max_evals does not cover levels 0 and 1, and if the last
    difference reached exceeds tol.
    """
    with decimal.localcontext(_QUAD_CONTEXT):
        coeffs = [Decimal(p.numerator) / p.denominator for p in reversed(pcoeffs)]
        eta_d = Decimal(eta.numerator) / eta.denominator
        c_d = Decimal(c.numerator) / c.denominator
        half = (c_d / eta_d).ln() / 2   # half the length of [ln eta, ln c]

        def integrand(xi: Decimal) -> Decimal:
            acc = Decimal(0)
            for coeff in coeffs:
                acc = acc * xi + coeff
            return acc / (1 - xi)

        total = previous = Decimal(0)
        evals = level = 0
        while True:
            nodes = _ts_nodes(level)
            evals += 2 * len(nodes)
            if evals > max_evals:
                break
            for delta, w in nodes:
                ez = (half * delta).exp()
                total += w * (integrand(c_d / ez) + integrand(eta_d * ez))
            value = total * half / 2 ** level
            err = abs(value - previous)
            if level and err <= tol * _LEVEL_AGREEMENT:
                return value
            previous = value
            level += 1
        if level < 2:
            raise BudgetExceeded(f"quadrature exceeded {max_evals} evaluations")
        if err > tol:
            raise BudgetExceeded(f"quadrature error estimate {err:.3g} exceeds {tol}")
        return value


def quad_outer(
    F: TestFunction,
    m: int,
    params: SieveParams,
    kind: str,
    tol: float = 1e-13,
    max_evals: int = 10_000,
) -> float:
    """Quadrature check of outer_L / outer_M (kind 'L' or 'M').

    Substitutes xi = e^t, so the outer integral becomes
    int_{ln eta}^{ln c} P(e^t) / (1 - e^t) dt with a smooth, bounded
    integrand (c <= 1/2), and integrates it by tanh-sinh quadrature in
    `decimal` at 50 working digits, which makes the absolute tolerance
    (>= 1e-13) meaningful.  The step halves until two successive levels
    agree far inside tol, or until the next level would need more than
    max_evals integrand evaluations; the default budget allows levels 0 to 10
    (9,080 evaluations).  Nothing of the closed form is used.
    Deterministic; raises BudgetExceeded if max_evals does not cover levels
    0 and 1, or if the last error estimate exceeds tol.
    """
    if kind not in ("L", "M"):
        raise ValueError("kind must be 'L' or 'M'")
    if tol < 1e-13:
        raise ValueError("tol must be >= 1e-13")
    c = params.r_exponent
    eta = params.eta
    inner, power = (inner_L, 1) if kind == "L" else (inner_M, 2)
    pcoeffs = _weight_coeffs(inner(F, m, a_min=eta / c), power, c)
    return float(_tanh_sinh(pcoeffs, eta, c, tol, max_evals))


# ---------------------------------------------------------------------------
# Leading coefficient of the weighted sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeadingCoefficient:
    """The leading coefficient with its four addends and raw ingredients.

    variant "S"      uses the log-only second addend,
    variant "Sprime" (the run that also counts plain primes) adds the +1.
    The sign of `value` decides the verdict: positive means the weighted sum
    forces at least rho + 1 hits infinitely often at this parameter choice.
    """

    value: LogLinear
    variant: str
    params: SieveParams
    breakdown: dict[str, LogLinear] = field(repr=False)
    I_value: Fraction = field(repr=False, default=Fraction(0))
    J_values: tuple[Fraction, ...] = field(repr=False, default=())
    L_values: tuple[LogLinear, ...] = field(repr=False, default=())
    M_values: tuple[LogLinear, ...] = field(repr=False, default=())


VARIANTS = ("S", "Sprime")


def _coordinate_values(F: TestFunction, m: int, params: SieveParams,
                       swaps: list[int]) -> tuple[Fraction, LogLinear, LogLinear]:
    """(J^(m), L^(m), M^(m)) from one inner pass.

    At a = 0 the two bracketed integrals coincide, so G_L(0) = J^(m) exactly;
    it is read off the untruncated G_L even when a box bound zeroes L and M.
    """
    boxed_out = _box_vanishes(F, params.eta / params.r_exponent)
    G_L, G_M = _inner_G(F, m, "LM", swaps)
    J = G_L.eval((0,))
    if boxed_out:
        return J, LogLinear.zero(), LogLinear.zero()
    return J, _outer(G_L, 1, params), _outer(G_M, 2, params)


def leading_coefficient(F: TestFunction, params: SieveParams, variant: str = "Sprime") -> LeadingCoefficient:
    """Exact leading coefficient  -2c sum L + c^2 c_eta sum J + sum M - rho c I.

    Here c = theta/2 - delta and c_eta = ln((1-eta)/eta) for variant "S",
    1 + ln((1-eta)/eta) for variant "Sprime".
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    if F.k != params.k:
        raise ValueError("test function and parameters disagree on k")
    c = params.r_exponent

    # coordinates whose swap leaves F unchanged share their J, L and M; their
    # pair sums have at least as many orbits as I's, so they meet the budget first
    reps = _swap_representatives(F.poly)
    values = {r: _coordinate_values(F, r, params, reps) for r in set(reps)}
    J_vals, L_vals, M_vals = zip(*(values[r] for r in reps))
    I_val = _I_k(F, reps)

    sum_L = sum(L_vals, LogLinear.zero())
    sum_M = sum(M_vals, LogLinear.zero())
    sum_J = sum(J_vals, Fraction(0))

    c_eta = lemma41_constant(params.eta)
    if variant == "Sprime":
        c_eta = c_eta + 1

    L_addend = (-2 * c) * sum_L
    J_addend = (c * c * sum_J) * c_eta
    M_addend = sum_M
    I_addend = LogLinear(-params.rho * c * I_val)

    value = L_addend + J_addend + M_addend + I_addend
    breakdown = {
        "L_addend": L_addend,
        "J_addend": J_addend,
        "M_addend": M_addend,
        "I_addend": I_addend,
    }
    return LeadingCoefficient(
        value=value,
        variant=variant,
        params=params,
        breakdown=breakdown,
        I_value=I_val,
        J_values=J_vals,
        L_values=L_vals,
        M_values=M_vals,
    )


def lemma41_constant(eta: Fraction) -> LogLinear:
    """The constant ln((1 - eta)/eta) appearing in the second addend."""
    eta = as_rational(eta)
    if not 0 < eta < Fraction(1, 4):
        raise ValueError("eta must satisfy 0 < eta < 1/4")
    return LogLinear.log((1 - eta) / eta)


# ---------------------------------------------------------------------------
# Existence plan for rho almost-prime neighbours (large-k regime)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem11Plan:
    """Derived quantities for the large-k existence argument.

    k is None when it has more digits than str() prints (_MAX_K_DIGITS), and
    T is None when it overflows a float; log2_k is always populated.
    eta_ratio = theta/k is the exact rational ratio eta / T (eta itself is
    transcendental: eta = theta T / k), so the identity 2 k eta / theta = 2 T
    can be checked exactly via eta_ratio.
    vanishing_ok records that the substitution offset a_min = 2T/k clears
    the box bound T/k, which kills every inner L and M term.
    """

    rho: int
    theta: Fraction
    epsilon: Fraction
    k: int | None
    log2_k: float
    A: float
    T: float | None
    eta: float
    eta_ratio: Fraction | None
    rhs83: float
    vanishing_ok: bool
    rhs83_exceeds_rho: bool


# k stays an int only while str() can print it: Python caps int-to-str
# conversion at sys.get_int_max_str_digits() digits, 4,300 by default.
_MAX_K_DIGITS = 4_000


def theorem11_plan(rho: int, theta: Fraction, epsilon: Fraction) -> Theorem11Plan:
    """Plan record: k, A = ln k - 2 ln ln k, T = (e^A - 1)/A, eta = theta T / k,
    and the growth bound rhs83 = (3 theta/2)(1 - eps/4)(ln k ln ln k - 3 (ln ln k)^2).
    """
    if not isinstance(rho, int) or rho < 3:
        raise ValueError("rho must be an integer >= 3")
    theta = as_rational(theta)
    epsilon = as_rational(epsilon)
    if not 0 < theta <= 1:
        raise ValueError("theta must satisfy 0 < theta <= 1")
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must satisfy 0 < epsilon <= 1")
    import mpmath   # exp and log at up to _MAX_K_DIGITS digits; nothing else needs it

    def ln_k_before_rounding():
        return (mpmath.mpf((2 + epsilon).numerator) / mpmath.mpf((2 + epsilon).denominator)
                * rho / (3 * mpmath.mpf(theta.numerator) / mpmath.mpf(theta.denominator)
                         * mpmath.log(rho)))

    with mpmath.workdps(30):
        exponent = ln_k_before_rounding()
        log2_k = float(exponent / mpmath.log(2))
        digits_needed = int(exponent / mpmath.log(10)) + 10
    k: int | None = None
    if digits_needed <= min(_MAX_K_DIGITS, sys.get_int_max_str_digits() or _MAX_K_DIGITS):
        with mpmath.workdps(digits_needed + 25):
            k = int(mpmath.floor(mpmath.exp(ln_k_before_rounding()) + 1))

    with mpmath.workdps(30):
        if k is not None and k < 3:
            raise ValueError("derived k is too small (< 3); enlarge rho")
        # without k, ln k = ln(exp(x) + 1) = x to this accuracy at huge x
        lnk = exponent if k is None else mpmath.log(k)
        lnlnk = mpmath.log(lnk)
        A = lnk - 2 * lnlnk
        if A <= 0:
            raise ValueError("A = ln k - 2 ln ln k must be positive")
        T = (mpmath.exp(A) - 1) / A
        theta_mp = mpmath.mpf(theta.numerator) / mpmath.mpf(theta.denominator)
        eps_mp = mpmath.mpf(epsilon.numerator) / mpmath.mpf(epsilon.denominator)
        eta = theta_mp * T / mpmath.exp(lnk) if k is None else theta_mp * T / k
        rhs83 = (3 * theta_mp / 2) * (1 - eps_mp / 4) * (lnk * lnlnk - 3 * lnlnk ** 2)
        # a_min = eta / (theta/2) = 2T/k is exactly twice the box bound T/k
        vanishing_ok = T > 0
        plan = Theorem11Plan(
            rho=rho,
            theta=theta,
            epsilon=epsilon,
            k=k,
            log2_k=log2_k,
            A=float(A),
            T=None if math.isinf(float(T)) else float(T),
            eta=float(eta),
            eta_ratio=(theta / k if k is not None else None),
            rhs83=float(rhs83),
            vanishing_ok=bool(vanishing_ok),
            rhs83_exceeds_rho=bool(rhs83 > rho),
        )
    return plan
