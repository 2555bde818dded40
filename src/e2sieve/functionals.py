"""Substituted simplex functionals and the leading coefficient of the sieve sums.

The m-th coordinate substitution

    u_m  ->  a + (1 - a) u_m,        a = xi / c,   c = theta/2 - delta,

models forcing the m-th shifted component to carry a prime factor of size
N^xi.  For a polynomial test function F supported on the simplex, the two
inner quantities at a fixed xi are

    L-inner(xi) = G_L(a) / (1 - a),      M-inner(xi) = G_M(a) / (1 - a)^2,

where G_L(a) (resp. G_M(a)) is the integral over {u_i >= 0 (i != m),
sum u_i <= 1 - a} of [int_a^{1-s} F dt][int_0^{1-s} F dt] (resp. of
[int_a^{1-s} F dt]^2), an exact univariate polynomial obtained by the
rescaling u_i = (1 - a) v_i and the Dirichlet monomial formula.

The outer integrals carry the weights (c - xi)/(1 - xi) / xi for L and
(c - xi)^2/(1 - xi) / xi for M on eta <= xi <= c.  Because
c - xi = c (1 - a), the weights absorb the inner denominators exactly:

    L-outer = int_eta^c  P_L(xi) / (xi (1 - xi)) dxi,   P_L(xi) = c   G_L(xi/c),
    M-outer = int_eta^c  P_M(xi) / (xi (1 - xi)) dxi,   P_M(xi) = c^2 G_M(xi/c),

so the integrand is a polynomial divided by xi (1 - xi), with no singularity
inside [eta, c].  Partial fractions then give the exact closed form

    P(0) (ln c - ln eta) + P(1) (ln(1-eta) - ln(1-c)) + Qhat(c) - Qhat(eta)

with Q = (P - P(0)(1-xi) - P(1) xi) / (xi (1-xi)) an exact polynomial
quotient and Qhat its antiderivative: a LogLinear value.  An independent
check integrates the same polynomial numerically after the substitution
xi = e^t, which turns the integrand into the smooth, bounded
P(e^t) / (1 - e^t) on [ln eta, ln c], and evaluates it by tanh-sinh
quadrature without the partial fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .algebra import (
    BigRational,
    LogLinear,
    SymPoly,
    TestFunction,
    as_rational,
)
from .simplex import I_k, integrate_out, monomial_simplex_integral


class BudgetExceeded(RuntimeError):
    """Raised when a numeric routine exhausts its evaluation budget."""


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


def substitute_m_delta(F: TestFunction, m: int) -> SymPoly:
    """F with u_m replaced by a + (1 - a) u_m, symbolic in a.

    Returns a polynomial in k + 1 variables (u1..uk followed by a).
    """
    k = F.k
    if not 1 <= m <= k:
        raise ValueError(f"m must be in 1..{k}")
    lifted = SymPoly(k + 1, {exps + (0,): c for exps, c in F.poly.terms.items()})
    a = SymPoly.variable(k + 1, k)
    um = SymPoly.variable(k + 1, m - 1)
    return lifted.substitute(m - 1, a + (1 - a) * um)


@dataclass(frozen=True)
class InnerFunctional:
    """A univariate polynomial G(a) encoding one inner functional.

    kind "L": semantic value at a is G(a) / (1 - a)   (one substituted factor),
    kind "M": semantic value at a is G(a) / (1 - a)^2 (substituted factor squared).
    G is divisible by the corresponding power of (1 - a); `quotient_poly`
    performs the division exactly and raises if a remainder survives.
    """

    m: int
    kind: str  # "L" or "M"
    G: SymPoly

    def __post_init__(self):
        if self.kind not in ("L", "M"):
            raise ValueError("kind must be 'L' or 'M'")
        if self.G.nvars != 1:
            raise ValueError("G must be univariate")

    @property
    def power(self) -> int:
        """The power of (1 - a) dividing G: 1 for L, 2 for M."""
        return 1 if self.kind == "L" else 2

    def quotient_poly(self) -> SymPoly:
        """G(a) / (1-a)^power as an exact polynomial."""
        coeffs = self.G.univariate_coeffs()
        for _ in range(self.power):
            coeffs = _divide_by_one_minus_x(coeffs)
        return SymPoly(1, {(i,): c for i, c in enumerate(coeffs)})

    def value_at(self, a: Fraction) -> Fraction:
        """Exact semantic value G(a)/(1-a)^power for a rational a < 1."""
        a = as_rational(a)
        if a >= 1:
            raise ValueError("semantic value requires a < 1")
        return self.quotient_poly().eval((a,))


def _divide_by_one_minus_x(coeffs: list[Fraction]) -> list[Fraction]:
    """Exact division of a coefficient list by (1 - x); remainder must vanish."""
    # synthetic division by (x - 1) then negate: p = (x-1) q + r  =>  p = (1-x)(-q) + r
    if not coeffs:
        return []
    q = [Fraction(0)] * (len(coeffs) - 1)
    acc = Fraction(0)
    for i in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[i] + acc
        q[i - 1] = -acc
    remainder = coeffs[0] + acc
    if remainder != 0:
        raise ValueError("polynomial is not divisible by (1 - x)")
    while q and q[-1] == 0:
        q.pop()
    return q


def _check_box_bound(F: TestFunction, a_min: Fraction | None) -> bool:
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


def _inner_G(F: TestFunction, m: int, kinds: str) -> tuple[SymPoly, ...]:
    """The univariate G(a) of each inner kind in `kinds` ("L", "M" or "LM").

    All kinds share one h1 = int_a^{1-s} F dt_m; the L kind multiplies it by
    h2 = int_0^{1-s} F dt_m, which is h1 at a = 0.
    """
    k = F.k
    if not 1 <= m <= k:
        raise ValueError(f"m must be in 1..{k}")
    var = m - 1
    ring = k + 1  # u1..uk plus the substitution offset a
    lifted = SymPoly(ring, {exps + (0,): c for exps, c in F.poly.terms.items()})
    h1 = integrate_out(lifted, var, k, lower=SymPoly.variable(ring, k))
    h2 = h1.substitute(k, 0)
    return tuple(_rescaled_simplex_integral(h1 * (h1 if kind == "M" else h2), var, k)
                 for kind in kinds)


def _rescaled_simplex_integral(q: SymPoly, var: int, k: int) -> SymPoly:
    """int of q(u, a) over {u_i >= 0 (i != var), sum u_i <= 1 - a}, as a polynomial in a."""
    # Rescale u_i = (1 - a) v_i for i != m (Jacobian (1-a)^(k-1)): a monomial
    # with u-degree t just picks up a factor (1-a)^t, and the v-integral over
    # the unit simplex is the Dirichlet value.  Group by t to keep the
    # univariate assembly cheap.
    by_degree: dict[int, dict[int, Fraction]] = {}
    for exps, c in q.terms.items():
        assert exps[var] == 0
        u_part = exps[:var] + exps[var + 1:k]
        t = sum(u_part)
        val = c * monomial_simplex_integral(u_part)
        slot = by_degree.setdefault(t, {})
        slot[exps[k]] = slot.get(exps[k], Fraction(0)) + val

    one_minus_a = 1 - SymPoly.variable(1, 0)
    power = SymPoly.constant(1, 1)
    powers: list[SymPoly] = []
    for _ in range(max(by_degree, default=0) + 1):
        powers.append(power)
        power = power * one_minus_a
    total = SymPoly.zero(1)
    for t, amap in sorted(by_degree.items()):
        p_t = SymPoly(1, {(e,): cc for e, cc in amap.items()})
        total = total + p_t * powers[t]
    return total * one_minus_a ** (k - 1)


def inner_L(F: TestFunction, m: int, a_min: Fraction | None = None) -> InnerFunctional:
    """Inner L functional: G_L(a) with semantic value G_L(a)/(1-a)."""
    if _check_box_bound(F, a_min):
        return InnerFunctional(m=m, kind="L", G=SymPoly.zero(1))
    return InnerFunctional(m=m, kind="L", G=_inner_G(F, m, "L")[0])


def inner_M(F: TestFunction, m: int, a_min: Fraction | None = None) -> InnerFunctional:
    """Inner M functional: G_M(a) with semantic value G_M(a)/(1-a)^2."""
    if _check_box_bound(F, a_min):
        return InnerFunctional(m=m, kind="M", G=SymPoly.zero(1))
    return InnerFunctional(m=m, kind="M", G=_inner_G(F, m, "M")[0])


# ---------------------------------------------------------------------------
# Outer integrals: closed form and quadrature
# ---------------------------------------------------------------------------


def _outer_weight_poly(inner: InnerFunctional, c: Fraction) -> list[Fraction]:
    """Coefficients of P(xi) = c^power * G(xi/c), power = 1 (L) or 2 (M)."""
    g = inner.G.univariate_coeffs()
    return [gi * c ** (inner.power - i) for i, gi in enumerate(g)]


def _closed_form_outer(pcoeffs: list[Fraction], eta: Fraction, c: Fraction) -> LogLinear:
    """Exact value of int_eta^c P(xi) / (xi (1 - xi)) dxi as a LogLinear.

    Uses P(xi) = P(0)(1-xi) + P(1) xi + xi (1-xi) Q(xi) with Q an exact
    polynomial quotient, then integrates the three pieces.
    """
    if not pcoeffs:
        return LogLinear.zero()
    p0 = pcoeffs[0]
    p1 = sum(pcoeffs)
    # numerator N(xi) = P - P(0)(1-xi) - P(1) xi vanishes at 0 and 1
    ncoeffs = list(pcoeffs)
    ncoeffs[0] -= p0
    if len(ncoeffs) == 1:
        ncoeffs.append(Fraction(0))
    ncoeffs[1] += p0 - p1
    assert ncoeffs[0] == 0
    q = _divide_by_one_minus_x(ncoeffs[1:])  # N / xi, then / (1 - xi)
    # antiderivative of Q evaluated at the endpoints
    const = Fraction(0)
    for i, qi in enumerate(q):
        const += qi * (c ** (i + 1) - eta ** (i + 1)) / (i + 1)
    return LogLinear(const, [
        (c, p0),
        (eta, -p0),
        (1 - eta, p1),
        (1 - c, -p1),
    ])


def _outer_value(inner: InnerFunctional, params: SieveParams) -> LogLinear:
    """The closed-form outer integral of one inner functional."""
    if inner.G.is_zero():
        return LogLinear.zero()
    c = params.r_exponent
    return _closed_form_outer(_outer_weight_poly(inner, c), params.eta, c)


def outer_L(F: TestFunction, m: int, params: SieveParams) -> LogLinear:
    """L^(m): the weighted outer integral of the inner L functional, exact.

    Degenerate range (eta >= theta/2 - delta) returns zero by convention;
    SieveParams itself never produces that combination.
    """
    c = params.r_exponent
    if params.eta >= c:
        return LogLinear.zero()
    return _outer_value(inner_L(F, m, a_min=params.eta / c), params)


def outer_M(F: TestFunction, m: int, params: SieveParams) -> LogLinear:
    """M^(m): the weighted outer integral of the inner M functional, exact."""
    c = params.r_exponent
    if params.eta >= c:
        return LogLinear.zero()
    return _outer_value(inner_M(F, m, a_min=params.eta / c), params)


def quad_outer(
    F: TestFunction,
    m: int,
    params: SieveParams,
    kind: str,
    tol: float = 1e-13,
    max_evals: int = 500_000,
) -> float:
    """Quadrature check of outer_L / outer_M (kind 'L' or 'M').

    Substitutes xi = e^t, so the outer integral becomes
    int_{ln eta}^{ln c} P(e^t) / (1 - e^t) dt with a smooth, bounded
    integrand (c <= 1/2), and integrates it by tanh-sinh quadrature at 40
    working digits, which makes the absolute tolerance (>= 1e-13)
    meaningful.  Nothing of the closed form's partial fractions is used.
    Deterministic; raises BudgetExceeded if the integrand needs more than
    max_evals evaluations or the error estimate exceeds tol.
    """
    if kind not in ("L", "M"):
        raise ValueError("kind must be 'L' or 'M'")
    if tol < 1e-13:
        raise ValueError("tol must be >= 1e-13")
    c = params.r_exponent
    eta = params.eta
    if eta >= c:
        return 0.0
    inner = inner_L(F, m, a_min=eta / c) if kind == "L" else inner_M(F, m, a_min=eta / c)
    if inner.G.is_zero():
        return 0.0
    pcoeffs = _outer_weight_poly(inner, c)
    evals = 0

    with mpmath.workdps(40):
        pm = [mpmath.mpf(p.numerator) / p.denominator for p in pcoeffs]

        def integrand(t):
            nonlocal evals
            evals += 1
            if evals > max_evals:
                raise BudgetExceeded(f"quadrature exceeded {max_evals} evaluations")
            x = mpmath.exp(t)
            acc = mpmath.mpf(0)
            for coeff in reversed(pm):
                acc = acc * x + coeff
            return acc / (1 - x)

        lo = mpmath.log(mpmath.mpf(eta.numerator) / eta.denominator)
        hi = mpmath.log(mpmath.mpf(c.numerator) / c.denominator)
        value, err = mpmath.quad(integrand, [lo, hi], error=True)
        if err > tol:
            raise BudgetExceeded(f"quadrature error estimate {mpmath.nstr(err, 3)} exceeds {tol}")
        return float(value)


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


def _swap_representatives(poly: SymPoly) -> list[int]:
    """For each coordinate m (1-based), the first r <= m whose swap with m fixes poly.

    Invariance under the swap of u_r and u_m is an equivalence relation, so m
    only needs testing against the representatives found so far.
    """
    k = poly.nvars
    reps: list[int] = []
    out: list[int] = []
    for m in range(k):
        for r in reps:
            perm = list(range(k))
            perm[r], perm[m] = m, r
            if poly.permuted(perm) == poly:
                out.append(r + 1)
                break
        else:
            reps.append(m)
            out.append(m + 1)
    return out


def _coordinate_values(F: TestFunction, m: int,
                       params: SieveParams) -> tuple[Fraction, LogLinear, LogLinear]:
    """(J^(m), L^(m), M^(m)) from one inner pass.

    At a = 0 the two bracketed integrals coincide, so G_L(0) = J^(m) exactly;
    it is read off the untruncated G_L even when a box bound zeroes L and M.
    """
    boxed_out = _check_box_bound(F, params.eta / params.r_exponent)
    G_L, G_M = _inner_G(F, m, "LM")
    J = G_L.eval((0,))
    if boxed_out:
        return J, LogLinear.zero(), LogLinear.zero()
    return (J, _outer_value(InnerFunctional(m=m, kind="L", G=G_L), params),
            _outer_value(InnerFunctional(m=m, kind="M", G=G_M), params))


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
    eta = params.eta

    I_val = I_k(F)
    # coordinates whose swap leaves F unchanged share their J, L and M
    reps = _swap_representatives(F.poly)
    values = {r: _coordinate_values(F, r, params) for r in set(reps)}
    J_vals, L_vals, M_vals = zip(*(values[r] for r in reps))

    sum_L = LogLinear.zero()
    for v in L_vals:
        sum_L = sum_L + v
    sum_M = LogLinear.zero()
    for v in M_vals:
        sum_M = sum_M + v
    sum_J = sum(J_vals, Fraction(0))

    log_eta_term = LogLinear.log((1 - eta) / eta)
    c_eta = log_eta_term if variant == "S" else log_eta_term + 1

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

    k may be None when it would need more than ~1e5 decimal digits; log2_k
    is always populated.  eta_ratio = theta/k is the exact rational ratio
    eta / T (eta itself is transcendental: eta = theta T / k), so the
    identity 2 k eta / theta = 2 T can be checked exactly via eta_ratio.
    vanishing_ok records that the substitution offset a_min = 2T/k clears
    the box bound T/k, which kills every inner L and M term.
    """

    rho: int
    theta: Fraction
    epsilon: Fraction
    k: int | None
    log2_k: float
    A: float
    T: float
    eta: float
    eta_ratio: Fraction | None
    rhs83: float
    vanishing_ok: bool
    rhs83_exceeds_rho: bool


_MAX_K_DIGITS = 100_000


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

    with mpmath.workdps(30):
        exponent = (mpmath.mpf((2 + epsilon).numerator) / mpmath.mpf((2 + epsilon).denominator)
                    * rho / (3 * mpmath.mpf(theta.numerator) / mpmath.mpf(theta.denominator)
                             * mpmath.log(rho)))
        log2_k = float(exponent / mpmath.log(2))
        digits_needed = int(exponent / mpmath.log(10)) + 10

    k: int | None
    if digits_needed > _MAX_K_DIGITS:
        k = None
        with mpmath.workdps(30):
            ln_k = exponent  # ln(exp(x) + 1) = x to this accuracy at huge x
    else:
        with mpmath.workdps(digits_needed + 25):
            exponent_hp = (mpmath.mpf((2 + epsilon).numerator) / mpmath.mpf((2 + epsilon).denominator)
                           * rho / (3 * mpmath.mpf(theta.numerator) / mpmath.mpf(theta.denominator)
                                    * mpmath.log(rho)))
            k = int(mpmath.floor(mpmath.exp(exponent_hp) + 1))
        ln_k = None

    with mpmath.workdps(30):
        if k is not None:
            if k < 3:
                raise ValueError("derived k is too small (< 3); enlarge rho")
            lnk = mpmath.log(k)
        else:
            lnk = ln_k
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
            T=float(T),
            eta=float(eta),
            eta_ratio=(theta / k if k is not None else None),
            rhs83=float(rhs83),
            vanishing_ok=bool(vanishing_ok),
            rhs83_exceeds_rho=bool(rhs83 > rho),
        )
    return plan
