"""Checks of e2sieve's outputs against computations made apart from the program.

Every function takes plain data (exit codes, parsed JSON payloads, numbers,
a lambda table) and returns a list of problems; an empty list means the
result passed.  The references come from `reference.py`, which never
imports e2sieve, and from the published digits below.  The checks run after
a pass's timed calls, so their cost never enters a timing.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import reference as ref

# Published values of the three bundled theorems: decimals are checked to
# five units in their last digit, rationals exactly.
PUBLISHED = {
    "thm1.2": {"I": "5.30806e-6", "J": "1.88915e-6", "L": "9.20744e-6",
               "M": "2.22265e-6", "coefficient": "8.02e-8"},
    "thm1.3": {"I": "0.0287919", "J": "0.0154828", "L": "0.1606331",
               "M": "0.0779163", "coefficient": "0.00204"},
    "thm1.4": {"I": "1735763/1732500000", "J": "722755717/1871100000000",
               "L": "0.00392368", "M": "0.00190092", "coefficient": "2.13079e-6"},
}

QUAD_TOL = 1e-12        # criterion 4's gate between quadrature and closed form
FUNCTIONAL_TOL = 1e-12  # printed L, M and coefficient floats vs the reference quadrature
MC_SIGMAS = 4


def _close_to_published(computed: str, published: str) -> bool:
    unit = Decimal(1).scaleb(Decimal(published).as_tuple().exponent)
    return abs(Decimal(computed) - Decimal(published)) <= 5 * unit


def check_verify(name: str, code: int, payload: dict) -> list[str]:
    """`e2sieve verify --theorem <name> --format json` against the published digits."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if payload.get("verdict") != "positive":
        problems.append(f"verdict {payload.get('verdict')!r}")
    exact = {"I": payload.get("I_exact"), "J": payload.get("J_exact")}
    for quantity, published in PUBLISHED[name].items():
        if "/" in published:
            if Fraction(exact[quantity]) != Fraction(published):
                problems.append(f"{quantity} = {exact[quantity]}, published {published}")
            continue
        computed = payload["values"][quantity]["computed"]
        if not _close_to_published(computed, published):
            problems.append(f"{quantity} = {computed}, published {published}")
    return problems


def functional_reference(expression: str, k: int, theta: Fraction, eta: Fraction,
                         rho: int, variant: str) -> dict:
    """I, J^(m) exactly and L^(m), M^(m), the coefficient by quadrature."""
    import mpmath

    c = theta / 2
    out = {"I": ref.exact_I(expression, k), "J": [], "L": [], "M": []}
    for m in range(1, k + 1):
        out["J"].append(ref.exact_J(expression, k, m))
        for kind in ("L", "M"):
            out[kind].append(ref.outer_quad(ref.inner_G(expression, k, m, kind), kind, eta, c))
    with mpmath.workdps(30):
        cm = mpmath.mpf(c.numerator) / c.denominator
        c_eta = mpmath.log((1 - mpmath.mpf(eta.numerator) / eta.denominator)
                           / (mpmath.mpf(eta.numerator) / eta.denominator))
        if variant == "Sprime":
            c_eta += 1
        sum_J = sum(out["J"], Fraction(0))
        out["coefficient"] = (-2 * cm * sum(out["L"]) + cm * cm * c_eta
                              * mpmath.mpf(sum_J.numerator) / sum_J.denominator
                              + sum(out["M"]) - rho * cm * mpmath.mpf(out["I"].numerator)
                              / out["I"].denominator)
    return out


def check_functional(reference: dict, k: int, code: int, payload: dict) -> list[str]:
    """`e2sieve functional --format json` against `functional_reference`."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if Fraction(payload["I"]["exact"]) != reference["I"]:
        problems.append(f"I = {payload['I']['exact']}, reference {reference['I']}")
    for m in range(1, k + 1):
        got = Fraction(payload["J"][f"m={m}"]["exact"])
        if got != reference["J"][m - 1]:
            problems.append(f"J(m={m}) = {got}, reference {reference['J'][m - 1]}")
        for kind in ("L", "M"):
            got = payload[kind][f"m={m}"]["float"]
            want = reference[kind][m - 1]
            if not abs(got - want) <= FUNCTIONAL_TOL:
                problems.append(f"{kind}(m={m}) = {got!r}, quadrature {float(want)!r}")
    got = payload["leading_coefficient"]["float"]
    if not abs(got - reference["coefficient"]) <= FUNCTIONAL_TOL:
        problems.append(f"coefficient = {got!r}, reference {float(reference['coefficient'])!r}")
    return problems


def check_quad(value: float, closed_form: float) -> list[str]:
    if not abs(value - closed_form) <= QUAD_TOL:
        return [f"quadrature {value!r} vs closed form {closed_form!r}: "
                f"difference {abs(value - closed_form):.3g} > {QUAD_TOL}"]
    return []


def check_mc(value: float, stderr: float, exact: Fraction) -> list[str]:
    if not (stderr > 0 and abs(value - float(exact)) <= MC_SIGMAS * stderr):
        return [f"estimate {value!r} (stderr {stderr!r}) vs exact {float(exact)!r}"]
    return []


def _compare(payload: dict, reference: dict) -> list[str]:
    return [f"{key} = {payload.get(key)!r}, reference {want!r}"
            for key, want in reference.items() if payload.get(key) != want]


def check_gaps(limit: int, rho: int, code: int, payload: dict) -> list[str]:
    problems = [f"exit code {code}"] if code != 0 else []
    return problems + _compare(payload, ref.gap_report(limit, rho))


def check_hits(shifts, limit: int, code: int, payload: dict) -> list[str]:
    problems = [f"exit code {code}"] if code != 0 else []
    return problems + _compare(payload, ref.hit_report(tuple(shifts), limit, len(shifts)))


def check_bv(N: int, theta: Fraction, universe: str, eta, code: int, payload: dict) -> list[str]:
    problems = [f"exit code {code}"] if code != 0 else []
    want = ref.bv_report(N, theta, universe, eta)
    rows = {int(q): Fraction(v) for q, v in payload["rows"].items()}
    if rows != want["rows"]:
        bad = sorted(q for q in set(rows) | set(want["rows"]) if rows.get(q) != want["rows"].get(q))
        problems.append(f"rows differ at q = {bad[:5]}")
    if Fraction(payload["weighted_sum"]) != want["weighted_sum"]:
        problems.append(f"weighted sum {payload['weighted_sum']} vs {want['weighted_sum']}")
    return problems


def check_s_sums(N: int, shifts, eta: Fraction, rho: int, W: int, nu0: int,
                 lam: dict, sums) -> list[str]:
    """An `SSums` record against the dual form and a recount from the lambda table.

    `lam` maps each supported index tuple to its nonzero lambda value.
    """
    problems = []
    if W != ref.default_W(N):
        problems.append(f"W = {W}, expected {ref.default_W(N)}")
    shifts = tuple(shifts)
    S0 = ref.s0_dual(N, shifts, W, nu0, lam)
    if sums.S0 != S0:
        problems.append(f"S0 = {sums.S0} differs from the dual form {S0}")
    window = ref.window_sums(N, shifts, eta, W, nu0, lam)
    if sums.n_scanned != window["n_scanned"]:
        problems.append(f"n_scanned {sums.n_scanned}, expected {window['n_scanned']}")
    for m in range(len(shifts)):
        for name in ("S1", "S2"):
            if getattr(sums, name)[m] != window[name][m]:
                problems.append(f"{name}[{m}] = {getattr(sums, name)[m]}, recount {window[name][m]}")
        if dict(sums.parts[m]) != window["parts"][m]:
            problems.append(f"parts[{m}] differ from the recount")
        if sum(sums.parts[m].values(), Fraction(0)) != sums.S2[m]:
            problems.append(f"parts[{m}] do not sum to S2[{m}]")
    if sums.S != sum(sums.S2, Fraction(0)) - rho * sums.S0:
        problems.append("S != sum S2 - rho S0")
    if sums.Sprime != sum(sums.S1, Fraction(0)) + sum(sums.S2, Fraction(0)) - rho * sums.S0:
        problems.append("S' != sum S1 + sum S2 - rho S0")
    return problems
