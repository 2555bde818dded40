"""The three workloads: their seeded inputs, timed calls and checks.

`build(workload, seed)` imports e2sieve, makes the inputs and returns the
operations of one pass.  Each operation calls one public entry point through
its module attribute (so that a traced pass sees the call) and carries the
check that judges its result afterwards.  No two operations of a pass share
their inputs, so no memo inside the program serves one timed call from
another.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable

import checks
import reference

# exact: seeded asymmetric test functions, (k, total degree, theta, eta, variant)
CUSTOM = [(3, 4, "1", "1/10000000000", "Sprime"), (4, 3, "1/2", "1/100", "S")]
CUSTOM_RHO = 2
NUMERATORS = [n for n in range(-20, 21) if n]   # coefficients n/10

# crosscheck
MC_SAMPLES = 10 ** 6                 # the acceptance suite's sample count
FAULT_ETA = Fraction(1, 10 ** 30)
FAULT = ("quad_outer raises BudgetExceeded (depth 60) for eta <= 1e-20, "
         "although SieveParams accepts every eta > 0")

# desk
SUMS_N = 10 ** 4
SUMS_PARAMS = {"theta": Fraction(1), "delta": Fraction(149, 2000), "eta": Fraction(1, 10)}
SUMS_CASES = [((0, 2), "(1-u1)*(1-u2)", 1), ((0, 2, 6), "(1-u1)*(1-u2)*(1-u3)", 2)]
GAP_LIMIT, GAP_RHO = 10 ** 6, 2
HIT_LIMIT = 10 ** 6
BV_CASES = [(10 ** 5, "primes", Fraction(1, 2), None), (2 * 10 ** 4, "beta", Fraction(1, 2), Fraction(1, 10))]


@dataclass
class Op:
    name: str
    group: str                      # the per-call figure this call adds to
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    counts: Callable[[object], dict] = lambda result: {}
    known_fault: str | None = None
    output: Callable[[object], str] = repr   # what a later pass must reproduce


@dataclass
class Workload:
    ops: list[Op]
    functions: Callable[[], list]   # the test functions, for the F*F term count


@dataclass
class CliRun:
    code: int
    out: str
    err: str


def run_cli(argv: list[str]) -> CliRun:
    from e2sieve import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliRun(code, out.getvalue(), err.getvalue())


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def custom_expression(rng: random.Random, k: int, degree: int) -> str:
    """Every monomial of total degree <= degree, constant term 1, others n/10.

    The linear coefficients are drawn distinct, so no swap of two coordinates
    leaves the polynomial unchanged and each coordinate m has its own J, L, M.
    """
    monomials = [e for e in product(range(degree + 1), repeat=k) if 0 < sum(e) <= degree]
    while True:
        coeffs = {e: rng.choice(NUMERATORS) for e in monomials}
        linear = [coeffs[tuple(int(i == j) for j in range(k))] for i in range(k)]
        if len(set(linear)) == k:
            break
    text = ["1"]
    for e in sorted(monomials, key=lambda e: (sum(e), e)):
        factors = "*".join(f"u{i + 1}" + (f"**{a}" if a > 1 else "") for i, a in enumerate(e) if a)
        c = coeffs[e]
        text.append(f"{'-' if c < 0 else '+'} ({abs(c)}/10)*{factors}")
    return " ".join(text)


def hit_shifts(rng: random.Random) -> tuple[int, ...]:
    """An admissible triple (0, a, b) with b <= 12."""
    triples = [(0, a, b) for a in range(2, 13, 2) for b in range(a + 2, 13, 2)
               if len({0, a % 3, b % 3}) < 3]
    return rng.choice(triples)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _verify_op(name: str) -> Op:
    def check(r: CliRun) -> list[str]:
        return checks.check_verify(name, r.code, json.loads(r.out))

    return Op(f"verify_{name}", f"verify_{name}_s",
              lambda: run_cli(["verify", "--theorem", name, "--format", "json"]), check)


def _functional_op(index: int, expression: str, k: int, theta: str, eta: str, variant: str) -> Op:
    argv = ["functional", "--F", expression, "--k", str(k), "--theta", theta, "--eta", eta,
            "--rho", str(CUSTOM_RHO), "--variant", variant, "--format", "json"]

    def check(r: CliRun) -> list[str]:
        want = checks.functional_reference(expression, k, Fraction(theta), Fraction(eta),
                                           CUSTOM_RHO, variant)
        return checks.check_functional(want, k, r.code, json.loads(r.out))

    return Op(f"functional_custom{index}", "functional_custom_s", lambda: run_cli(argv), check)


def exact(seed: int) -> Workload:
    from e2sieve import TARGETS, TestFunction, algebra

    rng = random.Random(f"exact:{seed}")
    theorems = ("thm1.2", "thm1.3", "thm1.4")
    ops = [_verify_op(name) for name in theorems]
    functions = []
    for index, (k, degree, theta, eta, variant) in enumerate(CUSTOM, 1):
        expression = custom_expression(rng, k, degree)
        functions.append(TestFunction(k=k, poly=algebra.parse_poly(expression, k)))
        ops.append(_functional_op(index, expression, k, theta, eta, variant))
    return Workload(ops, lambda: functions + [TARGETS[name].test_function() for name in theorems])


def crosscheck(seed: int) -> Workload:
    from e2sieve import TARGETS, SieveParams, functionals, loglinear_eval, simplex

    rng = random.Random(f"crosscheck:{seed}")
    t12, t13 = TARGETS["thm1.2"], TARGETS["thm1.3"]
    F12, p12 = t12.test_function(), t12.params()
    F13 = t13.test_function()
    p13 = SieveParams(k=t13.k, rho=t13.rho, theta=t13.theta, eta=FAULT_ETA)

    def quad_op(F, params, kind, group, known_fault=None) -> Op:
        def check(value: float) -> list[str]:
            outer = getattr(functionals, f"outer_{kind}")
            closed = float(loglinear_eval(outer(F, 1, params), 25))
            return checks.check_quad(value, closed)

        return Op(f"quad_{F.k}_{kind}_{params.eta}", group,
                  lambda: functionals.quad_outer(F, 1, params, kind), check,
                  known_fault=known_fault)

    def mc_op(kind: str, m: int | None) -> Op:
        mc_seed = rng.randrange(2 ** 31)

        def check(est) -> list[str]:
            exact = (reference.exact_I(t12.expression, t12.k) if kind == "I"
                     else reference.exact_J(t12.expression, t12.k, m))
            return checks.check_mc(est.value, est.stderr, exact)

        return Op(f"mc_{kind}", "mc_s",
                  lambda: simplex.mc_simplex_integral(F12, kind, MC_SAMPLES, mc_seed, m=m), check,
                  counts=lambda est: {"simplex.mc_samples": est.samples})

    ops = [quad_op(F12, p12, "L", "quad_s"), quad_op(F12, p12, "M", "quad_s"),
           mc_op("I", None), mc_op("J", 1),
           quad_op(F13, p13, "L", "quad_fault_s", known_fault=FAULT)]
    return Workload(ops, lambda: [F12, F13])


def _lambda_table(ctx) -> dict:
    """The nonzero lambda values of a context, by supported index tuple."""
    from e2sieve import sieveweights

    table = {t: sieveweights.lambda_weight(ctx, t) for t in ctx.supported_tuples()}
    return {t: v for t, v in table.items() if v}


def desk(seed: int) -> Workload:
    from e2sieve import TestFunction, algebra, sieveweights

    rng = random.Random(f"desk:{seed}")
    ops, functions = [], []
    for shifts, expression, rho in SUMS_CASES:
        F = TestFunction(k=len(shifts), poly=algebra.parse_poly(expression, len(shifts)))
        functions.append(F)

        def call(shifts=shifts, F=F, rho=rho):
            ctx = sieveweights.SieveContext(N=SUMS_N, shifts=shifts, F=F, **SUMS_PARAMS)
            return ctx, sieveweights.s_sums(ctx, rho)

        def check(result, shifts=shifts, rho=rho) -> list[str]:
            ctx, sums = result
            return checks.check_s_sums(SUMS_N, shifts, SUMS_PARAMS["eta"], rho, ctx.W, ctx.nu0,
                                       _lambda_table(ctx), sums)

        def counts(result) -> dict:
            ctx, sums = result
            return {"sieveweights.tuples": len(ctx.supported_tuples()),
                    "sieveweights.lambda_entries": len(_lambda_table(ctx)),
                    "sieveweights.n_scanned": sums.n_scanned}

        ops.append(Op(f"s_sums_k{len(shifts)}", "s_sums_s", call, check, counts,
                      output=lambda result: repr(result[1])))

    gaps_argv = ["scan", "--mode", "gaps", "--limit", str(GAP_LIMIT), "--universe", "E2",
                 "--rho", str(GAP_RHO)]
    ops.append(Op("scan_gaps", "scan_gaps_s", lambda: run_cli(gaps_argv),
                  lambda r: checks.check_gaps(GAP_LIMIT, GAP_RHO, r.code, json.loads(r.out)),
                  lambda r: {"numth.scanned": json.loads(r.out)["scanned"]}))

    shifts = hit_shifts(rng)
    hits_argv = ["scan", "--mode", "hits", "--limit", str(HIT_LIMIT), "--universe", "P2",
                 "--H", ",".join(map(str, shifts))]
    ops.append(Op("scan_hits", "scan_hits_s", lambda: run_cli(hits_argv),
                  lambda r: checks.check_hits(shifts, HIT_LIMIT, r.code, json.loads(r.out))))

    for N, universe, theta, eta in BV_CASES:
        argv = ["scan", "--mode", "bv", "--limit", str(N), "--universe", universe,
                "--theta", str(theta)] + (["--eta", str(eta)] if eta is not None else [])
        ops.append(Op(f"scan_bv_{universe}", "scan_bv_s", lambda argv=argv: run_cli(argv),
                      lambda r, N=N, universe=universe, theta=theta, eta=eta:
                      checks.check_bv(N, theta, universe, eta, r.code, json.loads(r.out))))
    return Workload(ops, lambda: functions)


def build(workload: str, seed: int) -> Workload:
    return {"exact": exact, "crosscheck": crosscheck, "desk": desk}[workload](seed)
