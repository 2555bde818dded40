"""Exact sieve functionals for products of two primes.

The package computes, in exact rational/logarithmic arithmetic, the simplex
integrals and weighted outer integrals whose signs decide whether a
multidimensional sieve finds several numbers with exactly two prime factors
in a bounded window, together with the elementary number theory needed to
sanity-check the analytic side against direct counts.
"""

from .algebra import (
    LogLinear,
    SymPoly,
    TestFunction,
    loglinear_eval,
    parse_poly,
)
from .catalog import TARGETS, VerificationTarget, get_target
from .functionals import (
    BudgetExceeded,
    LeadingCoefficient,
    SieveParams,
    Theorem11Plan,
    inner_L,
    inner_M,
    leading_coefficient,
    lemma41_constant,
    outer_L,
    outer_M,
    quad_outer,
    theorem11_plan,
)
from .numth import (
    AdmissibleSet,
    BVTable,
    GapReport,
    TupleHitReport,
    beta,
    bv_table,
    e2_sequence,
    gap_scan,
    gen_admissible,
    is_admissible,
    p2_sequence,
    pi_beta,
    primes_in_range,
    primes_up_to,
    tuple_hit_count,
)
from .sieveweights import (
    SieveContext,
    SSums,
    lambda_weight,
    s_sums,
    weight_w,
    y_from_lambda,
)
from .simplex import (
    I_k,
    J_k_m,
    MCEstimate,
    mc_simplex_integral,
)

__version__ = "0.1.0"

__all__ = [
    "AdmissibleSet",
    "BVTable",
    "BudgetExceeded",
    "GapReport",
    "I_k",
    "J_k_m",
    "LeadingCoefficient",
    "LogLinear",
    "MCEstimate",
    "SSums",
    "SieveContext",
    "SieveParams",
    "SymPoly",
    "TARGETS",
    "TestFunction",
    "Theorem11Plan",
    "TupleHitReport",
    "VerificationTarget",
    "beta",
    "bv_table",
    "e2_sequence",
    "gap_scan",
    "gen_admissible",
    "get_target",
    "inner_L",
    "inner_M",
    "is_admissible",
    "lambda_weight",
    "leading_coefficient",
    "lemma41_constant",
    "loglinear_eval",
    "mc_simplex_integral",
    "outer_L",
    "outer_M",
    "p2_sequence",
    "parse_poly",
    "pi_beta",
    "primes_in_range",
    "primes_up_to",
    "quad_outer",
    "s_sums",
    "theorem11_plan",
    "tuple_hit_count",
    "weight_w",
    "y_from_lambda",
]
