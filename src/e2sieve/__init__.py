"""Exact sieve functionals for products of two primes.

The package computes, in exact rational/logarithmic arithmetic, the simplex
integrals and weighted outer integrals whose signs decide whether a
multidimensional sieve finds several numbers with exactly two prime factors
in a bounded window, together with the elementary number theory needed to
sanity-check the analytic side against direct counts.

The top level exports what the scripts and the benchmark call; everything
else is reached through its module (`e2sieve.simplex`, `e2sieve.numth`, ...).
Importing the package loads all of its modules except `cli`.
"""

from .algebra import LogLinear, TestFunction, loglinear_eval, parse_poly
from .catalog import TARGETS
from .functionals import (
    BudgetExceeded,
    SieveParams,
    leading_coefficient,
    outer_L,
    quad_outer,
    theorem11_plan,
)
from .numth import gap_scan, gen_admissible, is_admissible, tuple_hit_count
from .sieveweights import SieveContext, lambda_weight, s_sums, y_from_lambda
from .simplex import mc_simplex_integral

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded",
    "LogLinear",
    "SieveContext",
    "SieveParams",
    "TARGETS",
    "TestFunction",
    "gap_scan",
    "gen_admissible",
    "is_admissible",
    "lambda_weight",
    "leading_coefficient",
    "loglinear_eval",
    "mc_simplex_integral",
    "outer_L",
    "parse_poly",
    "quad_outer",
    "s_sums",
    "theorem11_plan",
    "tuple_hit_count",
    "y_from_lambda",
]
