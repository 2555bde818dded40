"""Bundled verification targets.

Each target is a concrete (F, k, rho, theta, variant) choice whose
leading coefficient is positive, together with the published reference
digits it should reproduce.  The keys double as the --theorem vocabulary of
the command line interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import TestFunction
from .functionals import SieveParams


@dataclass(frozen=True)
class VerificationTarget:
    name: str
    expression: str           # power-sum / product form of the test function
    k: int
    rho: int
    theta: Fraction
    variant: str              # "S" counts only almost-prime components, "Sprime" adds primes
    reference: dict[str, str]  # printed digits to reproduce, per quantity

    def params(self) -> SieveParams:
        """k, rho and theta, at SieveParams' own delta = 0 and eta = 10^-10."""
        return SieveParams(k=self.k, rho=self.rho, theta=self.theta)

    def test_function(self) -> TestFunction:
        return TestFunction.from_expression(self.k, self.expression)


TARGETS: dict[str, VerificationTarget] = {
    "thm1.2": VerificationTarget(
        name="thm1.2",
        expression=(
            "1 - (143577/50000)*P1 + (12337/5000)*P1**2 + (86987/50000)*P2"
            " - (619873/1000000)*P1**3 - (156481/100000)*P1*P2 - (230073/5000000)*P3"
        ),
        k=6,
        rho=2,
        theta=Fraction(1, 2),
        variant="Sprime",
        reference={
            "I": "5.30806e-6",
            "J": "1.88915e-6",
            "L": "9.20744e-6",
            "M": "2.22265e-6",
            "coefficient": "8.02e-8",
        },
    ),
    "thm1.3": VerificationTarget(
        name="thm1.3",
        expression="(1-u1)*(1-u2)*(1-u3)",
        k=3,
        rho=2,
        theta=Fraction(1),
        variant="Sprime",
        reference={
            "I": "0.0287919",
            "J": "0.0154828",
            "L": "0.1606331",
            "M": "0.0779163",
            "coefficient": "0.00204",
        },
    ),
    "thm1.4": VerificationTarget(
        name="thm1.4",
        expression=(
            "1 + (917/500)*P1 - (281/50)*P1**2 - (41/25)*P2"
            " + (287/100)*P1**3 + (191/100)*P1*P2 - (81/250)*P3"
        ),
        k=5,
        rho=2,
        theta=Fraction(1),
        variant="S",   # quoted with the admissible shifts (0, 2, 6, 8, 12)
        reference={
            "I": "1735763/1732500000",
            "J": "722755717/1871100000000",
            "L": "0.00392368",
            "M": "0.00190092",
            "coefficient": "2.13079e-6",
        },
    ),
}


def get_target(name: str) -> VerificationTarget:
    """Look up a target; bare '1.2' style names are accepted too."""
    key = name if name in TARGETS else f"thm{name}"
    if key not in TARGETS:
        raise ValueError(f"unknown verification target {name!r}; choose from {sorted(TARGETS)}")
    return TARGETS[key]
