"""Command line interface.

Four subcommands:

* verify     -- recompute a bundled verification target and compare against
                its reference digits; exit 0 iff the leading coefficient is
                positive.
* functional -- evaluate I, J, L, M and the leading coefficient for a test
                function given as a builtin name or a power-sum expression.
* scan       -- desk-scale sequence diagnostics: minimal rho-step gaps,
                shifted-tuple hit counts, or the distribution table over
                progressions (selected by --mode).
* theorem11  -- the large-k plan record for a requested rho.

Outputs are deterministic byte-for-byte for a fixed configuration and seed:
no timestamps, sorted JSON keys, fixed float repr.  A flat key=value file
can be supplied via --config; explicit flags override it.  Exit codes:
0 success (and positive verdict for verify), 1 negative verdict, 2 usage,
parse or budget errors.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LogLinear, TestFunction, loglinear_eval, parse_poly
from .catalog import TARGETS, VerificationTarget, get_target
from .functionals import (
    BudgetExceeded,
    SieveParams,
    leading_coefficient,
    lemma41_constant,
    theorem11_plan,
)
from .numth import bv_table, gap_scan, tuple_hit_count
from .simplex import check_mc_samples, mc_simplex_integral

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r} ({exc})") from None


def _parse_shifts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.replace(",", " ").split())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a shift list: {text!r} ({exc})") from None


_CONVERTERS = {
    "theorem": str,
    "k": int,
    "rho": int,
    "theta": _parse_fraction,
    "delta": _parse_fraction,
    "eta": _parse_fraction,
    "variant": str,
    "F": str,
    "digits": int,
    "limit": int,
    "universe": str,
    "threshold": int,
    "format": str,
    "seed": int,
    "mode": str,
    "H": _parse_shifts,
    "mc_samples": int,
    "epsilon": _parse_fraction,
}


@dataclass
class RunConfig:
    """Validated, fully defaulted inputs of one CLI run."""

    command: str
    theorem: str | None = None
    k: int | None = None
    rho: int = 1
    theta: Fraction = Fraction(1, 2)
    delta: Fraction = Fraction(0)
    eta: Fraction = Fraction(1, 10 ** 10)
    variant: str = "Sprime"
    F: str | None = None
    digits: int = 15
    limit: int | None = None
    universe: str = "E2"
    threshold: int | None = None
    format: str = "text"
    seed: int = 0
    mode: str = "gaps"
    H: tuple[int, ...] | None = None
    mc_samples: int = 0
    epsilon: Fraction = Fraction(1, 10)
    explicit: frozenset = frozenset()

    def validate(self) -> None:
        if self.digits < 15:
            raise ValueError("--digits must be >= 15")
        if self.format not in ("text", "json", "csv"):
            raise ValueError("--format must be text, json or csv")
        if self.variant not in ("S", "Sprime"):
            raise ValueError("--variant must be S or Sprime")
        if self.seed < 0 or self.mc_samples < 0:
            raise ValueError("--seed and --mc-samples must be non-negative")


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _merge_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    explicit: set[str] = set()
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)
    for key, raw in file_values.items():
        name = key.replace("-", "_")
        if name not in _CONVERTERS:
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, name, _CONVERTERS[name](raw))
        explicit.add(name)
    for name in _CONVERTERS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            setattr(cfg, name, flag_value)
            explicit.add(name)
    if "format" not in explicit:
        cfg.format = _FORMAT_DEFAULTS[args.command]
    cfg.explicit = frozenset(explicit)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------


def _fraction_str(fr: Fraction) -> str:
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def _fraction_decimal(fr: Fraction, digits: int) -> str:
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = decimal.ROUND_HALF_EVEN
        d = decimal.Decimal(fr.numerator) / decimal.Decimal(fr.denominator)
    return "0" if d == 0 else str(d)


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj) -> None:
    _emit(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False))


def _emit_csv(rows: list[tuple]) -> None:
    _emit("\n".join(",".join(str(col) for col in row) for row in rows))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _target_params(cfg: RunConfig, target: VerificationTarget) -> tuple[SieveParams, str]:
    """The target's parameters and variant, each replaced by its flag where one was given."""
    def pick(name: str):
        return getattr(cfg, name) if name in cfg.explicit else getattr(target, name)

    params = SieveParams(k=target.k, rho=pick("rho"), theta=pick("theta"),
                         delta=cfg.delta, eta=pick("eta"))
    return params, pick("variant")


def cmd_verify(cfg: RunConfig) -> int:
    if not cfg.theorem:
        raise ValueError("verify needs --theorem")
    target = get_target(cfg.theorem)
    F = target.test_function()
    params, variant = _target_params(cfg, target)
    overridden = bool({"rho", "theta", "delta", "eta", "variant"} & cfg.explicit)
    if cfg.mc_samples:
        check_mc_samples(cfg.mc_samples)   # exit 2 before the exact work, not after it
    lc = leading_coefficient(F, params, variant)
    log_const = lemma41_constant(params.eta)

    def ref(name: str) -> str:
        return "-" if overridden else target.reference[name]

    rows = [
        ("I", _fraction_decimal(lc.I_value, cfg.digits), ref("I")),
        ("J", _fraction_decimal(lc.J_values[0], cfg.digits), ref("J")),
        ("L", loglinear_eval(lc.L_values[0], cfg.digits), ref("L")),
        ("M", loglinear_eval(lc.M_values[0], cfg.digits), ref("M")),
        ("log_term", loglinear_eval(log_const, cfg.digits), "-"),
        ("coefficient", loglinear_eval(lc.value, cfg.digits), ref("coefficient")),
    ]
    sign = lc.value.sign()
    verdict = "positive" if sign > 0 else "not positive"

    mc_rows = []
    if cfg.mc_samples:
        est_i = mc_simplex_integral(F, "I", cfg.mc_samples, cfg.seed)
        est_j = mc_simplex_integral(F, "J", cfg.mc_samples, cfg.seed + 1, m=1)
        mc_rows = [
            ("mc_I", repr(est_i.value), repr(est_i.stderr)),
            ("mc_J", repr(est_j.value), repr(est_j.stderr)),
        ]

    if cfg.format == "json":
        payload = {
            "target": target.name,
            "k": target.k,
            "rho": params.rho,
            "theta": _fraction_str(params.theta),
            "eta": _fraction_str(params.eta),
            "variant": variant,
            "values": {name: {"computed": comp, "reference": ref} for name, comp, ref in rows},
            "I_exact": _fraction_str(lc.I_value),
            "J_exact": _fraction_str(lc.J_values[0]),
            "coefficient_closed_form": lc.value.to_text(),
            "verdict": verdict,
        }
        if mc_rows:
            payload["monte_carlo"] = {name: {"value": v, "stderr": s} for name, v, s in mc_rows}
        _emit_json(payload)
    elif cfg.format == "csv":
        out = [("quantity", "computed", "reference")] + rows + mc_rows
        out.append(("verdict", verdict, "-"))
        _emit_csv(out)
    else:
        width = max(len(r[0]) for r in rows)
        lines = [f"target {target.name}  (k={target.k}, rho={params.rho}, "
                 f"theta={_fraction_str(params.theta)}, eta={_fraction_str(params.eta)}, "
                 f"variant={variant})"]
        for name, comp, ref in rows:
            lines.append(f"  {name:<{width}}  computed {comp:<26} reference {ref}")
        for name, v, s in mc_rows:
            lines.append(f"  {name:<{width}}  estimate {v:<26} stderr {s}")
        lines.append(f"leading coefficient is {verdict}")
        _emit("\n".join(lines))
    return 0 if sign > 0 else 1


def _resolve_functional_inputs(cfg: RunConfig) -> tuple[TestFunction, SieveParams, str]:
    if not cfg.F:
        raise ValueError("functional needs --F (builtin name or expression)")
    if cfg.F in TARGETS or f"thm{cfg.F}" in TARGETS:
        target = get_target(cfg.F)
        k = cfg.k if cfg.k is not None else target.k
        if k != target.k:
            raise ValueError(f"builtin {target.name} has k={target.k}, got --k {k}")
        expression = target.expression
        params, variant = _target_params(cfg, target)
    else:
        if cfg.k is None:
            raise ValueError("functional with a custom expression needs --k")
        expression = cfg.F
        params = SieveParams(k=cfg.k, rho=cfg.rho, theta=cfg.theta,
                             delta=cfg.delta, eta=cfg.eta)
        variant = cfg.variant
    F = TestFunction(k=params.k, poly=parse_poly(expression, params.k))
    return F, params, variant


def cmd_functional(cfg: RunConfig) -> int:
    F, params, variant = _resolve_functional_inputs(cfg)
    lc = leading_coefficient(F, params, variant)

    def frac_entry(fr: Fraction) -> dict:
        return {"exact": _fraction_str(fr), "float": float(fr)}

    def log_entry(v: LogLinear) -> dict:
        return {"closed_form": v.to_text(), "float": v.to_float()}

    payload = {
        "F": cfg.F,
        "k": params.k,
        "rho": params.rho,
        "theta": _fraction_str(params.theta),
        "delta": _fraction_str(params.delta),
        "eta": _fraction_str(params.eta),
        "variant": variant,
        "I": frac_entry(lc.I_value),
        "J": {f"m={m}": frac_entry(v) for m, v in enumerate(lc.J_values, 1)},
        "L": {f"m={m}": log_entry(v) for m, v in enumerate(lc.L_values, 1)},
        "M": {f"m={m}": log_entry(v) for m, v in enumerate(lc.M_values, 1)},
        "leading_coefficient": {
            "closed_form": lc.value.to_text(),
            "float": lc.value.to_float(),
            "addends": {name: log_entry(v) for name, v in lc.breakdown.items()},
        },
    }
    if cfg.format == "csv":
        rows: list[tuple] = [("quantity", "m", "exact_or_closed", "float")]
        rows.append(("I", "-", payload["I"]["exact"], payload["I"]["float"]))
        for m in range(1, params.k + 1):
            rows.append(("J", m, payload["J"][f"m={m}"]["exact"], payload["J"][f"m={m}"]["float"]))
        for name in ("L", "M"):
            for m in range(1, params.k + 1):
                entry = payload[name][f"m={m}"]
                rows.append((name, m, f"\"{entry['closed_form']}\"", entry["float"]))
        rows.append(("coefficient", "-", f"\"{payload['leading_coefficient']['closed_form']}\"",
                     payload["leading_coefficient"]["float"]))
        _emit_csv(rows)
    elif cfg.format == "text":
        lines = [f"k={params.k} rho={params.rho} theta={_fraction_str(params.theta)} "
                 f"delta={_fraction_str(params.delta)} eta={_fraction_str(params.eta)} variant={variant}",
                 f"I = {payload['I']['exact']} = {payload['I']['float']!r}"]
        for m in range(1, params.k + 1):
            e = payload["J"][f"m={m}"]
            lines.append(f"J(m={m}) = {e['exact']} = {e['float']!r}")
        for name in ("L", "M"):
            for m in range(1, params.k + 1):
                e = payload[name][f"m={m}"]
                lines.append(f"{name}(m={m}) = {e['float']!r}  [{e['closed_form']}]")
        lc_entry = payload["leading_coefficient"]
        lines.append(f"leading coefficient = {lc_entry['float']!r}  [{lc_entry['closed_form']}]")
        _emit("\n".join(lines))
    else:
        _emit_json(payload)
    return 0


def cmd_scan(cfg: RunConfig) -> int:
    if cfg.limit is None:
        raise ValueError("scan needs --limit")
    if cfg.mode == "gaps":
        report = gap_scan(cfg.limit, cfg.rho, cfg.universe)
        payload = report.to_dict()
        csv_rows = [("universe", "limit", "rho", "min_gap", "argmin"),
                    (report.universe, report.limit, report.rho, report.min_gap,
                     " ".join(map(str, report.argmin))),
                    ("gap", "count", "", "", "")]
        csv_rows += [(g, c, "", "", "") for g, c in sorted(report.histogram.items())]
        text = (f"universe {report.universe}, limit {report.limit}, rho {report.rho}\n"
                f"min gap {report.min_gap} at {report.argmin}\n"
                f"histogram { {g: report.histogram[g] for g in sorted(report.histogram)} }")
    elif cfg.mode == "hits":
        if cfg.H is None:
            raise ValueError("scan --mode hits needs --H")
        threshold = cfg.threshold if cfg.threshold is not None else len(set(cfg.H))
        report = tuple_hit_count(cfg.H, cfg.limit, cfg.universe, threshold)
        payload = report.to_dict()
        csv_rows = [("shifts", "universe", "limit", "threshold", "count", "witnesses"),
                    (" ".join(map(str, report.shifts)), report.universe, report.limit,
                     report.threshold, report.count, " ".join(map(str, report.witnesses)))]
        text = (f"shifts {report.shifts}, universe {report.universe}, limit {report.limit}, "
                f"threshold {report.threshold}\ncount {report.count}\n"
                f"witnesses {list(report.witnesses)}")
    elif cfg.mode == "bv":
        universe = cfg.universe
        if universe not in ("primes", "beta"):
            raise ValueError("scan --mode bv needs --universe primes or beta")
        eta = cfg.eta if universe == "beta" else None
        table = bv_table(cfg.limit, eta, cfg.theta, universe)
        payload = table.to_dict()
        csv_rows = [("q", "max_discrepancy")]
        csv_rows += [(q, _fraction_str(v)) for q, v in sorted(table.rows.items())]
        csv_rows.append(("weighted_sum", _fraction_str(table.weighted_sum)))
        text = (f"universe {table.universe}, N {table.N}, theta {_fraction_str(table.theta)}\n"
                + "\n".join(f"q={q}: {_fraction_str(v)}" for q, v in sorted(table.rows.items()))
                + f"\nweighted sum {_fraction_str(table.weighted_sum)}")
    else:
        raise ValueError("--mode must be gaps, hits or bv")

    if cfg.format == "csv":
        _emit_csv(csv_rows)
    elif cfg.format == "text":
        _emit(text)
    else:
        _emit_json(payload)
    return 0


def cmd_theorem11(cfg: RunConfig) -> int:
    if "rho" not in cfg.explicit:
        raise ValueError("theorem11 needs --rho")
    plan = theorem11_plan(cfg.rho, cfg.theta, cfg.epsilon)
    payload = {
        "rho": plan.rho,
        "theta": _fraction_str(plan.theta),
        "epsilon": _fraction_str(plan.epsilon),
        "k": plan.k,
        "log2_k": plan.log2_k,
        "A": plan.A,
        "T": plan.T,
        "eta": plan.eta,
        "eta_ratio": None if plan.eta_ratio is None else _fraction_str(plan.eta_ratio),
        "rhs83": plan.rhs83,
        "vanishing_ok": plan.vanishing_ok,
        "rhs83_exceeds_rho": plan.rhs83_exceeds_rho,
    }
    if cfg.format == "csv":
        _emit_csv([("field", "value")] + [(key, payload[key]) for key in sorted(payload)])
    elif cfg.format == "text":
        _emit("\n".join(f"{key} = {payload[key]}" for key in sorted(payload)))
    else:
        _emit_json(payload)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e2sieve",
        description="Exact sieve functionals and almost-prime diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value file; flags override it")
        p.add_argument("--digits", type=int, help="significant digits for printed values (>= 15)")
        p.add_argument("--format", choices=["text", "json", "csv"], help="output format")
        p.add_argument("--seed", type=int, help="seed for sampled diagnostics")

    p_verify = sub.add_parser("verify", help="recompute a bundled target and compare digits")
    p_verify.add_argument("--theorem", help="target name: thm1.2, thm1.3 or thm1.4")
    p_verify.add_argument("--rho", type=int, help="override the target count")
    p_verify.add_argument("--eta", type=_parse_fraction, help="override the small-factor cutoff")
    p_verify.add_argument("--variant", choices=["S", "Sprime"], help="override the weighted sum")
    p_verify.add_argument("--mc-samples", dest="mc_samples", type=int,
                          help="also print Monte Carlo estimates of I and J")
    add_common(p_verify)

    p_fun = sub.add_parser("functional", help="evaluate the functionals for a test function")
    p_fun.add_argument("--F", help="builtin target name or a power-sum expression")
    p_fun.add_argument("--k", type=int, help="number of variables (>= 2)")
    p_fun.add_argument("--rho", type=int, help="target hit count (>= 1)")
    p_fun.add_argument("--theta", type=_parse_fraction, help="distribution exponent, rational")
    p_fun.add_argument("--delta", type=_parse_fraction, help="prelimit offset, rational >= 0")
    p_fun.add_argument("--eta", type=_parse_fraction, help="small-factor cutoff, rational in (0, 1/4)")
    p_fun.add_argument("--variant", choices=["S", "Sprime"], help="which weighted sum")
    add_common(p_fun)

    p_scan = sub.add_parser("scan", help="sequence diagnostics")
    p_scan.add_argument("--mode", choices=["gaps", "hits", "bv"], help="what to scan (default gaps)")
    p_scan.add_argument("--limit", type=int,
                        help="scan bound (N for --mode bv); its prime sieve or factor table (limit "
                             "+ max H + 1 entries, about 2N for bv) may not exceed 4,000,000 entries")
    p_scan.add_argument("--rho", type=int, help="gap step for --mode gaps")
    p_scan.add_argument("--universe", help="E2, P2 or primes (bv: primes or beta)")
    p_scan.add_argument("--H", type=_parse_shifts, help="comma-separated shifts for --mode hits")
    p_scan.add_argument("--threshold", type=int, help="minimum hits for --mode hits")
    p_scan.add_argument("--theta", type=_parse_fraction, help="modulus exponent for --mode bv")
    p_scan.add_argument("--eta", type=_parse_fraction, help="beta cutoff for --mode bv")
    add_common(p_scan)

    p_thm = sub.add_parser("theorem11", help="large-k plan record")
    p_thm.add_argument("--rho", type=int, help="target count (>= 3)")
    p_thm.add_argument("--theta", type=_parse_fraction, help="distribution exponent")
    p_thm.add_argument("--epsilon", type=_parse_fraction, help="slack parameter in (0, 1]")
    add_common(p_thm)

    return parser


_FORMAT_DEFAULTS = {"verify": "text", "functional": "json", "scan": "json", "theorem11": "json"}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        dispatch = {
            "verify": cmd_verify,
            "functional": cmd_functional,
            "scan": cmd_scan,
            "theorem11": cmd_theorem11,
        }
        return dispatch[cfg.command](cfg)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
