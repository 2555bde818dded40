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

argparse is the only parser, and every default sits on its argument.  A flat
key = value file given by --config becomes --key=value tokens right after the
subcommand, so each key must be a flag of that subcommand and the flags on
the command line win.  Each subcommand checks its own flags and returns its
exit code with its result as a JSON payload (a record's by one field walk,
_plain), CSV rows and text; `main` only parses, dispatches and writes the one
--format asks for.  Outputs are deterministic byte-for-byte for a fixed
configuration and seed: no timestamps, sorted JSON keys, fixed float repr.
Exit codes: 0 success (and positive verdict for verify), 1 negative verdict,
2 usage, parse or budget errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields, replace
from fractions import Fraction

from .algebra import _SIGN_DIGITS, LogLinear, TestFunction, _evaluate, _text
from .catalog import TARGETS, get_target
from .functionals import (
    BudgetExceeded,
    SieveParams,
    leading_coefficient,
    lemma41_constant,
    theorem11_plan,
)
from .numth import bv_table, gap_scan, tuple_hit_count
from .simplex import check_mc_samples, mc_simplex_integral

# what a subcommand returns: exit code, JSON payload, CSV rows and text
Result = tuple[int, dict, list[tuple], str]

# ---------------------------------------------------------------------------
# Inputs
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


def _config_tokens(path: str) -> list[str]:
    """The file's `key = value` lines as `--key=value` tokens; `#` starts a comment."""
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            tokens.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return tokens


def _params(args: argparse.Namespace, base: SieveParams, variant: str) -> tuple[SieveParams, str]:
    """base and variant, with each of --rho, --theta, --delta, --eta and --variant that was given."""
    given = {name: getattr(args, name) for name in ("rho", "theta", "delta", "eta")
             if getattr(args, name, None) is not None}
    return replace(base, **given), args.variant or variant


def _plain(record) -> dict:
    """A dataclass record's fields for json.dumps: Fractions and dict keys become strings.

    sort_keys=True would sort int keys as numbers.  Only Fractions and dicts
    are rebuilt: unlike asdict, the walk deep-copies no field.
    """
    def plain(value):
        if isinstance(value, Fraction):
            return str(value)
        if isinstance(value, dict):
            return {str(key): plain(v) for key, v in value.items()}
        return value
    return {f.name: plain(getattr(record, f.name)) for f in fields(record)}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> Result:
    if not 15 <= args.digits <= _SIGN_DIGITS:
        raise ValueError(f"--digits must be between 15 and {_SIGN_DIGITS}")
    if args.seed < 0 or args.mc_samples < 0:
        raise ValueError("--seed and --mc-samples must be non-negative")
    if not args.theorem:
        raise ValueError("verify needs --theorem")
    target = get_target(args.theorem)
    F = target.test_function()
    params, variant = _params(args, target.params(), target.variant)
    overridden = any(getattr(args, name) is not None for name in ("rho", "eta", "variant"))
    if args.mc_samples:
        check_mc_samples(args.mc_samples)   # exit 2 before the exact work, not after it
    lc = leading_coefficient(F, params, variant)
    log_const = lemma41_constant(params.eta)

    def ref(name: str) -> str:
        return "-" if overridden else target.reference[name]

    decimals = _evaluate([LogLinear(lc.I_value), LogLinear(lc.J_values[0]), lc.L_values[0],
                          lc.M_values[0], log_const, lc.value], args.digits)
    I, J, L, M, log_term, coefficient = map(_text, decimals)
    rows = [
        ("I", I, ref("I")),
        ("J", J, ref("J")),
        ("L", L, ref("L")),
        ("M", M, ref("M")),
        ("log_term", log_term, "-"),
        ("coefficient", coefficient, ref("coefficient")),
    ]
    positive = decimals[-1] > 0   # the certified coefficient printed above; 0 when exactly zero
    verdict = "positive" if positive else "not positive"

    mc_rows = []
    if args.mc_samples:
        est_i = mc_simplex_integral(F, "I", args.mc_samples, args.seed)
        est_j = mc_simplex_integral(F, "J", args.mc_samples, args.seed + 1, m=1)
        mc_rows = [
            ("mc_I", repr(est_i.value), repr(est_i.stderr)),
            ("mc_J", repr(est_j.value), repr(est_j.stderr)),
        ]

    payload = {
        "target": target.name,
        "k": target.k,
        "rho": params.rho,
        "theta": str(params.theta),
        "eta": str(params.eta),
        "variant": variant,
        "values": {name: {"computed": comp, "reference": ref} for name, comp, ref in rows},
        "I_exact": str(lc.I_value),
        "J_exact": str(lc.J_values[0]),
        "coefficient_closed_form": lc.value.to_text(),
        "verdict": verdict,
    }
    if mc_rows:
        payload["monte_carlo"] = {name: {"value": v, "stderr": s} for name, v, s in mc_rows}
    csv_rows = [("quantity", "computed", "reference"), *rows, *mc_rows, ("verdict", verdict, "-")]
    width = max(len(r[0]) for r in rows)
    lines = [f"target {target.name}  (k={target.k}, rho={params.rho}, "
             f"theta={params.theta}, eta={params.eta}, variant={variant})"]
    for name, comp, ref in rows:
        lines.append(f"  {name:<{width}}  computed {comp:<26} reference {ref}")
    for name, v, s in mc_rows:
        lines.append(f"  {name:<{width}}  estimate {v:<26} stderr {s}")
    lines.append(f"leading coefficient is {verdict}")
    return 0 if positive else 1, payload, csv_rows, "\n".join(lines)


def _resolve_functional_inputs(args: argparse.Namespace) -> tuple[TestFunction, SieveParams, str]:
    if not args.F:
        raise ValueError("functional needs --F (builtin name or expression)")
    if args.F in TARGETS or f"thm{args.F}" in TARGETS:
        target = get_target(args.F)
        if args.k not in (None, target.k):
            raise ValueError(f"builtin {target.name} has k={target.k}, got --k {args.k}")
        expression, base, variant = target.expression, target.params(), target.variant
    else:
        if args.k is None:
            raise ValueError("functional with a custom expression needs --k")
        # what a custom expression takes where a bundled target supplies its own values
        expression, base, variant = args.F, SieveParams(k=args.k, rho=1, theta=Fraction(1, 2)), "Sprime"
    params, variant = _params(args, base, variant)
    return TestFunction.from_expression(params.k, expression), params, variant


def cmd_functional(args: argparse.Namespace) -> Result:
    F, params, variant = _resolve_functional_inputs(args)
    lc = leading_coefficient(F, params, variant)
    k = params.k
    ms = range(1, k + 1)
    exact = [{"exact": str(v), "float": float(v)} for v in (lc.I_value, *lc.J_values)]
    # every closed form's float, from its 25-digit decimal, over one ln table
    logs = [*lc.L_values, *lc.M_values, lc.value, *lc.breakdown.values()]
    closed = [{"closed_form": v.to_text(), "float": float(dec)} for v, dec in zip(logs, _evaluate(logs, 25))]
    # (quantity, m, entry), read by the payload, the CSV rows and the text alike
    table = [("I", "-", exact[0]),
             *(("J", m, entry) for m, entry in zip(ms, exact[1:])),
             *(("L", m, entry) for m, entry in zip(ms, closed)),
             *(("M", m, entry) for m, entry in zip(ms, closed[k:])),
             ("coefficient", "-", closed[2 * k])]

    def per_m(quantity: str) -> dict:
        return {f"m={m}": entry for name, m, entry in table if name == quantity}

    payload = {
        "F": args.F,
        "k": k,
        "rho": params.rho,
        "theta": str(params.theta),
        "delta": str(params.delta),
        "eta": str(params.eta),
        "variant": variant,
        "I": exact[0],
        "J": per_m("J"),
        "L": per_m("L"),
        "M": per_m("M"),
        "leading_coefficient": {**closed[2 * k], "addends": dict(zip(lc.breakdown, closed[2 * k + 1:]))},
    }
    rows: list[tuple] = [("quantity", "m", "exact_or_closed", "float")]
    lines = [f"k={k} rho={params.rho} theta={params.theta} "
             f"delta={params.delta} eta={params.eta} variant={variant}"]
    for name, m, entry in table:
        label = {"I": "I", "coefficient": "leading coefficient"}.get(name, f"{name}(m={m})")
        if "exact" in entry:
            rows.append((name, m, entry["exact"], entry["float"]))
            lines.append(f"{label} = {entry['exact']} = {entry['float']!r}")
        else:
            rows.append((name, m, f"\"{entry['closed_form']}\"", entry["float"]))
            lines.append(f"{label} = {entry['float']!r}  [{entry['closed_form']}]")
    return 0, payload, rows, "\n".join(lines)


def cmd_scan(args: argparse.Namespace) -> Result:
    if args.limit is None:
        raise ValueError("scan needs --limit")
    if args.mode == "gaps":
        report = gap_scan(args.limit, args.rho, args.universe)
        csv_rows = [("universe", "limit", "rho", "min_gap", "argmin"),
                    (report.universe, report.limit, report.rho, report.min_gap,
                     " ".join(map(str, report.argmin))),
                    ("gap", "count", "", "", "")]
        csv_rows += [(g, c, "", "", "") for g, c in sorted(report.histogram.items())]
        text = (f"universe {report.universe}, limit {report.limit}, rho {report.rho}\n"
                f"min gap {report.min_gap} at {report.argmin}\n"
                f"histogram { {g: report.histogram[g] for g in sorted(report.histogram)} }")
    elif args.mode == "hits":
        if args.H is None:
            raise ValueError("scan --mode hits needs --H")
        threshold = args.threshold if args.threshold is not None else len(set(args.H))
        report = tuple_hit_count(args.H, args.limit, args.universe, threshold)
        csv_rows = [("shifts", "universe", "limit", "threshold", "count", "witnesses"),
                    (" ".join(map(str, report.shifts)), report.universe, report.limit,
                     report.threshold, report.count, " ".join(map(str, report.witnesses)))]
        text = (f"shifts {report.shifts}, universe {report.universe}, limit {report.limit}, "
                f"threshold {report.threshold}\ncount {report.count}\n"
                f"witnesses {list(report.witnesses)}")
    else:
        if args.universe not in ("primes", "beta"):
            raise ValueError("scan --mode bv needs --universe primes or beta")
        eta = args.eta if args.universe == "beta" else None
        report = bv_table(args.limit, eta, args.theta, args.universe)
        csv_rows = [("q", "max_discrepancy")]
        csv_rows += [(q, str(v)) for q, v in sorted(report.rows.items())]
        csv_rows.append(("weighted_sum", str(report.weighted_sum)))
        text = (f"universe {report.universe}, N {report.N}, theta {report.theta}\n"
                + "\n".join(f"q={q}: {v}" for q, v in sorted(report.rows.items()))
                + f"\nweighted sum {report.weighted_sum}")
    return 0, _plain(report), csv_rows, text


def cmd_theorem11(args: argparse.Namespace) -> Result:
    if args.rho is None:
        raise ValueError("theorem11 needs --rho")
    payload = _plain(theorem11_plan(args.rho, args.theta, args.epsilon))
    keys = sorted(payload)
    return (0, payload, [("field", "value")] + [(key, payload[key]) for key in keys],
            "\n".join(f"{key} = {payload[key]}" for key in keys))


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built once a process (parse_args leaves it as it is).

    Flags and config keys must be spelled out: allow_abbrev=False rejects a
    prefix such as --theo for --theorem.
    """
    parser = argparse.ArgumentParser(
        prog="e2sieve",
        description="Exact sieve functionals and almost-prime diagnostics.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    def add_common(p: argparse.ArgumentParser, fmt: str) -> None:
        p.add_argument("--config", help="flat key = value file of this subcommand's flags; "
                                        "flags override it")
        p.add_argument("--format", choices=["text", "json", "csv"], default=fmt,
                       help=f"output format (default {fmt})")

    p_verify = add_parser("verify", help="recompute a bundled target and compare digits")
    p_verify.add_argument("--theorem", help="target name: thm1.2, thm1.3 or thm1.4")
    p_verify.add_argument("--rho", type=int, help="override the target count")
    p_verify.add_argument("--eta", type=_parse_fraction, help="override the small-factor cutoff")
    p_verify.add_argument("--variant", choices=["S", "Sprime"], help="override the weighted sum")
    p_verify.add_argument("--mc-samples", dest="mc_samples", type=int, default=0,
                          help="also print Monte Carlo estimates of I and J")
    p_verify.add_argument("--digits", type=int, default=15,
                          help=f"significant digits for printed values (15 to {_SIGN_DIGITS})")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for the Monte Carlo estimates")
    add_common(p_verify, "text")

    # --rho, --theta, --delta, --eta and --variant default to the builtin target's values,
    # or for an expression to those _resolve_functional_inputs gives it
    p_fun = add_parser("functional", help="evaluate the functionals for a test function")
    p_fun.add_argument("--F", help="builtin target name or a power-sum expression")
    p_fun.add_argument("--k", type=int, help="number of variables (>= 2)")
    p_fun.add_argument("--rho", type=int, help="target hit count (>= 1)")
    p_fun.add_argument("--theta", type=_parse_fraction, help="distribution exponent, rational")
    p_fun.add_argument("--delta", type=_parse_fraction, help="prelimit offset, rational >= 0")
    p_fun.add_argument("--eta", type=_parse_fraction, help="small-factor cutoff, rational in (0, 1/4)")
    p_fun.add_argument("--variant", choices=["S", "Sprime"], help="which weighted sum")
    add_common(p_fun, "json")

    p_scan = add_parser("scan", help="sequence diagnostics")
    p_scan.add_argument("--mode", choices=["gaps", "hits", "bv"], default="gaps",
                        help="what to scan (default gaps)")
    p_scan.add_argument("--limit", type=int,
                        help="scan bound (N for --mode bv); its prime sieve or factor table (limit "
                             "+ max H + 1 entries, about 2N for bv) may not exceed 4,000,000 entries")
    p_scan.add_argument("--rho", type=int, default=1, help="gap step for --mode gaps")
    p_scan.add_argument("--universe", default="E2", help="E2, P2 or primes (bv: primes or beta)")
    p_scan.add_argument("--H", type=_parse_shifts, help="comma-separated shifts for --mode hits")
    p_scan.add_argument("--threshold", type=int, help="minimum hits for --mode hits")
    p_scan.add_argument("--theta", type=_parse_fraction, default="1/2",
                        help="modulus exponent for --mode bv")
    p_scan.add_argument("--eta", type=_parse_fraction, default="1/10000000000",
                        help="beta cutoff for --mode bv")
    add_common(p_scan, "json")

    p_thm = add_parser("theorem11", help="large-k plan record")
    p_thm.add_argument("--rho", type=int, help="target count (>= 3)")
    p_thm.add_argument("--theta", type=_parse_fraction, default="1/2", help="distribution exponent")
    p_thm.add_argument("--epsilon", type=_parse_fraction, default="1/10",
                       help="slack parameter in (0, 1]")
    add_common(p_thm, "json")

    return parser


_COMMANDS = {"verify": cmd_verify, "functional": cmd_functional, "scan": cmd_scan,
            "theorem11": cmd_theorem11}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            at = argv.index(args.command) + 1
            args, unknown = parser.parse_known_args(argv[:at] + _config_tokens(args.config) + argv[at:])
            if unknown:   # argv itself parsed above, so these came from the file
                raise ValueError(f"unknown config key {unknown[0][2:].partition('=')[0]!r}")
        code, payload, rows, text = _COMMANDS[args.command](args)
        if args.format == "json":
            text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        elif args.format == "csv":
            text = "\n".join(",".join(map(str, row)) for row in rows)
    except (BudgetExceeded, ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
