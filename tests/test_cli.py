"""Command line interface: exit codes, formats, config merging, determinism."""

import json
import tracemalloc

import pytest

from e2sieve import TARGETS, cli
from e2sieve.algebra import BudgetExceeded
from e2sieve.cli import build_parser, main
from e2sieve.simplex import mc_simplex_integral


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_text_positive(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--theorem", "thm1.3"])
    assert code == 0
    assert "leading coefficient is positive" in out
    assert "0.0287919" in out          # reference digits echoed


def test_verify_json_payload(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--theorem", "1.3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == "thm1.3"
    assert payload["verdict"] == "positive"
    assert payload["values"]["I"]["computed"].startswith("0.028791887")
    assert payload["I_exact"] == "653/22680"


def test_verify_csv_has_header(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--theorem", "thm1.3", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "quantity,computed,reference"


def test_verify_override_can_flip_the_verdict(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--theorem", "thm1.3", "--rho", "50"])
    assert code == 1
    assert "not positive" in out


def test_verify_unknown_target_exits_2(capsys):
    code, _, err = run_cli(capsys, ["verify", "--theorem", "thm9.9"])
    assert code == 2 and "error" in err


def test_verify_mc_rows(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--theorem", "thm1.3",
                                    "--mc-samples", "20000", "--seed", "3"])
    assert code == 0
    assert "mc_I" in out and "mc_J" in out


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_mc_samples_over_the_budget_exit_2(capsys, fmt):
    # one sample past 10^7 (80 MiB of squares) is refused before any is drawn
    code, out, err = run_cli(capsys, ["verify", "--theorem", "thm1.3", "--format", fmt,
                                      "--mc-samples", str(10 ** 7 + 1)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Monte Carlo samples" in err


def test_verify_mc_budget_exits_2_before_the_exact_coefficient(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "leading_coefficient", lambda *args: calls.append(args))
    code, out, err = run_cli(capsys, ["verify", "--theorem", "thm1.2",
                                      "--mc-samples", "100000001"])
    assert (code, out, calls) == (2, "", [])
    # one message, whichever of the two raises it
    with pytest.raises(BudgetExceeded) as exc:
        mc_simplex_integral(TARGETS["thm1.2"].test_function(), "I", 100_000_001, 0)
    assert err == f"error: {exc.value}\n"


# ---------------------------------------------------------------------------
# functional
# ---------------------------------------------------------------------------


def test_functional_custom_expression(capsys):
    code, out, _ = run_cli(capsys, [
        "functional", "--F", "(1-u1)*(1-u2)", "--k", "2",
        "--theta", "1/2", "--eta", "1/100",
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["I"]["exact"] == "19/180"
    assert payload["J"]["m=1"]["exact"] == "29/420"
    assert payload["J"]["m=2"] == payload["J"]["m=1"]
    assert payload["leading_coefficient"]["float"] > 0


def test_functional_builtin_name_inherits_parameters(capsys):
    code, out, _ = run_cli(capsys, ["functional", "--F", "thm1.3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 3 and payload["rho"] == 2 and payload["theta"] == "1"
    assert payload["variant"] == "Sprime"


def test_functional_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, ["functional", "--F", "u1 + (", "--k", "2"])
    assert code == 2 and "error" in err


@pytest.mark.parametrize("flag", [
    "--F=" + "+".join(["u1"] * 990),     # too deep for the tree walk
    "--F=" + "-" * 3000 + "u1",           # too deep for ast.parse itself
], ids=["summands", "unary-signs"])
def test_functional_nested_too_deeply_exits_2(capsys, flag):
    code, _, err = run_cli(capsys, ["functional", "--k", "2", flag])
    assert code == 2 and "nested too deeply" in err


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_functional_value_beyond_float_range_exits_2(capsys, fmt):
    # I = 10^384 / 2 is exact, but no float holds it
    code, out, err = run_cli(capsys, ["functional", "--F", "(10**64)**3", "--k", "2",
                                      "--format", fmt])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "too large for a float" in err


def test_functional_validates_before_computing(capsys):
    # k = 1 violates the parameter contract -> usage error, not a crash
    code, _, err = run_cli(capsys, ["functional", "--F", "1 - u1", "--k", "1"])
    assert code == 2 and "error" in err


@pytest.mark.parametrize("expression, budget", [
    ("P1**30", "terms"),     # up to 324,632 terms: refused by the parser
    ("P1**12", "pairs"),     # 6188 terms, but 197 x 6188 pairs per coordinate
])
def test_functional_over_the_work_budget_exits_2(capsys, expression, budget):
    code, _, err = run_cli(capsys, ["functional", "--F", expression, "--k", "6"])
    assert code == 2 and budget in err


def test_functional_text_and_csv(capsys):
    base = ["functional", "--F", "(1-u1)*(1-u2)", "--k", "2", "--theta", "1/2", "--eta", "1/100"]
    code, out, _ = run_cli(capsys, base + ["--format", "text"])
    assert code == 0 and "I = 19/180" in out
    code, out, _ = run_cli(capsys, base + ["--format", "csv"])
    assert code == 0 and out.splitlines()[0] == "quantity,m,exact_or_closed,float"


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def test_scan_gaps(capsys):
    code, out, _ = run_cli(capsys, ["scan", "--mode", "gaps", "--limit", "1000",
                                    "--universe", "E2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["min_gap"] == 1 and payload["argmin"] == [14, 15]


def test_scan_hits(capsys):
    code, out, _ = run_cli(capsys, ["scan", "--mode", "hits", "--limit", "500",
                                    "--universe", "P2", "--H", "0,2,6", "--threshold", "3"])
    assert code == 0
    payload = json.loads(out)
    assert 5 in payload["witnesses"]


def test_scan_hits_needs_H(capsys):
    code, _, err = run_cli(capsys, ["scan", "--mode", "hits", "--limit", "500"])
    assert code == 2 and "error" in err


def test_scan_bv(capsys):
    code, out, _ = run_cli(capsys, ["scan", "--mode", "bv", "--limit", "1000",
                                    "--theta", "1/3", "--universe", "primes"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"]["1"] == "0"


@pytest.mark.parametrize("argv", [
    ["scan", "--mode", "gaps", "--limit", "4000000"],                       # 4,000,001 entries
    ["scan", "--mode", "hits", "--limit", "3999988", "--universe", "P2",   # 3,999,988 + 12 + 1
     "--H", "0,2,6,12"],
])
def test_scan_over_the_table_budget_exits_2_before_allocating(capsys, argv):
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "budget" in capsys.readouterr().err
    assert peak < 2 ** 20, peak


def test_scan_needs_limit(capsys):
    code, _, err = run_cli(capsys, ["scan", "--mode", "gaps"])
    assert code == 2 and "error" in err


def test_scan_bad_universe_exits_2(capsys):
    code, _, err = run_cli(capsys, ["scan", "--mode", "gaps", "--limit", "1000",
                                    "--universe", "martians"])
    assert code == 2 and "error" in err


# ---------------------------------------------------------------------------
# theorem11
# ---------------------------------------------------------------------------


def test_theorem11(capsys):
    code, out, _ = run_cli(capsys, ["theorem11", "--rho", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 78 and payload["eta_ratio"] == "1/156"
    assert payload["rhs83_exceeds_rho"] is False


def test_theorem11_reports_log2_k_when_k_is_too_long_to_print(capsys):
    # k would have about 5,281 digits, beyond what str() prints by default
    code, out, _ = run_cli(capsys, ["theorem11", "--rho", "100000", "--theta", "1/2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] is None and payload["eta_ratio"] is None
    assert payload["log2_k"] == pytest.approx(17543.5, rel=1e-5)


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_theorem11_reports_null_T_when_it_overflows_a_float(capsys):
    code, out, _ = run_cli(capsys, ["theorem11", "--rho", "5000"])
    assert code == 0
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["T"] is None and payload["k"] is not None
    for fmt, line in (("text", "T = None"), ("csv", "T,None")):
        code, out, _ = run_cli(capsys, ["theorem11", "--rho", "5000", "--format", fmt])
        assert code == 0 and line in out.splitlines()


def test_theorem11_needs_rho(capsys):
    code, _, err = run_cli(capsys, ["theorem11"])
    assert code == 2 and "needs --rho" in err


def test_theorem11_rejects_small_rho(capsys):
    code, _, err = run_cli(capsys, ["theorem11", "--rho", "2"])
    assert code == 2 and "error" in err


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_bad_fraction_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["functional", "--F", "1", "--k", "2", "--theta", "half"])
    assert exc.value.code == 2


def test_digits_below_15_rejected(capsys):
    code, _, err = run_cli(capsys, ["verify", "--theorem", "thm1.3", "--digits", "10"])
    assert code == 2 and "digits" in err


def test_parser_lists_all_subcommands():
    text = build_parser().format_help()
    for name in ("verify", "functional", "scan", "theorem11"):
        assert name in text


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theorem = thm1.3\nformat = json\n# comment line\n")
    code, out, _ = run_cli(capsys, ["verify", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["target"] == "thm1.3"


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theorem = thm1.3\nformat = json\n")
    code, out, _ = run_cli(capsys, ["verify", "--config", str(cfg), "--format", "text"])
    assert code == 0
    assert "leading coefficient is positive" in out  # text, not json


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate = 1\n")
    code, _, err = run_cli(capsys, ["verify", "--config", str(cfg)])
    assert code == 2 and "frobnicate" in err


def test_missing_config_file_exits_2(capsys):
    code, _, err = run_cli(capsys, ["verify", "--config", "/nonexistent.cfg"])
    assert code == 2 and "error" in err


def test_malformed_config_line_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("this line has no equals sign\n")
    code, _, err = run_cli(capsys, ["verify", "--config", str(cfg)])
    assert code == 2


# ---------------------------------------------------------------------------
# determinism (full sweep lives in the acceptance suite)
# ---------------------------------------------------------------------------


def test_repeat_runs_are_byte_identical(capsys):
    argv = ["scan", "--mode", "gaps", "--limit", "2000", "--universe", "P2"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second
