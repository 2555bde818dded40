"""Command line interface: exit codes, formats, config merging, determinism."""

import json
import time
import tracemalloc
from dataclasses import fields
from fractions import Fraction

import pytest

from conftest import mp_value, run_with_src
from e2sieve import (TARGETS, SieveParams, TestFunction, algebra, cli, functionals, leading_coefficient,
                     numth, simplex)
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


def test_verify_exits_2_when_the_sign_is_undecided(capsys, monkeypatch):
    monkeypatch.setattr(algebra, "_SIGN_DIGITS", 0)   # no evaluation is allowed
    code, out, err = run_cli(capsys, ["verify", "--theorem", "thm1.3"])
    assert (code, out, err) == (2, "", "error: sign undecided at 0 digits\n")


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
    "--F=" + "+".join(["u1"] * 3000),               # too deep for ast.parse itself
    "--F=" + "-----(" * 190 + "u1" + ")" * 190,     # past the parser's own stack limit
    "--F=" + "-" * 3000 + "u1",                     # too deep for ast.parse itself
    "--F=" + "-" * 1500 + "u1",                     # too deep for the tree walk
], ids=["summands", "parentheses", "unary-signs", "unary-signs-walk"])
def test_functional_nested_too_deeply_exits_2(capsys, flag):
    code, _, err = run_cli(capsys, ["functional", "--k", "2", flag])
    assert code == 2 and "nested too deeply" in err


def test_functional_a_1500_factor_product_exits_2_on_the_degree_budget(capsys):
    # the chain parses (one term, u1^1500), and G's degree 3,003 is past the kernel's budget
    code, _, err = run_cli(capsys, ["functional", "--k", "2", "--F=" + "*".join(["u1"] * 1500)])
    assert code == 2 and "degree budget" in err


def test_functional_past_the_degree_budget_exits_2_at_once(capsys):
    # u1^2048 at k = 2: the L and M rows of G would hold 4,100^2 ints each
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["functional", "--F", "(u1**64)**32", "--k", "2"])
    elapsed = time.perf_counter() - start
    assert code == 2 and out == ""
    assert err == (f"error: F of degree 2048 at k = 2 gives G of degree 4099, which exceeds the "
                   f"degree budget {simplex._MAX_TOP} of the simplex kernel\n")
    assert elapsed < 1.0, elapsed


def test_functional_past_the_degree_budget_in_k_exits_2_before_building_F(capsys):
    # a P leaf builds k tuples of k ints, 80 GB at k = 100,000; even a constant
    # F has G of degree k + 1
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, ["functional", "--F", "1 - P1", "--k", "100000"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err == (f"error: k = 100000 gives G of degree at least 100001, which exceeds the "
                   f"degree budget {simplex._MAX_TOP} of the simplex kernel\n")
    assert elapsed < 1.0, elapsed
    assert peak < 2 ** 20, peak


CANCELLING = ["functional", "--F", "u1**64*u1**64*u1**64", "--k", "2", "--eta", "1/100"]


def test_functional_prints_the_certified_value_of_a_cancelling_coefficient(capsys):
    # the closed form's constant and log terms cancel over about 190 digits
    F = TestFunction.from_expression(2, CANCELLING[2])
    value = leading_coefficient(F, SieveParams(k=2, rho=1, theta=Fraction(1, 2), eta=Fraction(1, 100)),
                                "Sprime").value
    exact = mp_value(value, 400)
    code, out, _ = run_cli(capsys, CANCELLING + ["--format", "text"])
    assert code == 0
    assert out.splitlines()[-1].startswith("leading coefficient = -1.6609660888066819e-06  [")
    code, out, _ = run_cli(capsys, CANCELLING)
    entry = json.loads(out)["leading_coefficient"]
    assert code == 0 and entry["closed_form"] == value.to_text()
    assert entry["float"] == float(exact) == -1.6609660888066819e-06


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
    # distinct weights fix no swap: 1716 orbits of one term, 792 x 1716 pairs
    # per coordinate (P1**12, 6188 terms, is 44 orbits of S_6 and fits)
    pytest.param("(1 + u1 + 2*u2 + 3*u3 + 4*u4 + 5*u5 + 6*u6)**7", "pairs", id="weighted**7-pairs"),
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


@pytest.mark.parametrize("shifts", ["--H=-3,0,2", "--H=-1,0,2"])
def test_scan_hits_rejects_negative_shifts(capsys, shifts):
    code, out, err = run_cli(capsys, ["scan", "--mode", "hits", "--limit", "20",
                                      "--universe", "P2", shifts])
    assert code == 2 and out == ""
    assert "shifts must be non-negative" in err


def test_scan_hits_rejects_a_negative_limit(capsys):
    code, out, err = run_cli(capsys, ["scan", "--mode", "hits", "--limit", "-5", "--H", "0,2"])
    assert code == 2 and out == ""
    assert "limit must be >= 0" in err


def test_scan_hits_default_threshold_is_the_number_of_distinct_shifts(capsys):
    code, out, _ = run_cli(capsys, ["scan", "--mode", "hits", "--limit", "500",
                                    "--universe", "P2", "--H", "0,0,2"])
    assert code == 0
    assert json.loads(out)["threshold"] == 2
    assert run_cli(capsys, ["scan", "--mode", "hits", "--limit", "500",
                            "--universe", "P2", "--H", "0,2"])[1] == out


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


def test_scan_bv_runs_at_the_moduli_budget_and_exits_2_one_past_it(capsys, monkeypatch):
    # at theta = 1 the moduli are q <= N
    argv = ["scan", "--mode", "bv", "--theta", "1", "--universe", "primes", "--limit"]
    code, out, _ = run_cli(capsys, argv + [str(numth._BV_MODULI)])
    rows = json.loads(out)["rows"]
    assert code == 0 and len(rows) == sum(map(numth.is_squarefree, range(1, numth._BV_MODULI + 1)))
    calls = []
    monkeypatch.setattr(numth, "primes_in_range", lambda *args: calls.append(args))
    code, out, err = run_cli(capsys, argv + [str(numth._BV_MODULI + 1)])
    assert (code, out, calls) == (2, "", [])
    assert err == f"error: {numth._BV_MODULI + 1} moduli q <= N^theta exceed the budget of " \
                  f"{numth._BV_MODULI}\n"


def test_scan_bv_runs_at_the_work_budget_and_exits_2_before_sieving_past_it(capsys, monkeypatch):
    # floor(N^(1/2)) = 1000 moduli times N = 10^6 is the budget exactly
    argv = ["scan", "--mode", "bv", "--theta", "1/2", "--universe", "primes", "--limit"]
    code, out, _ = run_cli(capsys, argv + ["1000000"])
    assert code == 0 and len(json.loads(out)["rows"]) == sum(map(numth.is_squarefree, range(1, 1001)))
    calls = []
    monkeypatch.setattr(numth, "primes_in_range", lambda *args: calls.append(args))
    monkeypatch.setattr(numth, "_beta_numbers", lambda *args: calls.append(args))
    for limit, theta, universe, qmax in [("1000001", "1/2", "primes", 1000),
                                         ("1999999", "2/3", "beta", 15874)]:
        argv = ["scan", "--mode", "bv", "--limit", limit, "--theta", theta, "--universe", universe]
        code, out, err = run_cli(capsys, argv)
        assert (code, out, calls) == (2, "", [])
        assert err == f"error: {qmax} moduli q <= N^theta times N = {limit} exceed the budget " \
                      f"of {numth._BV_WORK}\n"


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
    assert '  "k": null,' in out.splitlines()
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
# records as JSON
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv, record", [
    (["scan", "--mode", "gaps", "--limit", "2000"], numth.GapReport),
    (["scan", "--mode", "hits", "--limit", "2000", "--universe", "P2", "--H", "0,2,6"],
     numth.TupleHitReport),
    (["scan", "--mode", "bv", "--limit", "2000", "--universe", "primes"], numth.BVTable),
    (["scan", "--mode", "bv", "--limit", "2000", "--universe", "beta"], numth.BVTable),
    (["theorem11", "--rho", "5"], functionals.Theorem11Plan),
], ids=["gaps", "hits", "bv-primes", "bv-beta", "theorem11"])
def test_the_json_keys_are_the_record_fields(capsys, argv, record):
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert sorted(json.loads(out)) == sorted(f.name for f in fields(record))


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["functional", "--F", "thm1.3", "--seed", "3"],
    ["scan", "--limit", "100", "--digits", "20"],
], ids=["functional-seed", "scan-digits"])
def test_only_verify_takes_digits_and_seed(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_bad_fraction_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["functional", "--F", "1", "--k", "2", "--theta", "half"])
    assert exc.value.code == 2


def test_digits_below_15_rejected(capsys):
    code, _, err = run_cli(capsys, ["verify", "--theorem", "thm1.3", "--digits", "10"])
    assert code == 2 and "digits" in err


def test_digits_run_up_to_the_sign_budget_and_exit_2_past_it(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["verify", "--theorem", "thm1.3", "--digits", "960"])
    assert code == 0 and "leading coefficient is positive" in out
    calls = []
    monkeypatch.setattr(cli, "leading_coefficient", lambda *args: calls.append(args))
    code, out, err = run_cli(capsys, ["verify", "--theorem", "thm1.3", "--digits", "961"])
    assert (code, out, calls) == (2, "", [])
    assert err == "error: --digits must be between 15 and 960\n"


def test_parser_lists_all_subcommands():
    text = build_parser().format_help()
    for name in ("verify", "functional", "scan", "theorem11"):
        assert name in text


def test_the_parser_is_built_once_and_parsing_leaves_it_unchanged(capsys):
    parser = build_parser()
    help_text = parser.format_help()
    run_cli(capsys, ["verify", "--theorem", "thm1.3", "--format", "json"])
    assert build_parser() is parser and parser.format_help() == help_text


@pytest.mark.parametrize("argv", [
    ["verify", "--theo", "thm1.3"],
    ["verify", "--theorem", "thm1.3", "--mc-sampl", "20000"],
    ["scan", "--mode", "gaps", "--lim", "100"],
])
def test_a_prefix_of_a_flag_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


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


def test_config_epsilon_reaches_theorem11_and_the_flag_overrides_it(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("rho = 5\nepsilon = 1/5\n")
    code, out, _ = run_cli(capsys, ["theorem11", "--config", str(cfg)])
    assert code == 0 and json.loads(out)["epsilon"] == "1/5"
    assert out == run_cli(capsys, ["theorem11", "--rho", "5", "--epsilon", "1/5"])[1]
    code, out, _ = run_cli(capsys, ["theorem11", "--config", str(cfg), "--epsilon", "1/4"])
    assert code == 0 and json.loads(out)["epsilon"] == "1/4"


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate = 1\n")
    code, _, err = run_cli(capsys, ["verify", "--config", str(cfg)])
    assert code == 2 and "frobnicate" in err


@pytest.mark.parametrize("line", ["theta = 1", "limit = 5"])
def test_config_key_that_is_not_a_flag_of_the_subcommand_exits_2(tmp_path, capsys, line):
    # verify has no --theta and no --limit
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"theorem = thm1.3\n{line}\n")
    code, out, err = run_cli(capsys, ["verify", "--config", str(cfg)])
    key = line.split()[0]
    assert (code, out, err) == (2, "", f"error: unknown config key {key!r}\n")


def test_a_digits_config_key_for_functional_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("F = thm1.3\ndigits = 20\n")
    code, out, err = run_cli(capsys, ["functional", "--config", str(cfg)])
    assert (code, out, err) == (2, "", "error: unknown config key 'digits'\n")


def test_a_config_key_that_is_a_prefix_of_a_flag_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("the = thm1.3\n")
    code, out, err = run_cli(capsys, ["verify", "--config", str(cfg)])
    assert (code, out, err) == (2, "", "error: unknown config key 'the'\n")


def test_bad_config_value_exits_2_as_the_flag_does(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theorem = thm1.3\nvariant = X\n")
    errors = []
    for argv in (["verify", "--config", str(cfg)], ["verify", "--theorem", "thm1.3", "--variant", "X"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err.splitlines()[-1])
    assert errors[0] == errors[1] and "invalid choice: 'X'" in errors[0]


@pytest.mark.parametrize("key", ["mc_samples", "mc-samples"])
def test_config_key_may_spell_a_flag_with_underscores(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"theorem = thm1.3\n{key} = 20000\nseed = 3\n")
    code, out, _ = run_cli(capsys, ["verify", "--config", str(cfg)])
    assert code == 0 and "mc_I" in out
    assert out == run_cli(capsys, ["verify", "--theorem", "thm1.3", "--mc-samples", "20000",
                                   "--seed", "3"])[1]


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


# ---------------------------------------------------------------------------
# the module run as a program: sys.exit(main())
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("flags, code, err", [
    ([], 0, ""),
    (["--rho", "3"], 1, ""),
    (["--digits", "5"], 2, "error: --digits must be between 15 and 960\n"),
], ids=["positive", "not-positive", "usage"])
def test_the_module_exits_with_the_code_main_returns(flags, code, err):
    run = run_with_src(["-m", "e2sieve.cli", "verify", "--theorem", "thm1.3", *flags])
    assert (run.returncode, run.stderr) == (code, err)
