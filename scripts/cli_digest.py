#!/usr/bin/env python3
"""Print one SHA-256 line per case over the exit code and stdout of `e2sieve`.

The cases: the eight commands of acceptance criterion 9, each in the text,
json and csv formats, the two `verify` and two `functional` commands once
more with every flag read from a temporary `--config` file, and a `verify`
whose Monte Carlo estimates span enough chunks for the two-process fill.  Two trees
that print the same lines print the same CLI bytes.

    PYTHONPATH=src python3 scripts/cli_digest.py
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import run_cli  # noqa: E402

CRITERION_9 = {
    "verify:thm1.3": ["verify", "--theorem", "thm1.3", "--mc-samples", "20000", "--seed", "7"],
    "verify:thm1.4": ["verify", "--theorem", "thm1.4"],
    "functional:custom": ["functional", "--F", "(1-u1)*(1-u2)", "--k", "2",
                          "--theta", "1/2", "--eta", "1/100"],
    "functional:thm1.3": ["functional", "--F", "thm1.3"],
    "scan:gaps": ["scan", "--mode", "gaps", "--limit", "3000", "--universe", "E2"],
    "scan:hits": ["scan", "--mode", "hits", "--limit", "2000", "--universe", "P2",
                  "--H", "0,2,6"],
    "scan:bv": ["scan", "--mode", "bv", "--limit", "2000", "--theta", "1/3",
                "--universe", "primes"],
    "theorem11": ["theorem11", "--rho", "7"],
}
# 10^5 samples are seven chunks of simplex._MC_CHUNK rows, so on two CPUs a
# forked child fills the last three
MC_SPLIT = ["verify", "--theorem", "thm1.2", "--mc-samples", "100000", "--seed", "5"]
CONFIG_FORMATS = {"verify:thm1.3": "json", "verify:thm1.4": "csv",
                  "functional:custom": "json", "functional:thm1.3": "text"}


def digest(argv: list[str]) -> str:
    run = run_cli(argv)
    return hashlib.sha256(f"{run.code}\n{run.out}".encode()).hexdigest()


def config_argv(argv: list[str], fmt: str, directory: str) -> list[str]:
    """The subcommand and a --config file holding each of argv's flags as a key = value line."""
    pairs = list(zip(argv[1::2], argv[2::2])) + [("--format", fmt)]
    path = Path(directory) / f"{argv[0]}.cfg"
    path.write_text("".join(f"{flag[2:]} = {value}\n" for flag, value in pairs), encoding="utf-8")
    return [argv[0], "--config", str(path)]


def main() -> None:
    for name, argv in CRITERION_9.items():
        for fmt in ("text", "json", "csv"):
            print(f"{name}:{fmt}", digest(argv + ["--format", fmt]))
    with tempfile.TemporaryDirectory() as directory:
        for name, fmt in CONFIG_FORMATS.items():
            print(f"{name}:config", digest(config_argv(CRITERION_9[name], fmt, directory)))
    print("verify:thm1.2:mc-split", digest(MC_SPLIT))


if __name__ == "__main__":
    main()
