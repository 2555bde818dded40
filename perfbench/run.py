"""Run one workload of the e2sieve benchmark and print its metrics.

    python3 perfbench/run.py --workload {exact,crosscheck,desk} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: e2sieve is imported from its `src`
directory, nothing is installed.  Each pass runs in a fresh interpreter
(`onepass.py`); passes repeat while another one fits in `--seconds`.  The
first pass checks every result; each later pass must reproduce the first
pass's outputs digest for digest, or the differing operation counts as
failed.  With `--trace 0` the run prints the end-to-end metrics; with
`--trace 1` it alternates untraced and traced passes, prints the per-layer
metrics from the traced ones, and writes their spans to `perfbench/out/`.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import SPAN_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("exact", "crosscheck", "desk")
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "op_geomean_s": "s", "peak_rss_mib": "MiB"}
COUNTS = ["simplex.F2_terms", "simplex.mc_samples", "sieveweights.tuples",
          "sieveweights.lambda_entries", "sieveweights.n_scanned", "numth.scanned"]


def run_pass(workload: str, seed: int, *flags: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")   # the same set and dict orders in every pass
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, str(HERE / "onepass.py"), "--workload", workload, "--seed", str(seed),
           *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with code {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def hold_to_first(first: dict, later: dict) -> None:
    """Give each operation of a later pass the checked verdict of the first pass,
    or a failure where its output differs."""
    for op, ref in zip(later["ops"], first["ops"]):
        if op["problems"]:
            continue
        if op["digest"] != ref["digest"]:
            op["problems"] = ["output differs from the checked first pass"]
        else:
            op["problems"] = ref["problems"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "e2sieve" / "__init__.py").is_file():
        print(f"error: no e2sieve sources under {SRC}", file=sys.stderr)
        return 2

    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    try:
        while True:
            trace_this = bool(args.trace) and len(untraced) > len(traced)
            flags = ["--trace"] * trace_this + ["--check"] * (not untraced)
            began = time.monotonic()
            record = run_pass(args.workload, args.seed, *flags)
            if untraced:
                hold_to_first(untraced[0], record)
            (traced if trace_this else untraced).append(record)
            # stop when another pass of the same length would overrun the run
            now = time.monotonic()
            if now + (now - began) - start > args.seconds and (traced or not args.trace):
                break
        # the time left is too short for a pass; fill it with set-ups alone,
        # which steadies the median set-up time
        setups = [r["setup_s"] for r in untraced]
        setup_wall = 0.0
        while not args.trace and time.monotonic() + setup_wall - start <= args.seconds:
            began = time.monotonic()
            setups.append(run_pass(args.workload, args.seed, "--setup-only")["setup_s"])
            setup_wall = time.monotonic() - began
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = [op for record in untraced + traced for op in record["ops"]]
    failed = [op for op in ops if op["problems"]]
    correct = all(op["known_fault"] for op in failed)

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes; timings are means over the untraced passes")
    # Timings take the mean over the run's passes.  On a shared host a pass
    # runs in a fast or a slow mode (up to 1.5x apart) that lasts for minutes;
    # with four to nine passes a run, the median jumps between the modes while
    # the mean moves in proportion to the share of slow passes.
    calls = {group: statistics.mean(r["groups"][group] for r in untraced)
             for group in untraced[0]["groups"]}
    for group, seconds in calls.items():
        print(f"  {group:<24} {seconds:10.4f} s")
    # each per-call figure weighs alike, so a slower short call shows as much as
    # a slower long one; the figure of a known fault is left out
    timed = [g for g in calls if g not in untraced[0]["fault_groups"]]
    values = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.mean(r["pass_s"] for r in untraced),
        "op_geomean_s": math.exp(sum(math.log(calls[g]) for g in timed) / len(timed)),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in untraced),
    }
    end_to_end = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    for name, entry in end_to_end.items():
        print(f"  {name:<24} {entry['value']:10.4f} {entry['unit']}")
    per_pass = " ".join(f"{r['pass_s']:.3f}" for r in untraced)
    print(f"  pass_s of each untraced pass: {per_pass}")
    if not args.trace:
        print(f"  setup_s over {len(setups)} set-ups: {' '.join(f'{v:.3f}' for v in setups)}")
    print(f"  operations attempted {len(ops)}, failed {len(failed)}")
    for message in sorted({f"{op['name']}: {'; '.join(op['problems'])}"
                           + (f" [known fault: {op['known_fault']}]" if op["known_fault"] else "")
                           for op in failed}):
        print(f"  FAILED {message}")

    if args.trace:
        metrics = {f"{span}_s": {"value": statistics.median(r["self_s"].get(span, 0.0) for r in traced),
                                 "unit": "s"} for span in SPAN_NAMES}
        metrics.update({name: {"value": traced[0]["counts"].get(name, 0), "unit": "count"}
                        for name in COUNTS})
        overhead = (statistics.mean(r["pass_s"] for r in traced)
                    - statistics.mean(r["pass_s"] for r in untraced))
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump([{"columns": ["name", "start", "end", "parent"], "spans": r["spans"]}
                       for r in traced], fh)
        for name, entry in metrics.items():
            print(f"  {name:<30} {entry['value']:12.4f} {entry['unit']}")
    else:
        metrics = end_to_end
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
