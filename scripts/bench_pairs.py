"""Benchmark a change against its parent commit in alternating pairs; write a BENCH file.

    python3 scripts/bench_pairs.py --parent REV --out BENCH_prN.json \
        [--claim "crosscheck op_geomean_s"] [--what TEXT]

Run from a git checkout.  The parent is exported with `git archive` into a
temporary directory; the change is the working tree.  For every workload of
BENCHMARK.json and each of the 10 pairs i = 0..9, both sides run
`perfbench/run.py --workload W --seed (101 + i) --seconds S --trace 0`
in their own tree with PYTHONDONTWRITEBYTECODE=1, and the side that runs
first alternates from pair to pair.  The run length S, the workloads, the
end-to-end metrics and their bounds come from BENCHMARK.json.  Per metric the file records each side's
median and inclusive quartiles over the pairs, the number of pairs in which
the change is better, and the change median relative to the parent's; per
call group (the `  quad_s 0.0138 s` lines that run.py prints before its JSON
line) it records each side's median, which shows the group a metric moved by.  With
`--claim`, each side also makes one traced run (`--trace 1`, half the run
length) of the claimed workload on the seed after the last pair's, so the
file shows which layers the difference comes from.  `src_lines` records the
lines of src/e2sieve/*.py in each tree.  Uses only the standard library and
git.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
FIRST_SEED = 101
PAIRS = 10


def export(rev: str, dest: Path) -> None:
    """Write the tree of commit `rev` into `dest`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def src_lines(tree: Path) -> int:
    """The newline count of src/e2sieve/*.py in `tree`, as `wc -l` gives it."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "e2sieve").glob("*.py"))


def call_groups(stdout: str, metrics: dict) -> dict[str, float]:
    """The per-call seconds of each group that a run printed, the metric lines left out."""
    lines = stdout.strip().splitlines()[:-1]
    found = (re.fullmatch(r"  (\w+) +(\d+\.\d+) s", line) for line in lines)
    return {m[1]: float(m[2]) for m in found if m and m[1] not in metrics}


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run: its last stdout line, {"correct", "attempted", "failed",
    "metrics"}, and under "groups" the seconds per call of each group."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)   # run.py puts its own tree's src on the path
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=tree, env=env, capture_output=True, text=True, check=True)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["groups"] = call_groups(proc.stdout, record["metrics"])
    return record


def side_stats(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(v, 4) for v in runs]}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' statistics, the pairs the change wins and its relative median."""
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
    p, c = side_stats(parent), side_stats(change)
    return {"parent": p, "change": c, "change_better_pairs": wins,
            "median_change_rel": round(statistics.median(change) / statistics.median(parent) - 1, 4)}


def summarize_workload(records: dict[str, list[dict]], seeds: list[int], first_side: list[str],
                       metrics: dict[str, str]) -> dict:
    """The BENCH entry of one workload from each side's run records, pair by pair.

    `metrics` maps each end-to-end metric to "lower" or "higher" (which is better).
    """
    out: dict = {"seeds": seeds, "pairs": len(seeds)}
    for name, better in metrics.items():
        out[name] = compare(*([r["metrics"][name]["value"] for r in records[side]] for side in SIDES),
                            better)
    out["groups"] = {group: {side: round(statistics.median(r["groups"][group] for r in records[side]), 4)
                             for side in SIDES}
                     for group in records["parent"][0].get("groups", ())}
    out["failed"] = {side: sum(r["failed"] for r in records[side]) for side in SIDES}
    out["attempted"] = {side: sum(r["attempted"] for r in records[side]) for side in SIDES}
    out["correct"] = {side: all(r["correct"] for r in records[side]) for side in SIDES}
    out["first_side"] = first_side
    return out


def claim(workloads: dict, workload: str, metric: str, better: str) -> dict:
    """Whether the change wins at least 9 pairs in 10 and its median gap exceeds the parent's IQR."""
    entry = workloads[workload][metric]
    parent, change = entry["parent"], entry["change"]
    gap = parent["median"] - change["median"] if better == "lower" else change["median"] - parent["median"]
    iqr = round(parent["q3"] - parent["q1"], 4)
    pairs, wins = workloads[workload]["pairs"], entry["change_better_pairs"]
    met = wins * 10 >= 9 * pairs and gap > iqr
    return {
        "metric": f"{workload} {metric}",
        "parent_median": parent["median"],
        "change_median": change["median"],
        "median_change_rel": entry["median_change_rel"],
        "change_better_pairs": wins,
        "parent_iqr": iqr,
        "reading": (f"{'met' if met else 'not met'}: the change is better in {wins} of {pairs} "
                    f"pairs, and the medians differ by {gap:.4g} in its favour, against the "
                    f"parent's interquartile distance of {iqr:.4g}."),
    }


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    info = {"cpus": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}
    for package in ("numpy", "mpmath", "sympy"):
        try:
            info[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            info[package] = None
    return info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="the commit to compare against")
    ap.add_argument("--out", required=True, type=Path, help="the BENCH file to write")
    ap.add_argument("--claim", help='the claimed gain as "WORKLOAD METRIC"')
    ap.add_argument("--what", default="", help="one line on what the change does")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(FIRST_SEED, FIRST_SEED + PAIRS))
    seconds = bench["run_seconds"]
    parent_rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip()

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": ROOT}
        export(args.parent, trees["parent"])
        lines = {side: src_lines(trees[side]) for side in SIDES}
        summary = {}
        for workload in workloads:
            records: dict[str, list[dict]] = {side: [] for side in SIDES}
            first_side = []
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                first_side.append(order[0])
                for side in order:
                    records[side].append(run_once(trees[side], workload, seed, seconds))
                print(f"{workload} pair {i + 1}/{PAIRS} done", file=sys.stderr)
            summary[workload] = summarize_workload(records, seeds, first_side, metrics)
        if args.claim:
            workload = args.claim.split()[0]
            trace_seed = seeds[-1] + 1
            traced = {side: run_once(trees[side], workload, trace_seed, seconds / 2, trace=1)["metrics"]
                      for side in SIDES}

    out = {
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "protocol": (f"{PAIRS} pairs per workload, seeds {seeds[0]}-{seeds[-1]}, the side that "
                     f"runs first alternating from pair to pair (first_side); parent = commit "
                     f"{parent_rev}, change = the working tree; each side in its own tree without "
                     f"bytecode caches (PYTHONDONTWRITEBYTECODE=1). Figures per side: median and "
                     f"quartiles (inclusive) of the runs, each run's value as run.py prints it. "
                     f"change_better_pairs counts pairs where the change reads better; "
                     f"median_change_rel is change median / parent median - 1. Workloads ran in "
                     f"the order {', '.join(workloads)}. Written by scripts/bench_pairs.py."),
        "machine": machine(),
        "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
        "src_lines": lines,
    }
    if args.claim:
        workload, metric = args.claim.split()
        out["claim"] = claim(summary, workload, metric, metrics[metric])
        out["trace_check"] = {
            "command": f"python3 perfbench/run.py --workload {workload} --seed {trace_seed} "
                       f"--seconds {seconds / 2:g} --trace 1, once per side",
            **{side: {name: round(m["value"], 4) for name, m in traced[side].items() if m["value"]}
               for side in SIDES},
        }
    out["workloads"] = summary
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
