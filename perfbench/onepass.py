"""One pass of a workload in a fresh interpreter; prints one JSON record.

    python3 perfbench/onepass.py --workload exact --seed 1 [--trace] [--check] [--setup-only]

`run.py` starts this once per pass with e2sieve's `src` on PYTHONPATH.  The
pass times its set-up (importing e2sieve and building the inputs) and each
operation, and reads its peak resident memory.  Only then, with `--check`,
does it check every result, so that neither the checks nor their imports
enter a timing.  Every pass reports a digest of each operation's output, so
that a pass run without `--check` can be held to a checked one.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args()

    import e2sieve  # noqa: F401  (the import is part of set-up)
    import e2sieve.cli  # noqa: F401

    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    work = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    results, seconds = [], []
    start = time.perf_counter()
    for op in work.ops:
        t = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed call is counted, not fatal
            result = exc
        seconds.append(time.perf_counter() - t)
        results.append(result)
    pass_s = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    import hashlib  # imported after the memory reading, like the checks' own imports

    ops, groups, counts = [], {}, {}
    for op, result, dt in zip(work.ops, results, seconds):
        if isinstance(result, Exception):
            output = f"raised {type(result).__name__}: {result}"
            problems = [output]
        else:
            output = op.output(result)
            try:
                problems = op.check(result) if args.check else []
            except Exception:  # a result the check cannot read is a wrong result
                problems = ["check failed: " + traceback.format_exc(limit=2).strip().splitlines()[-1]]
            if tracer:
                for key, value in op.counts(result).items():
                    counts[key] = counts.get(key, 0) + value
        ops.append({"name": op.name, "group": op.group, "seconds": dt, "problems": problems,
                    "known_fault": op.known_fault,
                    "digest": hashlib.sha256(output.encode()).hexdigest()})
        groups[op.group] = groups.get(op.group, 0.0) + dt
    faulty = {op.group for op in work.ops if op.known_fault}
    record = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "peak_rss_mib": peak_rss_mib,
        "ops": ops,
        "groups": groups,
        "fault_groups": sorted(faulty),
    }
    if tracer:
        counts["simplex.F2_terms"] = sum(len((F.poly * F.poly).terms) for F in work.functions())
        record["self_s"] = tracer.self_times()
        record["counts"] = counts
        record["spans"] = tracer.spans
    print(json.dumps(record))


if __name__ == "__main__":
    main()
