"""The summary arithmetic of scripts/bench_pairs.py on canned run records."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _record(pass_s, rss, failed=0, attempted=5):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"pass_s": {"value": pass_s, "unit": "s"},
                        "peak_rss_mib": {"value": rss, "unit": "MiB"}}}


def test_side_stats_takes_inclusive_quartiles():
    stats = bench_pairs.side_stats([4.0, 1.0, 3.0, 2.0, 5.0])
    assert stats == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [4.0, 1.0, 3.0, 2.0, 5.0]}
    # between two runs, inclusive quartiles interpolate
    assert bench_pairs.side_stats([1.0, 2.0, 3.0, 4.0])["q1"] == 1.75


def test_compare_counts_the_pairs_the_change_wins():
    parent = [1.0, 1.0, 1.0, 1.0]
    change = [0.5, 1.5, 0.9, 1.0]      # a tie is not a win
    lower = bench_pairs.compare(parent, change, "lower")
    assert lower["change_better_pairs"] == 2
    assert lower["median_change_rel"] == pytest.approx(-0.05)
    assert bench_pairs.compare(parent, change, "higher")["change_better_pairs"] == 1


def test_summarize_workload_and_claim():
    records = {
        "parent": [_record(p, 50.0) for p in (1.00, 1.10, 0.90, 1.05)],
        "change": [_record(p, 49.0, failed=int(i == 3)) for i, p in enumerate((0.60, 0.65, 0.55, 1.20))],
    }
    first = ["parent", "change", "parent", "change"]
    out = bench_pairs.summarize_workload(records, [101, 102, 103, 104], first,
                                         {"pass_s": "lower", "peak_rss_mib": "lower"})
    assert out["pairs"] == 4 and out["first_side"] == first
    assert out["pass_s"]["parent"]["median"] == 1.025
    assert out["pass_s"]["change"]["median"] == 0.625
    assert out["pass_s"]["change_better_pairs"] == 3
    assert out["peak_rss_mib"]["change_better_pairs"] == 4
    assert out["failed"] == {"parent": 0, "change": 1}
    assert out["attempted"] == {"parent": 20, "change": 20}
    assert out["correct"] == {"parent": True, "change": False}

    claim = bench_pairs.claim({"exact": out}, "exact", "pass_s", "lower")
    assert claim["metric"] == "exact pass_s"
    assert claim["parent_iqr"] == pytest.approx(1.0625 - 0.975)
    # 3 of 4 pairs is below 9 in 10, although the gap is wider than the IQR
    assert claim["reading"].startswith("not met: the change is better in 3 of 4 pairs")
    records["change"][3] = _record(0.70, 49.0)
    out = bench_pairs.summarize_workload(records, [101, 102, 103, 104], first, {"pass_s": "lower"})
    assert bench_pairs.claim({"exact": out}, "exact", "pass_s", "lower")["reading"].startswith("met:")


def test_call_groups_are_read_from_the_run_output_and_summarized():
    stdout = "\n".join([
        "workload crosscheck, seed 101: 5 untraced and 0 traced passes; timings are means over the untraced passes",
        "  quad_s                       0.0138 s",
        "  mc_s                         0.1020 s",
        "  setup_s                      0.2100 s",
        "  pass_s                       0.5000 s",
        "  peak_rss_mib                49.1000 MiB",
        "  pass_s of each untraced pass: 0.500 0.510",
        "  operations attempted 40, failed 0",
        '{"correct": true, "attempted": 40, "failed": 0, "metrics": {}}',
    ])
    metrics = {"setup_s": {}, "pass_s": {}, "peak_rss_mib": {}}
    groups = bench_pairs.call_groups(stdout, metrics)
    assert groups == {"quad_s": 0.0138, "mc_s": 0.102}
    records = {side: [dict(_record(1.0, 50.0), groups={"quad_s": q, "mc_s": 0.1}) for q in qs]
               for side, qs in (("parent", (0.014, 0.013, 0.015)), ("change", (0.008, 0.007, 0.009)))}
    out = bench_pairs.summarize_workload(records, [101, 102, 103], ["parent", "change", "parent"],
                                         {"pass_s": "lower"})
    assert out["groups"] == {"quad_s": {"parent": 0.014, "change": 0.008},
                             "mc_s": {"parent": 0.1, "change": 0.1}}


def test_src_lines_counts_the_package_lines_of_each_tree(tmp_path):
    trees = {"parent": {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\n"}, "change": {"a.py": "x = 1\n"}}
    for side, files in trees.items():
        package = tmp_path / side / "src" / "e2sieve"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
    (tmp_path / "parent" / "src" / "e2sieve" / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "parent" / "scripts").mkdir()
    (tmp_path / "parent" / "scripts" / "c.py").write_text("not = 'counted'\n")
    assert {side: bench_pairs.src_lines(tmp_path / side) for side in trees} == {"parent": 3, "change": 1}
