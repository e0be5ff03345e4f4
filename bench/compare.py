#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py A.jsonl B.jsonl

``A`` is the baseline (the parent commit, or the first A/A set), ``B``
the candidate; both are files written by ``bench/run.py --out`` and may
hold any number of runs per workload (ten each, alternating which side
runs first, is what a claim needs).  For every workload × end-to-end
metric one row is printed:

``ok``          B's median is not worse than A's by more than the
                metric's bound in ``BENCHMARK.json``
``worse``       it is
``unresolved``  it is not, but the run-to-run spread of either side
                (inter-quartile distance over median) is wider than the
                bound, so "unchanged" cannot be claimed either

plus one ``failed_ops_share`` row per workload.  Exit status is non-zero
on any ``worse`` row or on a higher ``failed_ops_share``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> dict:
    """``workload → {"metrics": name → [values], "attempted", "failed"}``
    from the untraced runs in ``path``."""
    runs: dict = defaultdict(lambda: {"metrics": defaultdict(list),
                                      "attempted": 0, "failed": 0})
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            entry = runs[record["workload"]]
            entry["attempted"] += record["attempted"]
            entry["failed"] += record["failed"]
            for name, value in record["metrics"].items():
                entry["metrics"][name].append(value)
    return runs


def spread(values: list) -> float:
    """Inter-quartile distance as a share of the median (0 below two runs)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(metric: dict, baseline: list, candidate: list):
    """→ (verdict, signed change where positive is worse, widest spread)."""
    base, cand = statistics.median(baseline), statistics.median(candidate)
    change = (cand - base) / base
    if metric["better"] == "higher":
        change = -change
    noise = max(spread(baseline), spread(candidate))
    if change > metric["bound"]:
        return "worse", change, noise
    if noise > metric["bound"]:
        return "unresolved", change, noise
    return "ok", change, noise


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    baseline, candidate = load_runs(argv[0]), load_runs(argv[1])
    failures = 0
    print(f"{'workload':<18s}{'metric':<26s}{'A median':>12s}{'B median':>12s}"
          f"{'worse by':>10s}{'spread':>9s}{'bound':>8s}  verdict")
    for workload in (entry["name"] for entry in contract["workloads"]):
        if workload not in baseline or workload not in candidate:
            print(f"{workload:<18s}(not in both files)")
            continue
        side_a, side_b = baseline[workload], candidate[workload]
        for metric in contract["end_to_end"]:
            name = metric["name"]
            values_a = side_a["metrics"].get(name)
            values_b = side_b["metrics"].get(name)
            if not values_a or not values_b:
                print(f"{workload:<18s}{name:<26s}(not measured on both sides)")
                failures += 1
                continue
            outcome, change, noise = verdict(metric, values_a, values_b)
            failures += outcome == "worse"
            print(f"{workload:<18s}{name:<26s}"
                  f"{statistics.median(values_a):>12.5g}"
                  f"{statistics.median(values_b):>12.5g}"
                  f"{change:>+10.2%}{noise:>9.2%}{metric['bound']:>8.0%}"
                  f"  {outcome}")
        share_a = side_a["failed"] / max(1, side_a["attempted"])
        share_b = side_b["failed"] / max(1, side_b["attempted"])
        higher = share_b > share_a
        failures += higher
        print(f"{workload:<18s}{'failed_ops_share':<26s}{share_a:>12.5g}"
              f"{share_b:>12.5g}{'':>27s}  {'worse' if higher else 'ok'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
