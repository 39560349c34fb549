#!/usr/bin/env python3
"""Compares two sets of end-to-end benchmark runs.

  python3 e2ebench/e2e_compare.py A.jsonl B.jsonl

A and B are files written by `e2e.py --out` (one JSON record per run), A
the baseline. For every end-to-end metric x workload it prints each
side's median and quartiles, and judges B against A with the bound from
BENCHMARK.json:

  ok          B's median is within the bound of A's
  REGRESSION  B's median is worse than A's by more than the bound
  unresolved  a side's spread (IQR / median) is wider than the bound, and
              B is not better on every run

Per-layer metrics of traced runs are listed without a verdict. Runs of
the same workload and seed must give the same output checks on both
sides. The exit status is nonzero on a regression, a check mismatch, a
rise in failed operations, or fewer than 2 runs of a workload on a side.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_workload(records, trace):
    out = {}
    for r in records:
        if bool(r["trace"]) == trace:
            out.setdefault(r["workload"], []).append(r)
    return out


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def values_of(runs, name):
    return [r["metrics"][name]["value"] for r in runs
            if name in r["metrics"]]


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    a_all, b_all = load(args.baseline), load(args.candidate)
    a, b = by_workload(a_all, False), by_workload(b_all, False)
    problems = []

    print("%-22s %-14s %26s %26s %8s %6s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "change", "bound", "verdict"))
    for workload in sorted(set(a) | set(b)):
        ra, rb = a.get(workload, []), b.get(workload, [])
        if len(ra) < 2 or len(rb) < 2:
            problems.append("%s: need >= 2 runs per side (A %d, B %d)" %
                            (workload, len(ra), len(rb)))
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va, vb = values_of(ra, name), values_of(rb, name)
            if len(va) < 2 or len(vb) < 2:
                problems.append("%s %s: missing values" % (workload, name))
                continue
            ma, qa1, qa3, sa = stats(va)
            mb, qb1, qb3, sb = stats(vb)
            lower = metric["better"] == "lower"
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
            if max(sa, sb) > bound and not all_better:
                verdict = "unresolved (spread %.3f)" % max(sa, sb)
            elif worse > bound:
                verdict = "REGRESSION"
                problems.append("%s %s regressed by %.1f%%" %
                                (workload, name, 100 * worse))
            else:
                verdict = "ok"
            print("%-22s %-14s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g]"
                  " %+7.1f%% %5.0f%%  %s" % (
                      workload, name, ma, qa1, qa3, mb, qb1, qb3,
                      100 * (mb - ma) / ma, 100 * bound, verdict))

    # Per-layer metrics of traced runs: medians only.
    ta, tb = by_workload(a_all, True), by_workload(b_all, True)
    for workload in sorted(set(ta) & set(tb)):
        print("\n%s (traced, per layer)" % workload)
        for metric in spec["per_layer"]:
            va = values_of(ta[workload], metric["name"])
            vb = values_of(tb[workload], metric["name"])
            if va and vb:
                print("  %-38s %14.6g %14.6g %s" % (
                    metric["name"], statistics.median(va),
                    statistics.median(vb), metric["unit"]))

    # Output checks: the same workload and seed must agree across sides.
    checks_a = {(r["workload"], r["seed"], r["quick"]): r["checks"]
                for r in a_all}
    checks_b = {(r["workload"], r["seed"], r["quick"]): r["checks"]
                for r in b_all}
    for key in sorted(set(checks_a) & set(checks_b)):
        if checks_a[key] != checks_b[key]:
            problems.append("%s seed %d: output checks differ: %s vs %s" % (
                key[0], key[1], checks_a[key], checks_b[key]))

    # Failed operations, as a share of those attempted.
    for workload in sorted(set(r["workload"] for r in a_all + b_all)):
        def frac(records):
            runs = [r for r in records if r["workload"] == workload]
            attempted = sum(r["attempted"] for r in runs)
            return sum(r["failed"] for r in runs) / attempted if attempted \
                else 0.0
        fa, fb = frac(a_all), frac(b_all)
        if fb > fa:
            problems.append("%s: failed fraction rose from %g to %g" %
                            (workload, fa, fb))

    for problem in problems:
        print("FAIL: " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
