"""Compare two sets written by ``run.py --out``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians and quartiles
over each set's runs, the change from A to B (positive = worse), the
metric's bound from ``BENCHMARK.json`` and a verdict:

``better``      every run of B reads better than every run of A, or B's
                median is better by more than either set's quartile distance
``same``        B's median is within the bound and the spread resolves it
``worse``       B's median is worse than A's by more than the bound
``unresolved``  a set's quartile distance is wider than the bound and
                the two sets' runs overlap: the data cannot say

Exit status is non-zero on any ``worse`` row or when B failed a larger
share of its requests than A.  Comparing two sets of one commit is the
ledger's own acceptance check: it must print no ``worse`` and no
``unresolved`` row.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from typing import Any

from stats import quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_set(path: str) -> tuple[dict, dict]:
    """``({(workload, metric): [values]}, {workload: [failed, attempted]})``
    over the untraced runs of one set."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    failures: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for run in runs:
        if run["trace"]:
            continue
        failures[run["workload"]][0] += run["failed"]
        failures[run["workload"]][1] += run["attempted"]
        for metric, value in run["metrics"].items():
            values[run["workload"], metric].append(value)
    return values, failures


def verdict(a: list[float], b: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, float, float]:
    """``(verdict, change, spread)``; change and spread are shares of
    A's median, change positive when B is worse."""
    sign = 1.0 if lower_is_better else -1.0
    a1, a2, a3 = quartiles(a)
    b1, b2, b3 = quartiles(b)
    change = sign * (b2 - a2) / a2
    spread = max((a3 - a1) / a2, (b3 - b1) / b2)
    if max(sign * v for v in b) < min(sign * v for v in a):
        return "better", change, spread
    overlap = (min(sign * v for v in b) <= max(sign * v for v in a))
    if spread > bound and overlap:
        return "unresolved", change, spread
    if change > bound:
        return "worse", change, spread
    if -change > spread:
        return "better", change, spread
    return "same", change, spread


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared: list[dict[str, Any]] = json.load(handle)["end_to_end"]
    values_a, failures_a = load_set(argv[1])
    values_b, failures_b = load_set(argv[2])
    bad = False
    print(f"{'workload':14} {'metric':12} {'A q1/med/q3':>30} "
          f"{'B q1/med/q3':>30} {'change':>8} {'spread':>7} {'bound':>6} "
          f"verdict")
    for workload in sorted({key[0] for key in values_a}):
        for metric in declared:
            key = (workload, metric["name"])
            if key not in values_a or key not in values_b:
                print(f"{workload:14} {metric['name']:12} missing from "
                      f"{'A' if key not in values_a else 'B'}")
                bad = True
                continue
            word, change, spread = verdict(
                values_a[key], values_b[key], metric["bound"],
                metric["better"] == "lower")
            bad |= word == "worse"
            cells = ["/".join(f"{q:.5g}" for q in quartiles(v))
                     for v in (values_a[key], values_b[key])]
            print(f"{workload:14} {metric['name']:12} {cells[0]:>30} "
                  f"{cells[1]:>30} {change:>+8.1%} {spread:>7.1%} "
                  f"{metric['bound']:>6.0%} {word}")
        fail_a = failures_a[workload][0] / max(failures_a[workload][1], 1)
        fail_b = failures_b[workload][0] / max(failures_b[workload][1], 1)
        if fail_b > fail_a:
            print(f"{workload:14} fail_frac rose {fail_a:.4g} -> {fail_b:.4g}")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
