#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py A.json B.json

A set is the file ``run.py --out SET.json`` appends its runs to.  For
each (workload, end-to-end metric) this prints the median and quartiles
of both sets, B's change against A, and a verdict against the metric's
bound in ``BENCHMARK.json``:

``within bound``  B is neither worse nor better than A by more than the bound
``worse``         B's median is worse than A's by more than the bound
``better``        B's median is better than A's by more than the bound
``unresolved``    a set's quartile spread, as a share of its median, is
                  wider than the bound, and B's runs do not all beat A's

When exactly one set is traced, the change column is the tracing
overhead of each metric.  Exit status 1 when any verdict is ``worse``
or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def summary(values: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def collect(data: Dict) -> Dict[Tuple[str, str], List[float]]:
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in data["runs"]:
        for name, value in (run.get("end_to_end") or {}).items():
            values.setdefault((run["workload"], name), []).append(value)
    return values


def verdict(a: List[float], b: List[float], bound: float, lower_is_better: bool) -> str:
    (a1, am, a3), (b1, bm, b3) = summary(a), summary(b)
    worse = (bm - am) / am if lower_is_better else (am - bm) / am
    beats = max(b) < min(a) if lower_is_better else min(b) > max(a)
    if max((a3 - a1) / am, (b3 - b1) / bm) > bound and not beats:
        return "unresolved"
    if worse > bound:
        return "worse"
    if -worse > bound:
        return "better"
    return "within bound"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [json.loads(Path(path).read_text()) for path in argv]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for label, path, data in zip("AB", argv, sets):
        traced = {run.get("traced") for run in data["runs"]}
        print(f"{label}: {path}: {len(data['runs'])} runs, traced={sorted(traced)}, {json.dumps(data['stamp'])}")
    if sets[0]["stamp"] != sets[1]["stamp"]:
        print("warning: the two sets were taken in different environments")
    overhead = {run.get("traced") for run in sets[0]["runs"]} != {run.get("traced") for run in sets[1]["runs"]}
    change = "overhead" if overhead else "B/A-1"
    a_values, b_values = collect(sets[0]), collect(sets[1])
    print(f"{'workload':16s} {'metric':14s} {'A q1 / median / q3':>32s} {'B q1 / median / q3':>32s} {change:>9s}  verdict")
    status = 0
    for workload in dict.fromkeys(w for w, _ in list(a_values) + list(b_values)):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_values or key not in b_values:
                print(f"{workload:16s} {metric['name']:14s} missing from one set")
                status = 1
                continue
            a, b = a_values[key], b_values[key]
            result = verdict(a, b, metric["bound"], metric["better"] == "lower")
            status |= result in ("worse", "unresolved")
            cells = ["{:.4g} / {:.4g} / {:.4g}".format(*summary(v)) for v in (a, b)]
            delta = summary(b)[1] / summary(a)[1] - 1
            print(f"{workload:16s} {metric['name']:14s} {cells[0]:>32s} {cells[1]:>32s} {delta:+9.3f}  {result}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
