#!/usr/bin/env python
"""Aggregate every committed ``benchmarks/BENCH_*.json`` into one table.

Each benchmark writes its own baseline JSON and guards itself with a
``--smoke --check`` gate, but nothing showed the *trajectory* — how
the headline speedups of every subsystem stand next to each other
across PRs.  This tool prints exactly that: one row per (benchmark,
graph size, metric), so a perf regression anywhere in the committed
baselines is visible at a glance in CI logs and PR reviews.

The walker is schema-tolerant: any ``speedup`` / ``speedup_*`` value
in a result entry (top level or one nesting level down, e.g. the
per-estimator blocks of ``BENCH_sampling.json``) becomes a row, so new
benchmarks join the table by just writing their JSON.  A
``speedup_<name>`` row whose entry also records ``<name>_workers``
names its worker count, e.g. ``pool[2]`` for the ``workers=2`` pool
route of ``BENCH_columnar.json``.  The recording
machine's core count is printed beside each row when the file has it:
an entry's ``cores``, else the file's top-level ``cpu_count``.

Usage::

    python tools/bench_report.py [--dir benchmarks]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Iterator, List, Optional, Tuple


def iter_speedups(entry: dict, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Yield (metric label, value) for every speedup key in an entry."""
    for key, value in sorted(entry.items()):
        if isinstance(value, dict):
            yield from iter_speedups(value, prefix + key + ".")
        elif key == "speedup" or key.startswith("speedup_"):
            if value is None:
                continue
            try:
                speedup = float(value)
            except (TypeError, ValueError):
                continue
            label = prefix + key
            if label.endswith(".speedup"):
                label = label[: -len(".speedup")]
            elif label == "speedup":
                label = "overall"
            else:
                label = label.replace("speedup_", "")
                workers = entry.get(key[len("speedup_"):] + "_workers")
                if isinstance(workers, int):
                    label += f"[{workers}]"
            yield label, speedup


#: (benchmark, description, edges, cores or None, metric, speedup).
Row = Tuple[str, str, int, Optional[int], str, float]


def collect(bench_dir: pathlib.Path) -> List[Row]:
    """(benchmark, description, edges, cores, metric, speedup) rows, sorted."""
    rows: List[Row] = []
    if not bench_dir.is_dir():
        print(f"warning: no benchmark directory at {bench_dir}", file=sys.stderr)
        return rows
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: skipping {path.name}: {exc}", file=sys.stderr)
            continue
        if not isinstance(payload, dict):
            print(
                f"warning: skipping {path.name}: top level is "
                f"{type(payload).__name__}, expected object",
                file=sys.stderr,
            )
            continue
        name = path.stem[len("BENCH_"):]
        description = str(payload.get("description", ""))
        results = payload.get("results", [])
        if not isinstance(results, list):
            print(
                f"warning: skipping {path.name}: 'results' is not a list",
                file=sys.stderr,
            )
            continue
        for entry in results:
            if not isinstance(entry, dict):
                continue
            try:
                edges = int(entry.get("edges", 0))
            except (TypeError, ValueError):
                edges = 0
            cores = entry.get("cores", payload.get("cpu_count"))
            if not isinstance(cores, int):
                cores = None
            for metric, value in iter_speedups(entry):
                rows.append((name, description, edges, cores, metric, value))
    return rows


def render(rows: List[Row]) -> str:
    lines = ["benchmark speedup trajectory (committed baselines)", ""]
    header = (
        f"{'benchmark':<12} {'edges':>12} {'cores':>5} {'metric':<18} {'speedup':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    last_name = None
    for name, description, edges, cores, metric, value in rows:
        if name != last_name:
            if last_name is not None:
                lines.append("")
            lines.append(f"[{name}] {description}")
            last_name = name
        cores_text = "-" if cores is None else str(cores)
        lines.append(
            f"{name:<12} {edges:>12,} {cores_text:>5} {metric:<18} {value:>8.2f}x"
        )
    if last_name is None:
        lines.append("(no BENCH_*.json baselines found)")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dir", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent / "benchmarks",
        help="directory holding the BENCH_*.json baselines",
    )
    args = parser.parse_args(argv)
    rows = collect(args.dir)
    print(render(rows))
    # Informational: each benchmark's own --smoke --check gate is the
    # pass/fail authority; an empty table still flags loudly above.
    return 0


if __name__ == "__main__":
    sys.exit(main())
