#!/usr/bin/env python
"""Columnar FAST kernels vs the python reference loops.

Times the ``fast`` algorithm (its columnar kernels) against the
paper's Algorithms 1 and 2 as python loops
(:func:`repro.core.fast_star.count_star_pair`,
:func:`repro.core.fast_tri.count_triangle`) on synthetic power-law
session graphs (:func:`repro.graph.generators.powerlaw_temporal_graph`)
and asserts both return **identical** exact counts at every size.

Modes
-----

``python benchmarks/bench_columnar.py``
    Full before/after run (default sizes 10^5 and 10^6 edges; add
    ``--full`` for the 10^7-edge columnar-only point, where the python
    loops are impractical) and write ``BENCH_columnar.json``.

``python benchmarks/bench_columnar.py --smoke --check BENCH_columnar.json``
    CI regression gate: run only the small smoke size and fail (exit
    1) if the measured columnar-vs-python speedup fell below half the
    committed baseline's — a machine-robust ratio-of-ratios check that
    catches kernel regressions without depending on absolute CI box
    speed.

Both sides count serially.  Beside them, each size also times one
``workers=2`` count on a persistent pool (``pool_seconds``: publish,
plan and every HARE batch, pool start excluded) and fails unless its
counts equal the serial ones.  The power-law graph is the one input
whose hubs are split into piece batches, so the ``--smoke --check``
gate is also the check that piece batches stay bit-identical, under
whichever start method ``REPRO_START_METHOD`` picks.  Every result
records the core count of the machine it ran on (``cores``, from
``os.cpu_count()``).

Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from typing import Dict, List, Optional

from repro.core.api import count_motifs
from repro.core.counters import MotifCounts
from repro.core.fast_star import count_star_pair
from repro.core.fast_tri import count_triangle
from repro.graph.generators import powerlaw_temporal_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.pool import WorkerPool

DEFAULT_OUT = pathlib.Path(__file__).parent / "BENCH_columnar.json"

#: (edges, nodes) benchmark points; the python loops run where feasible.
SIZES = [(100_000, 10_000), (1_000_000, 100_000)]
FULL_SIZES = SIZES + [(10_000_000, 1_000_000)]
SMOKE_SIZE = (50_000, 5_000)

#: Largest size the python loops are asked to run (beyond this only
#: the columnar kernels are timed; there is no "before" to compare).
PYTHON_CAP = 1_000_000

DELTA = 43_200.0
SEED = 11

#: Worker count of the pool-route timing.
POOL_WORKERS = 2


def bench_one(
    num_edges: int, num_nodes: int, delta: float, pool: WorkerPool
) -> Dict[str, object]:
    """Time kernels, the pool route and loops on one graph; verify identical counts."""
    graph = powerlaw_temporal_graph(num_nodes, num_edges, seed=SEED)
    entry: Dict[str, object] = {
        "edges": graph.num_edges,
        "nodes": graph.num_nodes,
        "delta": delta,
        "cores": os.cpu_count(),
    }

    tick = time.perf_counter()
    columnar = count_motifs(graph, delta)
    entry["columnar_seconds"] = time.perf_counter() - tick
    entry["columnar_phases"] = dict(columnar.phase_seconds)
    entry["total_motifs"] = columnar.total()

    # A fresh graph object, so the pool publishes, plans and attaches
    # it inside the timing, as any first count of a graph does.
    fresh = TemporalGraph.from_canonical_arrays(
        graph.sources, graph.destinations, graph.timestamps, num_nodes=graph.num_nodes
    )
    tick = time.perf_counter()
    pooled = count_motifs(fresh, delta, workers=POOL_WORKERS, pool=pool)
    entry["pool_seconds"] = time.perf_counter() - tick
    entry["pool_workers"] = POOL_WORKERS
    entry["speedup_pool"] = entry["columnar_seconds"] / max(entry["pool_seconds"], 1e-9)
    if not pooled.same_counts(columnar):
        raise AssertionError(
            f"pool mismatch at {num_edges} edges: workers={POOL_WORKERS} total "
            f"{pooled.total()} vs serial {columnar.total()}"
        )

    if num_edges <= PYTHON_CAP:
        tick = time.perf_counter()
        star, pair = count_star_pair(graph, delta)
        star_pair_seconds = time.perf_counter() - tick
        triangle = count_triangle(graph, delta)
        entry["python_seconds"] = time.perf_counter() - tick
        entry["python_phases"] = {
            "star_pair": star_pair_seconds,
            "triangle": entry["python_seconds"] - star_pair_seconds,
        }
        python = MotifCounts.from_counters(star, pair, triangle)
        entry["counts_equal"] = bool(python == columnar)
        entry["speedup"] = entry["python_seconds"] / max(
            entry["columnar_seconds"], 1e-9
        )
        if not entry["counts_equal"]:
            raise AssertionError(
                f"kernel mismatch at {num_edges} edges: "
                f"python total {python.total()} vs columnar {columnar.total()}"
            )
    else:
        entry["python_seconds"] = None
        entry["speedup"] = None
    return entry


def print_entry(entry: Dict[str, object]) -> None:
    py = entry["python_seconds"]
    py_text = f"{py:8.2f}s" if py is not None else "   (skipped)"
    speedup = entry["speedup"]
    speed_text = f"{speedup:5.1f}x" if speedup is not None else "     -"
    print(
        f"  {entry['edges']:>10,} edges | python {py_text} | "
        f"columnar {entry['columnar_seconds']:8.2f}s | {speed_text} | "
        f"workers={entry['pool_workers']} {entry['pool_seconds']:8.2f}s | "
        f"{entry['total_motifs']:,} motifs"
    )


def run(sizes, delta: float, out: Optional[pathlib.Path]) -> List[Dict[str, object]]:
    print(f"columnar FAST kernels vs python loops (delta={delta:g}, seed={SEED})")
    results = []
    with WorkerPool(POOL_WORKERS, result_cache=False) as pool:
        # Start the workers outside every timing.
        count_motifs(powerlaw_temporal_graph(50, 200, seed=SEED), delta, pool=pool)
        for num_edges, num_nodes in sizes:
            results.append(bench_one(num_edges, num_nodes, delta, pool))
            print_entry(results[-1])
    if out is not None:
        payload = {
            "description": "fast algorithm: python loops vs columnar kernels",
            "generator": "powerlaw_temporal_graph",
            "delta": delta,
            "seed": SEED,
            "results": results,
        }
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"written to {out}")
    return results


def check(results: List[Dict[str, object]], baseline_path: pathlib.Path) -> int:
    """Ratio-of-ratios regression gate against the committed baseline."""
    baseline = json.loads(baseline_path.read_text())
    by_edges = {entry["edges"]: entry for entry in baseline["results"]}
    status = 0
    compared = 0
    for entry in results:
        base = by_edges.get(entry["edges"])
        if base is None or base.get("speedup") is None or entry["speedup"] is None:
            continue
        compared += 1
        floor = base["speedup"] / 2.0
        verdict = "ok" if entry["speedup"] >= floor else "REGRESSED"
        print(
            f"  {entry['edges']:,} edges: speedup {entry['speedup']:.2f}x vs "
            f"baseline {base['speedup']:.2f}x (floor {floor:.2f}x) -> {verdict}"
        )
        if entry["speedup"] < floor:
            status = 1
    if compared == 0:
        # A gate that compares nothing is a broken gate, not a pass.
        print(
            f"no baseline entry in {baseline_path} matches the measured "
            "sizes; the regression gate cannot run"
        )
        return 1
    if status:
        print("columnar kernels regressed >2x against the committed baseline")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"run only the {SMOKE_SIZE[0]:,}-edge smoke size",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="also run the 10^7-edge columnar-only point",
    )
    parser.add_argument("--delta", type=float, default=DELTA)
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help=f"write results JSON here (default {DEFAULT_OUT.name}; "
             "omitted in --check runs unless given explicitly)",
    )
    parser.add_argument(
        "--check", type=pathlib.Path, default=None, metavar="BASELINE",
        help="compare speedups against a committed baseline JSON; exit 1 "
             "on a >2x regression",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        sizes = [SMOKE_SIZE]
    elif args.full:
        sizes = [SMOKE_SIZE] + FULL_SIZES
    else:
        # The smoke size is always included so the committed baseline
        # carries the reference point --check compares against.
        sizes = [SMOKE_SIZE] + SIZES
    out = args.out
    if out is None and args.check is None and not args.smoke:
        # Only full runs refresh the committed baseline by default; a
        # smoke run writing it would clobber the 10^5/10^6-edge entries
        # the acceptance record and CI gate rest on.
        out = DEFAULT_OUT
    results = run(sizes, args.delta, out)
    if args.check is not None:
        return check(results, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
