#!/usr/bin/env python
"""Vectorized sampling kernels vs the python reference loops.

Times the BTS-Pair and EWS estimators (their columnar kernels) against
the python reference loops they replaced (``_block_grid`` per sampled
block, ``_ews_python_counts``) on synthetic power-law session graphs,
asserts the fixed-seed estimates are **bit-identical** at every size,
and additionally times BTS block farming on a persistent shared-memory
:class:`~repro.parallel.pool.WorkerPool`.

Modes
-----

``python benchmarks/bench_sampling.py``
    Full before/after run (10^5 and 10^6 edges) writing
    ``BENCH_sampling.json``.

``python benchmarks/bench_sampling.py --smoke --check BENCH_sampling.json``
    CI regression gate: run only the small smoke size and fail (exit
    1) if a measured columnar-vs-python speedup fell below half the
    committed baseline's — the same machine-robust ratio-of-ratios
    check as the columnar/stream/parallel gates.

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

import numpy as np

from repro.baselines.sampling_bts import (
    _block_grid,
    _reduce_block_grids,
    _sample_blocks,
    bts_count_pairs,
)
from repro.baselines.sampling_ews import _ews_python_counts, ews_count
from repro.core.motifs import PAIR_MOTIFS
from repro.core.sampling_kernels import ews_grid
from repro.graph.generators import powerlaw_temporal_graph
from repro.parallel.pool import WorkerPool

DEFAULT_OUT = pathlib.Path(__file__).parent / "BENCH_sampling.json"

#: (edges, nodes) benchmark points.
SIZES = [(100_000, 10_000), (1_000_000, 100_000)]
SMOKE_SIZE = (50_000, 5_000)

DELTA = 43_200.0
GRAPH_SEED = 11
SAMPLE_SEED = 5

#: The paper's configurations: BTS-Pair at q = 0.3, EWS at p = 0.01.
BTS_KWARGS = dict(q=0.3, seed=SAMPLE_SEED, exact_when_full=False)
EWS_KWARGS = dict(p=0.01, q=1.0, seed=SAMPLE_SEED)

#: Gated estimators: each carries a python-vs-columnar speedup.
ESTIMATORS = ("bts", "ews")


def _timed(fn):
    tick = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - tick


def python_bts_pairs(graph, delta: float) -> np.ndarray:
    """BTS-Pair from the python reference: ``_block_grid`` per sampled block."""
    W = 5.0 * max(delta, 1)  # bts_count's default window_factor
    q = BTS_KWARGS["q"]
    blocks = _sample_blocks(graph, W, q, BTS_KWARGS["seed"])
    return _reduce_block_grids(
        [(i, _block_grid(graph, delta, PAIR_MOTIFS, b, W, q)) for i, b in enumerate(blocks)]
    )


def python_ews(graph, delta: float) -> np.ndarray:
    """EWS from the python reference tallies."""
    p, q = EWS_KWARGS["p"], EWS_KWARGS["q"]
    rng = np.random.default_rng(EWS_KWARGS["seed"])
    return ews_grid(*_ews_python_counts(graph, delta, p, q, rng), p, q)


def bench_one(num_edges: int, num_nodes: int, delta: float, pool_workers: int) -> Dict[str, object]:
    """Time kernels, python references and the pool on one synthetic graph."""
    graph = powerlaw_temporal_graph(num_nodes, num_edges, seed=GRAPH_SEED)
    entry: Dict[str, object] = {
        "edges": graph.num_edges,
        "nodes": graph.num_nodes,
        "delta": delta,
    }

    # -- BTS-Pair ------------------------------------------------------
    col, col_s = _timed(lambda: bts_count_pairs(graph, delta, **BTS_KWARGS))
    py, py_s = _timed(lambda: python_bts_pairs(graph, delta))
    if not np.array_equal(col.grid, py):
        raise AssertionError(f"BTS kernel mismatch at {num_edges} edges")
    with WorkerPool(pool_workers, "fork", result_cache=False) as pool:
        # First call publishes the graph + δ table; the second measures
        # the steady-state resident runtime a service would see.
        pooled = bts_count_pairs(
            graph, delta, workers=pool_workers, pool=pool, **BTS_KWARGS
        )
        _, pool_s = _timed(
            lambda: bts_count_pairs(
                graph, delta, workers=pool_workers, pool=pool, **BTS_KWARGS
            )
        )
    if not np.array_equal(pooled.grid, py):
        raise AssertionError(f"BTS pool mismatch at {num_edges} edges")
    entry["bts"] = {
        "python_seconds": py_s,
        "columnar_seconds": col_s,
        "pool_seconds": pool_s,
        "pool_workers": pool_workers,
        "speedup": py_s / max(col_s, 1e-9),
        "estimate_total": float(col.total()),
    }

    # -- EWS -----------------------------------------------------------
    col, col_s = _timed(lambda: ews_count(graph, delta, **EWS_KWARGS))
    py, py_s = _timed(lambda: python_ews(graph, delta))
    if not np.array_equal(col.grid, py):
        raise AssertionError(f"EWS kernel mismatch at {num_edges} edges")
    entry["ews"] = {
        "python_seconds": py_s,
        "columnar_seconds": col_s,
        "speedup": py_s / max(col_s, 1e-9),
        "estimate_total": float(col.total()),
    }
    return entry


def print_entry(entry: Dict[str, object]) -> None:
    for name in ESTIMATORS:
        data = entry[name]
        pool_text = (
            f" | pool[{data['pool_workers']}] {data['pool_seconds']:7.2f}s"
            if "pool_seconds" in data
            else ""
        )
        print(
            f"  {entry['edges']:>10,} edges | {name.upper():4s} | "
            f"python {data['python_seconds']:8.2f}s | "
            f"columnar {data['columnar_seconds']:7.2f}s | "
            f"{data['speedup']:5.1f}x{pool_text}"
        )


def run(sizes, delta: float, out: Optional[pathlib.Path], pool_workers: int) -> List[Dict[str, object]]:
    print(
        f"sampling kernels benchmark (delta={delta:g}, sample seed="
        f"{SAMPLE_SEED}, cpu_count={os.cpu_count()})"
    )
    results = []
    for num_edges, num_nodes in sizes:
        results.append(bench_one(num_edges, num_nodes, delta, pool_workers))
        print_entry(results[-1])
    if out is not None:
        payload = {
            "description": "BTS-Pair + EWS estimators: python loops vs columnar kernels",
            "generator": "powerlaw_temporal_graph",
            "delta": delta,
            "graph_seed": GRAPH_SEED,
            "sample_seed": SAMPLE_SEED,
            "bts_kwargs": {k: v for k, v in BTS_KWARGS.items() if k != "exact_when_full"},
            "ews_kwargs": dict(EWS_KWARGS),
            "cpu_count": os.cpu_count(),
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
        if base is None:
            continue
        for name in ESTIMATORS:
            base_speedup = base.get(name, {}).get("speedup")
            speedup = entry[name]["speedup"]
            if base_speedup is None:
                continue
            compared += 1
            floor = base_speedup / 2.0
            verdict = "ok" if speedup >= floor else "REGRESSED"
            print(
                f"  {entry['edges']:,} edges {name.upper()}: speedup "
                f"{speedup:.2f}x vs baseline {base_speedup:.2f}x "
                f"(floor {floor:.2f}x) -> {verdict}"
            )
            if speedup < floor:
                status = 1
    if compared == 0:
        # A gate that compares nothing is a broken gate, not a pass.
        print(
            f"no baseline entry in {baseline_path} matches the measured "
            "sizes; the regression gate cannot run"
        )
        return 1
    if status:
        print("sampling kernels regressed >2x against the committed baseline")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"run only the {SMOKE_SIZE[0]:,}-edge smoke size",
    )
    parser.add_argument("--delta", type=float, default=DELTA)
    parser.add_argument(
        "--pool-workers", type=int, default=min(4, os.cpu_count() or 1),
        help="workers for the persistent-pool BTS timing",
    )
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

    sizes = [SMOKE_SIZE] if args.smoke else [SMOKE_SIZE] + SIZES
    out = args.out
    if out is None and args.check is None and not args.smoke:
        out = DEFAULT_OUT
    results = run(sizes, args.delta, out, args.pool_workers)
    if args.check is not None:
        return check(results, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
