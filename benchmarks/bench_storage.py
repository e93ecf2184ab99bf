#!/usr/bin/env python
"""Packed-storage benchmark: pack-once-count-many vs parse-per-run.

Measures what the ``.rgz`` format exists for:

* **speedup** — counting from a packed file (``open_packed`` →
  mmap-attached columnar arrays) versus the old cold path of parsing
  the SNAP text edge list and rebuilding the columnar store on every
  run.  Counts are asserted identical between the two paths.
* **peak RSS** — a fresh subprocess counts the largest graph through
  ``source=`` + ``shard_budget`` (the out-of-core shard-halo route)
  and reports ``ru_maxrss``; the full run *requires* that peak to stay
  below the packed file's own size, proving the counting working set
  is the shard budget, not the graph.

Modes
-----

``python benchmarks/bench_storage.py``
    Full run (10^6 and 10^7 edges) writing ``BENCH_storage.json``.
    Fails if the 10^7-edge sharded count's peak RSS reaches the packed
    file size.

``python benchmarks/bench_storage.py --smoke --check BENCH_storage.json``
    CI regression gate: run the small smoke size only and fail (exit
    1) if the packed-vs-parse speedup fell below half the committed
    baseline's — the same ratio-of-ratios check as the other
    benchmarks.

Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.api import count_motifs
from repro.graph.edgelist import load_edgelist, save_edgelist
from repro.graph.temporal_graph import TemporalGraph
from repro.storage import open_packed, pack_graph

DEFAULT_OUT = pathlib.Path(__file__).parent / "BENCH_storage.json"
SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

#: (edges, nodes) benchmark points.
SIZES = [(1_000_000, 100_000), (10_000_000, 1_000_000)]
SMOKE_SIZE = (200_000, 20_000)

#: The size whose sharded count must fit below its own file size.
RSS_CRITERION_EDGES = 10_000_000

DELTA = 400.0
SEED = 31
#: Time span per edge; with DELTA this sets ~20 edges per δ-window.
SPAN_PER_EDGE = 20
#: "Count many": packed-path runs per size (each a fresh open).
COUNT_RUNS = 3
SHARD_BUDGET = 500_000


def make_graph(num_edges: int, num_nodes: int, seed: int) -> TemporalGraph:
    """Synthetic canonical-array graph (no Python-loop construction)."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, SPAN_PER_EDGE * num_edges, num_edges))
    src = rng.integers(0, num_nodes, num_edges)
    dst = (src + rng.integers(1, num_nodes, num_edges)) % num_nodes
    return TemporalGraph.from_canonical_arrays(src, dst, t, num_nodes=num_nodes)


def measure_sharded_rss(path: str, delta: float, budget: int) -> Dict[str, int]:
    """Peak RSS of a fresh process counting ``path`` shard by shard.

    The child reads ``VmHWM`` from ``/proc/self/status``: ``ru_maxrss``
    is inherited across ``fork`` and *not* reset by ``execve``, so under
    ``subprocess`` it would report this (large) parent's peak instead of
    the child's own high-water mark.  Non-Linux falls back to
    ``ru_maxrss`` — only meaningful when the launcher itself is small.
    """
    code = (
        "import resource, sys\n"
        "from repro.core.api import count_motifs\n"
        f"result = count_motifs(None, {delta!r}, source={path!r}, "
        f"shard_budget={budget})\n"
        "try:\n"
        "    with open('/proc/self/status') as fh:\n"
        "        rss_kb = next(int(line.split()[1]) for line in fh\n"
        "                      if line.startswith('VmHWM'))\n"
        "except (OSError, StopIteration):\n"
        "    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(int(result.total()), result.meta['shards'], rss_kb * 1024)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    total, shards, rss = proc.stdout.split()
    return {"total": int(total), "shards": int(shards), "peak_rss_bytes": int(rss)}


def bench_one(num_edges: int, num_nodes: int, delta: float,
              workdir: pathlib.Path) -> Dict[str, object]:
    graph = make_graph(num_edges, num_nodes, SEED)
    text_path = str(workdir / f"g{num_edges}.txt")
    rgz_path = str(workdir / f"g{num_edges}.rgz")
    save_edgelist(graph, text_path)

    entry: Dict[str, object] = {
        "edges": graph.num_edges,
        "nodes": graph.num_nodes,
        "delta": delta,
    }

    # -- pack once ------------------------------------------------------
    tick = time.perf_counter()
    pack_graph(graph, rgz_path, layout="full")
    entry["pack_seconds"] = time.perf_counter() - tick
    entry["file_bytes"] = os.path.getsize(rgz_path)
    del graph

    # -- parse-per-run cold path ---------------------------------------
    tick = time.perf_counter()
    parsed = load_edgelist(text_path)
    reference = count_motifs(parsed, delta)
    entry["parse_run_seconds"] = time.perf_counter() - tick
    del parsed

    # -- pack-once-count-many ------------------------------------------
    packed_seconds = 0.0
    for _ in range(COUNT_RUNS):
        tick = time.perf_counter()
        with open_packed(rgz_path) as packed:
            result = count_motifs(packed.graph, delta)
        packed_seconds += time.perf_counter() - tick
        if not result.same_counts(reference):
            raise AssertionError(
                f"packed count diverged at {num_edges} edges: "
                f"{result.total()} vs {reference.total()}"
            )
    entry["counts_equal"] = True
    entry["count_runs"] = COUNT_RUNS
    entry["packed_run_seconds"] = packed_seconds / COUNT_RUNS
    entry["speedup"] = entry["parse_run_seconds"] / max(
        entry["packed_run_seconds"], 1e-9
    )

    # -- out-of-core shard-halo RSS ------------------------------------
    rss = measure_sharded_rss(rgz_path, delta, SHARD_BUDGET)
    if rss["total"] != int(reference.total()):
        raise AssertionError(
            f"sharded count diverged at {num_edges} edges: "
            f"{rss['total']} vs {int(reference.total())}"
        )
    entry["shard_budget"] = SHARD_BUDGET
    entry["shards"] = rss["shards"]
    entry["peak_rss_bytes"] = rss["peak_rss_bytes"]
    entry["rss_below_file"] = rss["peak_rss_bytes"] < entry["file_bytes"]

    os.unlink(text_path)
    os.unlink(rgz_path)
    return entry


def print_entry(entry: Dict[str, object]) -> None:
    print(
        f"  {entry['edges']:>10,} edges | pack {entry['pack_seconds']:7.2f}s "
        f"({entry['file_bytes'] / 1e6:8.1f} MB) | parse-run "
        f"{entry['parse_run_seconds']:7.2f}s | packed-run "
        f"{entry['packed_run_seconds']:7.2f}s | {entry['speedup']:6.1f}x | "
        f"sharded RSS {entry['peak_rss_bytes'] / 1e6:7.1f} MB "
        f"({'<' if entry['rss_below_file'] else '>='} file, "
        f"{entry['shards']} shards)"
    )


def run(sizes, delta: float, out: Optional[pathlib.Path]) -> List[Dict[str, object]]:
    print(
        f"packed storage benchmark (delta={delta:g}, seed={SEED}, "
        f"{COUNT_RUNS} packed runs/size, shard budget {SHARD_BUDGET:,})"
    )
    results = []
    with tempfile.TemporaryDirectory(prefix="bench-storage-") as workdir:
        for num_edges, num_nodes in sizes:
            results.append(bench_one(num_edges, num_nodes, delta, pathlib.Path(workdir)))
            print_entry(results[-1])
    for entry in results:
        if entry["edges"] >= RSS_CRITERION_EDGES and not entry["rss_below_file"]:
            raise AssertionError(
                f"sharded peak RSS {entry['peak_rss_bytes']:,} B reached the "
                f"packed file size {entry['file_bytes']:,} B at "
                f"{entry['edges']:,} edges — out-of-core contract broken"
            )
    if out is not None:
        payload = {
            "description": "packed mmap storage: pack-once-count-many vs text parse per run",
            "generator": "uniform canonical arrays",
            "delta": delta,
            "seed": SEED,
            "count_runs": COUNT_RUNS,
            "shard_budget": SHARD_BUDGET,
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
        if base is None or base.get("speedup") is None:
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
        print(
            f"no baseline entry in {baseline_path} matches the measured "
            "sizes; the regression gate cannot run"
        )
        return 1
    if status:
        print("packed storage regressed >2x against the committed baseline")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"run only the {SMOKE_SIZE[0]:,}-edge smoke size",
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

    sizes = [SMOKE_SIZE] if args.smoke else [SMOKE_SIZE] + SIZES
    out = args.out
    if out is None and args.check is None and not args.smoke:
        out = DEFAULT_OUT
    results = run(sizes, args.delta, out)
    if args.check is not None:
        return check(results, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
