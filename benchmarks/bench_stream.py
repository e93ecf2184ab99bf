#!/usr/bin/env python
"""Streaming engine benchmark: checkpoint throughput vs naive recount.

Replays a synthetic power-law session graph
(:func:`repro.graph.generators.powerlaw_temporal_graph`) in time order
through the incremental :class:`~repro.core.streaming.StreamingMotifEngine`
with a sliding window, and compares against the *naive* streaming
strategy — rebuilding and batch-recounting the live window at every
checkpoint — which is what the batch stack forced before ISSUE 3.

Counts are asserted **identical** between the two strategies at every
sampled checkpoint; the naive total is estimated from a uniform sample
of checkpoints (recounting a 10^6-edge replay at all of them would
take hours, which is rather the point).

Modes
-----

``python benchmarks/bench_stream.py``
    Full run (10^5 and 10^6 edges) writing ``BENCH_stream.json``.

``python benchmarks/bench_stream.py --smoke --check BENCH_stream.json``
    CI regression gate: run the small smoke size only and fail (exit
    1) if the streaming-vs-naive speedup fell below half the committed
    baseline's — the same machine-robust ratio-of-ratios check as
    ``bench_columnar.py``.

Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import pathlib
import sys
import time
from typing import Dict, List, Optional

from repro.core.api import count_motifs
from repro.core.registry import StreamRequest, open_stream
from repro.graph.generators import powerlaw_temporal_graph
from repro.graph.temporal_graph import TemporalGraph

DEFAULT_OUT = pathlib.Path(__file__).parent / "BENCH_stream.json"

#: (edges, nodes) benchmark points.
SIZES = [(100_000, 10_000), (1_000_000, 100_000)]
SMOKE_SIZE = (50_000, 5_000)

DELTA = 3600.0
SEED = 23
#: Sliding window as a fraction of the replay's time span.
WINDOW_FRACTION = 0.2
#: Checkpoints per replay (checkpoint_every = edges / CHECKPOINTS).
CHECKPOINTS = 100
#: Naive recounts actually timed (uniform sample; the rest estimated).
NAIVE_SAMPLES = 8


def bench_one(num_edges: int, num_nodes: int, delta: float) -> Dict[str, object]:
    """Replay one synthetic graph; verify equality, measure speedup."""
    graph = powerlaw_temporal_graph(num_nodes, num_edges, seed=SEED)
    edges = list(graph.internal_edges())
    times = [t for _, _, t in edges]
    span = times[-1] - times[0]
    window = span * WINDOW_FRACTION
    checkpoint_every = max(num_edges // CHECKPOINTS, 1)

    entry: Dict[str, object] = {
        "edges": graph.num_edges,
        "nodes": graph.num_nodes,
        "delta": delta,
        "window": window,
        "checkpoint_every": checkpoint_every,
    }

    # -- incremental streaming replay ----------------------------------
    engine = open_stream(
        StreamRequest(delta=delta, window=window, checkpoint_every=checkpoint_every)
    )
    snapshots: List[Dict[str, object]] = []
    tick = time.perf_counter()
    for cp in engine.replay(edges):
        snapshots.append(
            {
                "edges_seen": cp.edges_seen,
                "edges_live": cp.edges_live,
                "t_latest": cp.t_latest,
                "per_motif": cp.counts.per_motif(),
            }
        )
    stream_seconds = time.perf_counter() - tick
    entry["checkpoints"] = len(snapshots)
    entry["stream_seconds"] = stream_seconds
    entry["edges_per_second"] = num_edges / max(stream_seconds, 1e-9)

    # -- naive strategy: full live-window recount per checkpoint -------
    # Timed on a uniform checkpoint sample and scaled; counts at the
    # sampled checkpoints must match the streaming grids exactly.
    stride = max(len(snapshots) // NAIVE_SAMPLES, 1)
    sampled = snapshots[stride - 1 :: stride]
    naive_sampled_seconds = 0.0
    for snap in sampled:
        processed = snap["edges_seen"]
        cutoff = snap["t_latest"] - window
        lo = bisect.bisect_left(times, cutoff, 0, processed)
        tick = time.perf_counter()
        live_graph = TemporalGraph(edges[lo:processed])
        naive = count_motifs(live_graph, delta)
        naive_sampled_seconds += time.perf_counter() - tick
        if naive.per_motif() != snap["per_motif"]:
            raise AssertionError(
                f"streaming != naive recount at edges_seen={processed}: "
                f"{sum(snap['per_motif'].values())} vs {naive.total()}"
            )
    entry["counts_equal"] = True
    entry["naive_sampled_checkpoints"] = len(sampled)
    entry["naive_seconds_estimated"] = (
        naive_sampled_seconds / len(sampled) * len(snapshots)
    )
    entry["speedup"] = entry["naive_seconds_estimated"] / max(stream_seconds, 1e-9)
    return entry


def print_entry(entry: Dict[str, object]) -> None:
    print(
        f"  {entry['edges']:>10,} edges | stream {entry['stream_seconds']:8.2f}s "
        f"({entry['edges_per_second']:>10,.0f} edges/s) | naive est "
        f"{entry['naive_seconds_estimated']:8.2f}s | {entry['speedup']:5.1f}x | "
        f"{entry['checkpoints']} checkpoints"
    )


def run(sizes, delta: float, out: Optional[pathlib.Path]) -> List[Dict[str, object]]:
    print(
        f"streaming engine benchmark (delta={delta:g}, window="
        f"{WINDOW_FRACTION:.0%} of span, seed={SEED})"
    )
    results = []
    for num_edges, num_nodes in sizes:
        results.append(bench_one(num_edges, num_nodes, delta))
        print_entry(results[-1])
    if out is not None:
        payload = {
            "description": "incremental streaming vs naive per-checkpoint recount",
            "generator": "powerlaw_temporal_graph",
            "delta": delta,
            "window_fraction": WINDOW_FRACTION,
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
        print("streaming engine regressed >2x against the committed baseline")
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
