#!/usr/bin/env python
"""Serving-layer benchmark: daemon request replay, cold vs warm cache.

The ``repro serve`` workload: a resident daemon holding a published
graph, clients replaying counting requests over the unix socket.  The
first pass over a mixed-δ request list is *cold* — every request runs
a real pool execution (publish and δ-table export already amortized by
a warm-up request).  Repeat passes are *warm*: identical requests are
answered at admission from the
:class:`~repro.serve.service.MotifService` answer table, without
reaching the dispatcher or the pool.  Every
served answer is checked byte-identical (canonical answer bytes) to a
direct in-process :func:`~repro.core.api.count_motifs` call.

Measured per graph size:

``requests_per_sec_cold``
    Throughput of the first (cache-cold) pass over the unique-δ
    request list, including wire and codec overhead.
``requests_per_sec_warm``
    Throughput of repeated identical passes (cache-warm).
``speedup_warm``
    ``warm / cold`` throughput ratio — the steady-state win of the
    resident service for repeated traffic.
``burst_clients`` / ``burst_executions``
    A burst of concurrent identical requests from separate client
    threads, and how many pool executions the admission layer actually
    ran for them (duplicate coalescing; 1 is perfect).

Modes
-----

``python benchmarks/bench_serve.py``
    Full run writing ``BENCH_serve.json``.

``python benchmarks/bench_serve.py --smoke --check BENCH_serve.json``
    CI regression gate: run the smoke size only and fail (exit 1) if
    the warm/cold speedup fell below half the committed baseline's
    (ratio-of-ratios, machine-robust) or any served answer differs
    from the direct count.

Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.core.api import count_motifs
from repro.graph.generators import powerlaw_temporal_graph
from repro.serve import MotifService, ServeClient, ServeDaemon, ServiceConfig
from repro.serve.protocol import canonical_counts_bytes

DEFAULT_OUT = pathlib.Path(__file__).parent / "BENCH_serve.json"

#: (edges, nodes) benchmark points.
SIZES = [(100_000, 10_000), (300_000, 30_000)]
SMOKE_SIZE = (20_000, 2_000)

SEED = 31
WORKERS = 4
#: δ multipliers over a base window; each unique δ is one cold request.
DELTA_STEPS = 8
BASE_DELTA = 900.0
#: Warm passes over the identical request list.
WARM_PASSES = 3
#: Concurrent duplicate clients in the coalescing burst.
BURST_CLIENTS = 6


@contextmanager
def serving(graph, workers: int):
    """A daemon on a fresh unix socket around ``graph`` ("bench")."""
    service = MotifService(
        ServiceConfig(workers=workers, batch_window=0.002, max_pending=256)
    )
    service.add_graph("bench", graph)
    tmpdir = tempfile.mkdtemp(prefix="reproserve-bench", dir="/tmp")
    socket_path = os.path.join(tmpdir, "serve.sock")
    daemon = ServeDaemon(service, socket_path=socket_path)
    ready = threading.Event()
    holder: Dict[str, object] = {}

    def run_loop() -> None:
        loop = asyncio.new_event_loop()
        holder["loop"] = loop
        asyncio.set_event_loop(loop)
        loop.run_until_complete(daemon.start())
        ready.set()
        loop.run_forever()

    thread = threading.Thread(target=run_loop, daemon=True, name="serve-bench-loop")
    thread.start()
    if not ready.wait(30):
        raise RuntimeError("serve daemon failed to start")
    try:
        yield service, socket_path
    finally:
        loop = holder["loop"]
        asyncio.run_coroutine_threadsafe(daemon.stop(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30)
        loop.close()
        service.close()
        try:
            os.unlink(socket_path)
        except FileNotFoundError:
            pass
        os.rmdir(tmpdir)


def bench_one(num_edges: int, num_nodes: int) -> Dict[str, object]:
    """Measure one graph size; verify every served answer."""
    graph = powerlaw_temporal_graph(num_nodes, num_edges, seed=SEED)
    deltas = [BASE_DELTA * (i + 1) for i in range(DELTA_STEPS)]
    entry: Dict[str, object] = {
        "edges": graph.num_edges,
        "nodes": graph.num_nodes,
        "deltas": deltas,
        "workers": WORKERS,
        "warm_passes": WARM_PASSES,
    }
    direct = {
        d: canonical_counts_bytes(count_motifs(graph, d, algorithm="fast"))
        for d in deltas
    }

    with serving(graph, WORKERS) as (service, socket_path):
        with ServeClient(socket_path, timeout=600.0) as client:
            # Warm-up: publish + attach + plan, off the books.
            client.count("bench", deltas[0])

            tick = time.perf_counter()
            for d in deltas:
                counts = client.count("bench", d)
                if canonical_counts_bytes(counts) != direct[d]:
                    raise AssertionError(f"served answer diverged at delta={d}")
            cold_seconds = time.perf_counter() - tick
            entry["cold_pass_seconds"] = cold_seconds
            entry["requests_per_sec_cold"] = len(deltas) / cold_seconds

            tick = time.perf_counter()
            for _ in range(WARM_PASSES):
                for d in deltas:
                    counts = client.count("bench", d)
                    if canonical_counts_bytes(counts) != direct[d]:
                        raise AssertionError(
                            f"warm served answer diverged at delta={d}"
                        )
            warm_seconds = time.perf_counter() - tick
            entry["warm_pass_seconds"] = warm_seconds / WARM_PASSES
            entry["requests_per_sec_warm"] = (
                WARM_PASSES * len(deltas) / warm_seconds
            )

        entry["speedup_warm"] = (
            entry["requests_per_sec_warm"]
            / max(entry["requests_per_sec_cold"], 1e-9)
        )
        entry["pool_cache_hits"] = service.pool.stats["cache_hits"]
        entry["answer_hits"] = service.stats["answer_hits"]

        # -- duplicate-coalescing burst --------------------------------
        burst_delta = BASE_DELTA * (DELTA_STEPS + 3)  # never requested above
        executions_before = service.stats["executions"]
        errors: List[BaseException] = []
        matched: List[bool] = []
        reference = canonical_counts_bytes(
            count_motifs(graph, burst_delta, algorithm="fast")
        )
        barrier = threading.Barrier(BURST_CLIENTS)

        def hit() -> None:
            try:
                with ServeClient(socket_path, timeout=600.0) as burst_client:
                    barrier.wait(timeout=60)
                    counts = burst_client.count("bench", burst_delta)
                    matched.append(canonical_counts_bytes(counts) == reference)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=hit) for _ in range(BURST_CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=600)
        if errors:
            raise AssertionError(f"burst client failed: {errors[0]!r}")
        if not all(matched) or len(matched) != BURST_CLIENTS:
            raise AssertionError("burst answers diverged from the direct count")
        entry["burst_clients"] = BURST_CLIENTS
        entry["burst_executions"] = service.stats["executions"] - executions_before
        entry["coalesced_total"] = service.stats["coalesced"]
    return entry


def print_entry(entry: Dict[str, object]) -> None:
    print(
        f"  {entry['edges']:>9,} edges | cold {entry['requests_per_sec_cold']:8.2f} req/s"
        f" | warm {entry['requests_per_sec_warm']:9.1f} req/s"
        f" ({entry['speedup_warm']:6.1f}x)"
        f" | burst {entry['burst_clients']} clients ->"
        f" {entry['burst_executions']} execution(s)"
    )


def run(sizes, out: Optional[pathlib.Path]) -> List[Dict[str, object]]:
    print(
        f"serve benchmark (workers={WORKERS}, deltas={DELTA_STEPS}, "
        f"seed={SEED}, cpus={os.cpu_count()})"
    )
    results = []
    for num_edges, num_nodes in sizes:
        results.append(bench_one(num_edges, num_nodes))
        print_entry(results[-1])
    if out is not None:
        payload = {
            "description": (
                "repro serve daemon replay: cold vs warm (result-cache) "
                "request throughput over the unix socket"
            ),
            "generator": "powerlaw_temporal_graph",
            "workers": WORKERS,
            "delta_steps": DELTA_STEPS,
            "base_delta": BASE_DELTA,
            "seed": SEED,
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
        if base is None or base.get("speedup_warm") is None:
            continue
        compared += 1
        floor = base["speedup_warm"] / 2.0
        verdict = "ok" if entry["speedup_warm"] >= floor else "REGRESSED"
        print(
            f"  {entry['edges']:,} edges: warm speedup {entry['speedup_warm']:.1f}x vs "
            f"baseline {base['speedup_warm']:.1f}x (floor {floor:.1f}x) -> {verdict}"
        )
        if entry["speedup_warm"] < floor:
            status = 1
        if entry["burst_executions"] > 1:
            print(
                f"  {entry['edges']:,} edges: burst of {entry['burst_clients']} "
                f"identical requests took {entry['burst_executions']} executions "
                "(expected 1) -> REGRESSED"
            )
            status = 1
    if compared == 0:
        print(
            f"no baseline entry in {baseline_path} matches the measured "
            "sizes; the regression gate cannot run"
        )
        return 1
    if status:
        print("serving layer regressed against the committed baseline")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"run only the {SMOKE_SIZE[0]:,}-edge smoke size",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help=f"write results JSON here (default {DEFAULT_OUT.name}; "
             "omitted in --check runs unless given explicitly)",
    )
    parser.add_argument(
        "--check", type=pathlib.Path, default=None, metavar="BASELINE",
        help="compare warm/cold speedups against a committed baseline JSON; "
             "exit 1 on a >2x regression or a coalescing failure",
    )
    args = parser.parse_args(argv)

    sizes = [SMOKE_SIZE] if args.smoke else [SMOKE_SIZE] + SIZES
    out = args.out
    if out is None and args.check is None and not args.smoke:
        out = DEFAULT_OUT
    results = run(sizes, out)
    if args.check is not None:
        return check(results, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
