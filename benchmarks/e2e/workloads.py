"""The four workloads of the end-to-end benchmark, one per process.

``run.py`` starts this file once per workload with ``PYTHONPATH``
pointing at the repository's ``src``, and reads the JSON result it
writes.  A workload generates its inputs from the seed, sets the
program up several times (timed), drives its load for ``--seconds``,
checks every answer, and, when traced, probes each layer on its own
input.  Progress goes to stderr.

Every workload times two operations, its *main* and its *second* one:

================  ===========================  ==============================
workload          main operation               second operation
================  ===========================  ==============================
batch-triangle    serial ``count_motifs``      ``count_motifs(workers=2)``
sharded-cluster   serial shard-union count     count on 2 ``repro worker``\\ s
stream-window     ``ingest()`` of one batch    ``checkpoint_to()``
serve-mixed       dashboard hot-δ request      analyst fresh-δ request
================  ===========================  ==============================
"""

from __future__ import annotations

import argparse
import contextlib
import http.client
import json
import math
import os
import re
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import inputs
from trace import Tracer

from repro import StreamingEdgeStore, StreamRequest, TemporalGraph, WorkerPool, count_motifs, open_stream
from repro.errors import ReproError
from repro.serve import ServeClient
from repro.serve.protocol import decode_counts, encode_counts
from repro.storage import ShardedGraph, open_packed, pack_graph
from repro.storage.sharded import slice_canonical

ROOT = Path(__file__).resolve().parents[2]

#: Full-size inputs (edges); ``--smoke`` divides each by ten.
SIZES = {
    "batch": 40_000,
    "sharded": 80_000,
    "stream": 1_000_000,
    "window": 12_000,
    "serve": 20_000,
}
BATCH_DELTA = 43_200.0
SHARD_DELTA = 600.0
STREAM_DELTA = 3_600.0
#: Own edges per shard: the sharded graph is cut into eight shards.
SHARDS = 8
STREAM_BATCH = 1_000
CHECKPOINT_EVERY = 10
COMMIT_EVERY = 20
HOT_DELTAS = [900.0 * k for k in range(1, 9)]
FRESH_DELTAS = (10_000, 15_000)
#: Mean think time of the serve-mixed dashboard.
THINK_S = 0.1
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
CLOSED_FORM_K = 40
PROBE_MIX_S = 2.0

#: A fresh interpreter from import to its first answer: the closed-form
#: probe counted once (``count``) or through a stream engine (``stream``).
COLD_START = {
    "count": (
        "import json; from repro import TemporalGraph, count_motifs\n"
        "k = {k}; g = TemporalGraph([(0, 1, t) for t in range(k)])\n"
        "print(json.dumps(count_motifs(g, float(k)).grid.tolist()))\n"
    ),
    "stream": (
        "import json; from repro import StreamRequest, open_stream\n"
        "k = {k}; engine = open_stream(StreamRequest(delta=float(k)))\n"
        "engine.ingest([(0, 1, t) for t in range(k)])\n"
        "print(json.dumps(engine.checkpoint().counts.grid.tolist()))\n"
    ),
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def grid_of(counts) -> np.ndarray:
    return np.asarray(counts.grid)


def p50(values: List[float]) -> float:
    return statistics.median(values)


class Run:
    """State of one workload run: settings, checks, spans, processes."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.scale = 10 if args.smoke else 1
        self.tracer = Tracer(bool(args.trace))
        self.workdir = Path(args.workdir)
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.procs: List[subprocess.Popen] = []
        #: Per-layer ratio -> the quantities it was computed from.
        self.bases: Dict[str, Dict[str, float]] = {}
        self._lock = threading.Lock()

    def size(self, name: str) -> int:
        return SIZES[name] // self.scale

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; a false ``ok`` is a failure."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.errors.append(what)
                log(f"FAILED: {what}")

    @contextlib.contextmanager
    def timed(self, samples: List[float], name: str, **attrs):
        """Time one operation into ``samples`` (inside a span when traced)."""
        with self.tracer.span(name, **attrs):
            tick = time.perf_counter()
            try:
                yield
            finally:
                samples.append(time.perf_counter() - tick)

    def span_s(self, name: str) -> float:
        """Duration of the latest span called ``name``."""
        return self.tracer.durations(name)[-1]

    def path(self, name: str) -> str:
        """A path inside the run's work directory, relative to the root.

        Relative, so unix socket paths stay short wherever the checkout is.
        """
        return os.path.relpath(self.workdir / name, ROOT)

    # -- subprocesses ------------------------------------------------------
    def cold_start(self, kind: str) -> float:
        tick = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", COLD_START[kind].format(k=CLOSED_FORM_K)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        seconds = time.perf_counter() - tick
        ok = done.returncode == 0 and closed_form_ok(np.array(json.loads(done.stdout)))
        self.check(ok, f"cold start ({kind}) answers C({CLOSED_FORM_K},3): {done.stderr[-500:]}")
        return seconds

    def start_workers(self, source: str, count: int = 2) -> Tuple[List[subprocess.Popen], str]:
        """``count`` ``repro worker`` daemons holding ``source``, started together."""
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker", "--port", "0", "--source", source],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
            )
            for _ in range(count)
        ]
        self.procs.extend(procs)
        addresses = []
        for proc in procs:
            match = re.search(r"worker listening on (\S+)", proc.stdout.readline())
            if not match:
                raise RuntimeError("repro worker printed no address")
            addresses.append(match.group(1))
        return procs, ",".join(addresses)

    def start_daemon(self, source: str, sock: str, http_port: int) -> subprocess.Popen:
        """``repro serve`` over ``source``; returns once it answers a ping."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--graph", f"g={source}",
             "--socket", sock, "--http-port", str(http_port), "--workers", "2"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, cwd=ROOT,
        )
        self.procs.append(proc)
        deadline = time.monotonic() + 120
        while True:
            if proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"repro serve did not come up (exit {proc.returncode})")
            if os.path.exists(sock):
                try:
                    with ServeClient(sock, timeout=10) as client:
                        client.ping()
                    return proc
                except ReproError:  # bound but not accepting yet
                    pass
            time.sleep(0.01)

    def stop(self, procs: List[subprocess.Popen]) -> None:
        for proc in procs:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        for proc in procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()

    def close(self) -> None:
        self.stop(self.procs)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wrap(cols) -> TemporalGraph:
    return TemporalGraph.from_canonical_arrays(*cols)


def closed_form_ok(grid: np.ndarray) -> bool:
    return np.count_nonzero(grid) == 1 and int(grid.max()) == math.comb(CLOSED_FORM_K, 3)


def closed_form_probe(run: Run) -> None:
    """``k`` same-direction pair edges within δ: exactly C(k,3) in one cell."""
    counts = count_motifs(wrap(inputs.burst_pair(CLOSED_FORM_K)), float(CLOSED_FORM_K))
    run.check(closed_form_ok(grid_of(counts)), "closed-form probe")


def end_to_end(setup: List[float], main: List[float], second: List[float], wall: float) -> Dict[str, float]:
    return {
        "setup_s": p50(setup),
        "main_p50_s": p50(main),
        "second_p50_s": p50(second),
        "ops_per_s": (len(main) + len(second)) / wall,
    }


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def edge_tuples(cols, lo: int, hi: int) -> List[Tuple[int, int, int]]:
    src, dst, t = cols
    return list(zip(src[lo:hi].tolist(), dst[lo:hi].tolist(), t[lo:hi].tolist()))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
def batch_triangle(run: Run):
    cols = inputs.session_graph(run.size("batch"), run.seed)
    setup = [run.cold_start("count") for _ in range(SETUPS)]
    closed_form_probe(run)
    main: List[float] = []
    second: List[float] = []
    reference = None
    cpu0, start = cpu_seconds(), time.perf_counter()
    deadline = start + run.seconds
    pair = 0
    while time.perf_counter() < deadline:
        # Alternate which route goes first so drift hits both equally.
        for workers in ((1, 2) if pair % 2 == 0 else (2, 1)):
            with run.timed(main if workers == 1 else second, "e2e.count", workers=workers):
                with run.tracer.span("graph.wrap"):
                    graph = wrap(cols)
                with run.tracer.span("core.count_motifs", workers=workers):
                    counts = count_motifs(graph, BATCH_DELTA, workers=workers)
            if reference is None:
                reference = grid_of(counts)
            run.check(np.array_equal(grid_of(counts), reference), f"batch count (workers={workers}) == serial")
        pair += 1
    wall = time.perf_counter() - start
    return end_to_end(setup, main, second, wall), (cpu_seconds() - cpu0, wall), cols, BATCH_DELTA


def sharded_cluster(run: Run):
    m = run.size("sharded")
    cols = inputs.session_graph(m, run.seed)
    graph = wrap(cols)
    budget = m // SHARDS
    setup: List[float] = []
    for i in range(SETUPS):
        source = run.path(f"sharded{i}.rgz")
        tick = time.perf_counter()
        with run.tracer.span("storage.pack"):
            pack_graph(graph, source, layout="full")
        with run.tracer.span("distributed.worker_start"):
            procs, cluster = run.start_workers(source)
        setup.append(time.perf_counter() - tick)
        if i < SETUPS - 1:
            run.stop(procs)
    reference = grid_of(count_motifs(graph, SHARD_DELTA))
    closed_form_probe(run)
    main: List[float] = []
    second: List[float] = []
    cpu0, start = cpu_seconds(), time.perf_counter()
    deadline = start + run.seconds
    pair = 0
    while time.perf_counter() < deadline:
        for route in (("serial", "cluster") if pair % 2 == 0 else ("cluster", "serial")):
            extra = {"cluster": cluster} if route == "cluster" else {}
            with run.timed(main if route == "serial" else second, "e2e.count", route=route):
                with run.tracer.span("core.count_motifs", route=route):
                    counts = count_motifs(source, SHARD_DELTA, shard_budget=budget, **extra)
            run.check(np.array_equal(grid_of(counts), reference), f"sharded count ({route}) == in-memory")
        pair += 1
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    run.stop(procs)
    return end_to_end(setup, main, second, wall), (cpu, wall), cols, SHARD_DELTA


def stream_window(run: Run):
    n = run.size("stream")
    window = run.size("window") / inputs.EDGE_RATE
    cols = inputs.session_graph(n, run.seed)
    setup = [run.cold_start("stream") for _ in range(SETUPS)]
    closed_form_probe(run)
    rng = np.random.default_rng(run.seed)
    verify_at = set(int(b) for b in rng.choice(np.arange(5, 40), size=2, replace=False))
    checkpoint_dir = run.path("checkpoints")

    def verify(engine) -> None:
        live = grid_of(count_motifs(engine.store.live_graph(), STREAM_DELTA))
        run.check(np.array_equal(grid_of(engine.counts()), live), "stream counts == batch recount of the live window")

    main: List[float] = []
    second: List[float] = []
    paused = 0.0
    batches = 0
    with open_stream(StreamRequest(delta=STREAM_DELTA, window=window)) as engine:
        cpu0, start = cpu_seconds(), time.perf_counter()
        # The input outlasts the run at today's speed; a program fast
        # enough to reach its end simply measures a shorter run.
        while time.perf_counter() < start + run.seconds + paused and (batches + 1) * STREAM_BATCH <= n:
            batch = edge_tuples(cols, batches * STREAM_BATCH, (batches + 1) * STREAM_BATCH)
            with run.timed(main, "e2e.ingest"):
                with run.tracer.span("streaming.ingest"):
                    engine.ingest(batch)
            batches += 1
            if batches % CHECKPOINT_EVERY == 0:
                with run.tracer.span("streaming.checkpoint"):
                    engine.checkpoint()
            if batches % COMMIT_EVERY == 0:
                with run.timed(second, "e2e.commit"):
                    with run.tracer.span("storage.checkpoint_to"):
                        engine.checkpoint_to(checkpoint_dir)
            if batches in verify_at:
                tick = time.perf_counter()
                verify(engine)
                paused += time.perf_counter() - tick
        wall = time.perf_counter() - start - paused
        cpu = cpu_seconds() - cpu0
        verify(engine)
    nominal = int(1.5 * run.size("batch"))
    probe_cols = tuple(c[:nominal] for c in cols)
    return end_to_end(setup, main, second, wall), (cpu, wall), probe_cols, STREAM_DELTA


def serve_mixed(run: Run):
    cols = inputs.session_graph(run.size("serve"), run.seed)
    graph = wrap(cols)
    rng = np.random.default_rng(run.seed)
    fresh = [float(d) for d in FRESH_DELTAS[0] + rng.permutation(FRESH_DELTAS[1] - FRESH_DELTAS[0])]
    checked_fresh = fresh[:5]
    direct = {d: grid_of(count_motifs(graph, d)) for d in HOT_DELTAS + checked_fresh}
    setup: List[float] = []
    for i in range(SETUPS):
        source, sock = run.path(f"serve{i}.rgz"), run.path(f"serve{i}.sock")
        tick = time.perf_counter()
        pack_graph(graph, source, layout="full")
        with run.tracer.span("serve.start"):
            daemon = run.start_daemon(source, sock, free_port())
        with ServeClient(sock, timeout=120) as client:
            warm = {d: grid_of(client.count("g", d)) for d in HOT_DELTAS}
        setup.append(time.perf_counter() - tick)
        for d in HOT_DELTAS:
            run.check(np.array_equal(warm[d], direct[d]), f"served warm-up δ={d} == direct")
        if i < SETUPS - 1:
            run.stop([daemon])
    closed_form_probe(run)

    main: List[float] = []
    second: List[float] = []
    cpu0, start = cpu_seconds(), time.perf_counter()
    deadline = start + run.seconds

    def tenant(name: str, samples: List[float], requests) -> None:
        try:
            with ServeClient(sock, timeout=120) as client:
                for d, think in requests:
                    if time.perf_counter() >= deadline:
                        return
                    with run.timed(samples, f"e2e.{name}"):
                        with run.tracer.span("serve.count", tenant=name):
                            counts = client.count("g", d, tenant=name)
                    if d in direct:
                        run.check(np.array_equal(grid_of(counts), direct[d]), f"{name} δ={d} == direct")
                    time.sleep(think)
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            run.check(False, f"{name} tenant: {exc!r}")

    def hot_requests():
        # Exponential think times: with a fixed one the dashboard would
        # land at the same point of every analyst count, and its latency
        # would swing with twice the swing of the count time.
        hot_rng = np.random.default_rng(run.seed + 1)
        while True:
            yield HOT_DELTAS[int(hot_rng.integers(len(HOT_DELTAS)))], float(hot_rng.exponential(THINK_S))

    dashboard = threading.Thread(target=tenant, args=("dashboard", main, hot_requests()))
    dashboard.start()
    tenant("analyst", second, ((d, 0.0) for d in fresh))
    dashboard.join()
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
    run.stop([daemon])
    return end_to_end(setup, main, second, wall), (cpu, wall), cols, HOT_DELTAS[-1]


WORKLOADS = {
    "batch-triangle": batch_triangle,
    "sharded-cluster": sharded_cluster,
    "stream-window": stream_window,
    "serve-mixed": serve_mixed,
}


# ---------------------------------------------------------------------------
# traced pass: one timed call into each layer, on the workload's own input
# ---------------------------------------------------------------------------
def probe_layers(run: Run, cols, delta: float) -> Dict[str, float]:
    tracer = run.tracer
    span = tracer.span
    m = len(cols[2])
    out: Dict[str, float] = {}

    graph = wrap(cols)
    with span("graph.columnar_build"):
        graph.columnar()
    out["graph.columnar_build_s"] = run.span_s("graph.columnar_build")

    parts = {}
    for category in ("star_pair", "triangle"):
        with span(f"kernels.{category}"):
            parts[category] = grid_of(count_motifs(wrap(cols), delta, categories=category))
    full = parts["star_pair"] + parts["triangle"]
    serial_s = run.span_s("kernels.star_pair") + run.span_s("kernels.triangle")
    out["kernels.star_pair_s"] = run.span_s("kernels.star_pair")
    out["kernels.triangle_s"] = run.span_s("kernels.triangle")
    out["kernels.triangle_share"] = out["kernels.triangle_s"] / serial_s
    run.bases["kernels.triangle_share"] = {
        "kernels.triangle_s": out["kernels.triangle_s"], "kernels.star_pair_s": out["kernels.star_pair_s"],
    }

    with span("parallel.pool_start"):
        pool = WorkerPool(2, result_cache=False)
    try:
        graph = wrap(cols)
        with span("parallel.publish"):
            pool.publish(graph)
        for _ in range(2):
            with span("parallel.pool_call"):
                counts = count_motifs(graph, delta, workers=2, pool=pool)
            run.check(np.array_equal(grid_of(counts), full), "pool count == star_pair + triangle")
    finally:
        pool.close()
    first, resident = tracer.durations("parallel.pool_call")
    out["parallel.pool_start_s"] = run.span_s("parallel.pool_start")
    out["parallel.publish_s"] = run.span_s("parallel.publish")
    out["parallel.pool_first_call_s"] = first
    out["parallel.pool_resident_call_s"] = resident
    out["parallel.efficiency"] = serial_s / (2 * resident)
    run.bases["parallel.efficiency"] = {"serial_s": serial_s, "workers": 2, "parallel.pool_resident_call_s": resident}

    source = run.path("probe.rgz")
    with span("storage.pack"):
        pack_graph(wrap(cols), source, layout="full")
    with span("storage.open"):
        packed = open_packed(source)
    with span("storage.plan"):
        plan = ShardedGraph(packed, max_shard_edges=m // SHARDS).plan(delta)
    out["storage.pack_s"] = run.span_s("storage.pack")
    out["storage.open_s"] = run.span_s("storage.open")
    out["storage.plan_s"] = run.span_s("storage.plan")
    halo_edges, own_edges = sum(s.halo_edges for s in plan), sum(s.own_edges for s in plan)
    out["storage.halo_ratio"] = halo_edges / own_edges
    run.bases["storage.halo_ratio"] = {"halo_edges": halo_edges, "own_edges": own_edges, "shards": len(plan)}
    union = np.zeros_like(full)
    for shard in plan:
        for lo, hi, sign, kind in ((shard.own_lo, shard.halo_hi, 1, "slice"), (shard.own_hi, shard.halo_hi, -1, "halo")):
            if hi - lo >= 3:
                with span("storage.unit_count", kind=kind, shard=shard.index):
                    union += sign * grid_of(count_motifs(slice_canonical(packed.graph, lo, hi), delta))
    packed.close()
    run.check(np.array_equal(union, full), "shard-halo union == whole graph")
    units = tracer.durations("storage.unit_count")
    out["storage.unit_count_s.sum"] = sum(units)
    out["storage.unit_count_s.max"] = max(units)

    with span("distributed.worker_start"):
        procs, cluster = run.start_workers(source)
    try:
        with span("distributed.cluster_count"):
            counts = count_motifs(source, delta, cluster=cluster, shard_budget=m // SHARDS)
    finally:
        run.stop(procs)
    run.check(np.array_equal(grid_of(counts), full), "cluster count == whole graph")
    meta = counts.meta["cluster"]
    out["distributed.worker_start_s"] = run.span_s("distributed.worker_start")
    out["distributed.cluster_count_s"] = run.span_s("distributed.cluster_count")
    jobs, units = sum(meta["jobs"].values()), len(meta["shard_seconds"])
    out["distributed.jobs_per_unit"] = jobs / units
    run.bases["distributed.jobs_per_unit"] = {"jobs": jobs, "units": units, "speculative": meta["speculative"]}
    out["distributed.retries"] = meta["retries"]
    out["distributed.efficiency"] = out["storage.unit_count_s.sum"] / (2 * out["distributed.cluster_count_s"])
    run.bases["distributed.efficiency"] = {
        "storage.unit_count_s.sum": out["storage.unit_count_s.sum"], "workers": 2,
        "distributed.cluster_count_s": out["distributed.cluster_count_s"],
    }

    out.update(probe_stream(run, cols, delta))
    out.update(probe_serve(run, cols, delta, source, full))
    return out


def probe_stream(run: Run, cols, delta: float) -> Dict[str, float]:
    span = run.tracer.span
    t = cols[2]
    window = 0.2 * float(t[-1] - t[0])
    batches = len(t) // STREAM_BATCH
    recount_at = set(int(b) for b in np.random.default_rng(run.seed).choice(batches, size=min(5, batches), replace=False))
    store = StreamingEdgeStore()
    dirty_edges = 0
    for b in range(batches):
        lo, hi = b * STREAM_BATCH, (b + 1) * STREAM_BATCH
        batch = edge_tuples(cols, lo, hi)
        with span("stream_store.extend"):
            store.extend(batch)
        with span("stream_store.evict"):
            store.evict_before(float(t[hi - 1]) - window)
        with span("stream_store.slice"):
            dirty = store.slice_graph(float(t[lo]) - delta, None)
        dirty_edges += dirty.num_edges
        if b in recount_at:
            with span("streaming.dirty_recount"):
                count_motifs(dirty, delta)

    # An engine holding the last window of the input as its live set.
    live_from = int(np.searchsorted(t, t[-1] - window))
    engine = open_stream(StreamRequest(delta=delta, window=window))
    engine.ingest(edge_tuples(cols, live_from, len(t)))
    for _ in range(10):
        with span("streaming.checkpoint_call"):
            engine.checkpoint()
    for _ in range(5):
        with span("storage.checkpoint_write"):
            engine.checkpoint_to(run.path("probe-checkpoints"))
    live = grid_of(count_motifs(engine.store.live_graph(), delta))
    run.check(np.array_equal(grid_of(engine.counts()), live), "probe engine == batch recount")
    engine.close()

    durations = run.tracer.durations
    run.bases["streaming.recount_amplification"] = {
        "dirty_slice_edges": dirty_edges, "batch_edges": batches * STREAM_BATCH,
    }
    return {
        "stream_store.extend_s": sum(durations("stream_store.extend")),
        "stream_store.evict_s": sum(durations("stream_store.evict")),
        "stream_store.slice_s": sum(durations("stream_store.slice")),
        "streaming.dirty_recount_s.p50": p50(durations("streaming.dirty_recount")),
        "streaming.recount_amplification": dirty_edges / (batches * STREAM_BATCH),
        "streaming.checkpoint_call_s.p50": p50(durations("streaming.checkpoint_call")),
        "storage.checkpoint_write_s.p50": p50(durations("storage.checkpoint_write")),
    }


def probe_serve(run: Run, cols, delta: float, source: str, full: np.ndarray) -> Dict[str, float]:
    """A probe daemon: ping, codec, HTTP hits, fresh δs, a short mixed load."""
    span = run.tracer.span
    durations = run.tracer.durations
    sock, port = run.path("probe.sock"), free_port()
    with span("serve.start"):
        daemon = run.start_daemon(source, sock, port)
    try:
        with ServeClient(sock, timeout=120) as client:
            for _ in range(20):
                with span("serve.ping"):
                    client.ping()
            warm = client.count("g", delta)
            run.check(np.array_equal(grid_of(warm), full), "served hot δ == direct")
            for _ in range(20):
                with span("serve.codec"):
                    decode_counts(json.loads(json.dumps(encode_counts(warm))))
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
            body = json.dumps({"graph": "g", "delta": delta})
            for _ in range(10):
                with span("serve.http_hit"):
                    conn.request("POST", "/v1/count", body, {"Content-Type": "application/json"})
                    reply = json.loads(conn.getresponse().read())
                run.check(reply.get("ok") is True and np.array_equal(np.asarray(reply["result"]["grid"]), full),
                          "HTTP hot δ == direct")
            conn.close()
            for factor in (1.1, 1.2, 1.3):
                with span("serve.direct_count"):
                    expect = grid_of(count_motifs(wrap(cols), delta * factor))
                with span("serve.fresh_count"):
                    served = grid_of(client.count("g", delta * factor))
                run.check(np.array_equal(served, expect), f"served fresh δ={delta * factor} == direct")

            # A hot tenant beside a fresh one, as in serve-mixed.
            before = client.stats()
            stop_at = time.perf_counter() + PROBE_MIX_S

            def hot_loop() -> None:
                try:
                    with ServeClient(sock, timeout=120) as hot:
                        while time.perf_counter() < stop_at:
                            hot.count("g", delta, tenant="dashboard")
                except Exception as exc:  # noqa: BLE001 - counted, and the probe goes on
                    run.check(False, f"probe hot tenant: {exc!r}")

            hot_thread = threading.Thread(target=hot_loop)
            hot_thread.start()
            step = 0
            while time.perf_counter() < stop_at:
                step += 1
                client.count("g", delta * (1.4 + 0.01 * step), tenant="analyst")
            hot_thread.join()
            after = client.stats()
    finally:
        run.stop([daemon])
    requests = after["requests"] - before["requests"]
    executions = after["executions"] - before["executions"]
    batched = after["batched_deltas"] - before["batched_deltas"]
    hits = after["pool"]["cache_hits"] - before["pool"]["cache_hits"]
    run.bases["serve.executions_per_request"] = {"executions": executions, "requests": requests}
    run.bases["serve.batched_deltas_per_execution"] = {"batched_deltas": batched, "executions": executions}
    run.bases["serve.cache_hit_ratio"] = {"cache_hits": hits, "requests": requests}
    return {
        "serve.start_s": run.span_s("serve.start"),
        "serve.ping_rtt_s.p50": p50(durations("serve.ping")),
        "serve.codec_s.p50": p50(durations("serve.codec")),
        "serve.http_hit_latency_s.p50": p50(durations("serve.http_hit")),
        "serve.direct_count_s.p50": p50(durations("serve.direct_count")),
        "serve.fresh_count_s.p50": p50(durations("serve.fresh_count")),
        "serve.executions_per_request": executions / requests,
        "serve.batched_deltas_per_execution": batched / executions,
        "serve.cache_hit_ratio": hits / requests,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    run = Run(args)
    result: Dict[str, object] = {"workload": args.workload, "seed": args.seed, "traced": bool(args.trace)}
    try:
        log(f"{args.workload}: seed {args.seed}, {args.seconds:g} s")
        e2e, (cpu, wall), probe_cols, delta = WORKLOADS[args.workload](run)
        # Before the probes, so a traced run's peak stays comparable.
        e2e["peak_rss_mb"] = max(
            resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 1024.0
        result["end_to_end"] = e2e
        if run.tracer.enabled:
            layers = probe_layers(run, probe_cols, delta)
            layers["loadgen.cpu_share"] = cpu / wall
            run.bases["loadgen.cpu_share"] = {"cpu_s": cpu, "wall_s": wall}
            result.update(per_layer=layers, ratio_bases=run.bases, self_times=run.tracer.self_times())
    except Exception as exc:  # noqa: BLE001 - reported as a failed operation
        run.check(False, f"{args.workload} aborted: {exc!r}")
        traceback.print_exc()
    finally:
        run.close()
    if args.spans and run.tracer.enabled:
        run.tracer.write(args.spans)
    result.update(attempted=run.attempted, failed=run.failed, errors=run.errors)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
