"""Command-line interface: ``python -m repro`` / ``repro-motifs``.

Subcommands
-----------
``count``
    Count motifs on an edge-list file or a registry dataset.
``stream``
    Replay an edge file (or stdin) through the incremental streaming
    engine, emitting one JSON line per checkpoint.
``generate``
    Materialise a registry dataset to a SNAP-format edge list.
``stats``
    Print Table-II style statistics for a graph.
``bench``
    Run one of the paper's experiments (table2/table3/fig9..fig12b).
``serve``
    Run the resident motif-counting daemon: named graphs published to
    shared memory once, identical requests coalesced, typed protocol
    errors (see ``docs/serving.md``).
``worker``
    Run one node of a counting cluster: a TCP daemon that counts
    canonical edge ranges of packed graphs for a ``count --cluster``
    coordinator (see ``docs/distributed.md``).
``query``
    Query a running ``serve`` daemon over its unix socket.
``list-datasets``
    Show the sixteen registry datasets.
``list-algorithms``
    Show every registered counting algorithm and its capabilities.

Algorithm choices, sampling flags, and the help epilog all come from
the pluggable registry (:mod:`repro.core.registry`), so a newly
registered algorithm is immediately selectable here.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.bench.experiments import EXPERIMENTS
from repro.core.api import CATEGORIES, count_motifs
from repro.core.counters import t95
from repro.core.registry import (
    StreamRequest,
    algorithm_specs,
    available_algorithms,
    open_stream,
    streaming_algorithms,
)
from repro.errors import ReproError
from repro.graph.datasets import REGISTRY, load_dataset
from repro.graph.edgelist import iter_edge_lines, iter_edge_records, load_edgelist, save_edgelist
from repro.graph.statistics import compute_statistics
from repro.graph.temporal_graph import TemporalGraph


def _add_graph_source(parser: argparse.ArgumentParser, *, required: bool = True) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--input", help="SNAP-format edge list file (u v t per line)")
    group.add_argument("--dataset", choices=sorted(REGISTRY), help="registry dataset name")
    group.add_argument("--source", help="packed binary graph file (`repro pack` output), "
                                        "opened zero-copy through mmap")
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="dataset scale factor (registry datasets only, default 1.0)",
    )


def _load_graph(args: argparse.Namespace) -> TemporalGraph:
    if args.input:
        return load_edgelist(args.input)
    if getattr(args, "source", None):
        from repro.storage import open_packed

        return open_packed(args.source).graph
    return load_dataset(args.dataset, args.scale)


def _cmd_count(args: argparse.Namespace) -> int:
    from repro.core.registry import get_algorithm

    # A packed source is threaded through the request itself (the
    # registry opens it), so provenance lands in result.meta["source"].
    graph = None if args.source else _load_graph(args)
    # An explicit pool for parallel counts: same results, but the
    # pool's runtime counters (jobs, batches, jobs_aborted,
    # worker_restarts) become reportable below.
    pool = None
    spec = get_algorithm(args.algorithm)
    if args.workers > 1 and spec.parallel and args.cluster is None:
        from repro.parallel.pool import WorkerPool

        pool = WorkerPool(args.workers)
    try:
        counts = count_motifs(
            graph,
            args.delta,
            algorithm=args.algorithm,
            categories=args.categories,
            workers=args.workers,
            seed=args.seed,
            n_samples=args.n_samples,
            pool=pool,
            source=args.source,
            shard_budget=args.shard_budget,
            cluster=args.cluster,
        )
        runtime_stats = {} if pool is None else {"pool": dict(pool.stats)}
    finally:
        if pool is not None:
            pool.close()
    if "cluster" in counts.meta:
        runtime_stats["cluster"] = counts.meta["cluster"]
    dominant = counts.dominant_phase()
    if args.json:
        payload = {
            "algorithm": counts.algorithm,
            "delta": args.delta,
            "elapsed_seconds": counts.elapsed_seconds,
            "phase_seconds": dict(counts.phase_seconds),
            "dominant_phase": None if dominant is None else dominant[0],
            "is_exact": counts.is_exact,
            "total": counts.total(),
            "counts": counts.per_motif(),
        }
        if counts.stderr is not None:
            payload["stderr"] = {
                name: counts.stderr_of(name) for name in counts.per_motif()
            }
            payload["n_samples"] = counts.meta.get("n_samples")
            payload["total_stderr"] = counts.meta.get("total_stderr")
        if "coverage" in counts.meta:
            payload["coverage"] = counts.meta["coverage"]
        for key in ("source", "sharding", "shards", "halo_edges"):
            if key in counts.meta:
                payload[key] = counts.meta[key]
        if runtime_stats:
            payload["runtime"] = runtime_stats
        print(json.dumps(payload, indent=2))
    else:
        print(counts.to_text(
            f"{counts.algorithm} δ={args.delta} "
            f"total={counts.total():,} ({counts.elapsed_seconds:.2f}s)"
        ))
        if dominant is not None:
            phases = ", ".join(
                f"{name}={seconds:.3f}s"
                for name, seconds in sorted(counts.phase_seconds.items())
            )
            print(f"phases: {phases} (dominant: {dominant[0]})")
        if "coverage" in counts.meta:
            print(f"coverage: {counts.meta['coverage']}")
        if counts.meta.get("sharding") == "halo-union":
            print(
                f"sharding: halo-union over {counts.meta['shards']} shard(s), "
                f"{counts.meta['halo_edges']:,} halo edges "
                f"(budget {counts.meta['shard_budget']:,})"
            )
        cluster_meta = counts.meta.get("cluster")
        if isinstance(cluster_meta, dict) and "workers" in cluster_meta:
            c = cluster_meta
            print(
                f"cluster: {len(c.get('workers', []))} worker(s), "
                f"{sum(c.get('jobs', {}).values())} job(s), "
                f"{c.get('retries', 0)} retried, "
                f"{c.get('workers_readmitted', 0)} readmitted, "
                f"{c.get('bytes_shipped', 0):,} bytes shipped"
            )
        if not counts.is_exact:
            # Grid cells of one replicate are correlated, so the CI on
            # the total uses the replicate-total stderr the dispatcher
            # records, not per-cell stderrs added in quadrature.  A
            # single draw has no stderr: say so instead of printing a
            # zero-width interval.
            total_stderr = counts.meta.get("total_stderr")
            n_samples = counts.meta.get("n_samples", 1)
            line = f"sampling estimate over {n_samples} replicate(s); "
            if total_stderr is None:
                line += "CI unavailable (single replicate)"
            else:
                # Student's t: the stderr comes from the replicates.
                half = t95(n_samples) * float(total_stderr)
                total = float(counts.total())
                line += (
                    f"95% CI on total: "
                    f"[{total - half:,.1f}, {total + half:,.1f}]"
                )
            print(line)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import itertools

    request = StreamRequest(
        delta=args.delta,
        window=args.window,
        algorithm=args.algorithm,
        categories=args.categories,
        workers=args.workers,
        checkpoint_every=args.checkpoint_every,
    )
    if args.resume and not args.checkpoint_dir:
        raise ReproError("stream --resume requires --checkpoint-dir DIR")
    engine = None
    skip = 0
    if args.resume:
        from repro.core.streaming import StreamingMotifEngine
        from repro.storage.checkpoint import has_checkpoint

        if has_checkpoint(args.checkpoint_dir):
            # Validates the journal + snapshot before any state is
            # built; corruption raises CheckpointCorruptError here.
            engine = StreamingMotifEngine.resume_from(
                args.checkpoint_dir, request=request
            )
            skip = engine.records_consumed()
        # else: nothing committed yet — a run killed before its first
        # checkpoint resumes from scratch.
    if engine is None:
        engine = open_stream(request)
    if args.input == "-":
        edges = iter_edge_lines(sys.stdin, origin="<stdin>")
    else:
        edges = iter_edge_records(args.input)
    if skip:
        edges = itertools.islice(edges, skip, None)
    checkpoint_to = getattr(engine, "checkpoint_to", None)
    try:
        for cp in engine.replay(edges, batch_edges=args.batch_edges):
            print(json.dumps(cp.as_dict(per_motif=args.per_motif)), flush=True)
            if args.checkpoint_dir and checkpoint_to is not None:
                checkpoint_to(args.checkpoint_dir)
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    import os

    from repro.storage import pack_graph

    graph = _load_graph(args)
    header = pack_graph(graph, args.out, layout=args.layout)
    size = os.path.getsize(args.out)
    print(
        f"packed {header['num_edges']:,} edges / {header['num_nodes']:,} nodes "
        f"-> {args.out} ({size:,} bytes, layout={header['layout']}, "
        f"{len(header['sections'])} sections)"
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, args.scale)
    save_edgelist(graph, args.out)
    print(f"wrote {graph.num_edges} edges / {graph.num_nodes} nodes to {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.runtime:
        if not args.cluster:
            raise ReproError("stats --runtime requires --cluster host:port,...")
        from repro.distributed import cluster_runtime_stats

        print(json.dumps(cluster_runtime_stats(args.cluster), indent=2, sort_keys=True))
        return 0
    if not (args.input or args.dataset or getattr(args, "source", None)):
        raise ReproError("stats requires one of --input / --dataset / --source")
    graph = _load_graph(args)
    stats = compute_statistics(graph)
    print(f"nodes:            {stats.num_nodes:,}")
    print(f"temporal edges:   {stats.num_edges:,}")
    print(f"time span:        {stats.time_span:,} ({stats.time_span_days:.1f} days)")
    print(f"max degree:       {stats.max_degree:,}")
    print(f"mean degree:      {stats.mean_degree:.2f}")
    print(f"median degree:    {stats.median_degree:.1f}")
    print(f"top-10 deg share: {stats.top10_degree_share:.1%}")
    print(f"static pairs:     {stats.num_static_pairs:,}")
    print(f"reciprocity:      {stats.reciprocity:.1%}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    driver = EXPERIMENTS[args.experiment]
    scale = 0.25 if args.quick else args.scale
    result = driver(scale=scale)
    text = result.render()
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"\nwritten to {args.out}")
    return 0


def _parse_graph_spec(spec: str) -> tuple:
    """Split a ``name=source[@cluster]`` CLI graph spec.

    ``source`` is a path or ``dataset[:scale]``; an optional trailing
    ``@host:port,...`` binds the graph to a worker cluster (the suffix
    only counts as a cluster when it parses as one, so paths containing
    ``@`` keep working).
    """
    name, sep, source = spec.partition("=")
    if not sep or not name or not source:
        raise ReproError(
            f"--graph expects name=<edgelist path or dataset[:scale]>"
            f"[@host:port,...], got {spec!r}"
        )
    head, at, tail = source.rpartition("@")
    if at:
        from repro.distributed.protocol import parse_cluster

        try:
            parse_cluster(tail)
        except ReproError:
            pass  # not a cluster suffix; the whole string is the source
        else:
            return name, head, tail
    return name, source, None


def _load_catalog_source(source: str):
    """A ``--graph`` source: dataset name (``wiki[:scale]``), packed file, or path."""
    name, _, scale = source.partition(":")
    if name in REGISTRY:
        return load_dataset(name, float(scale) if scale else 1.0)
    from repro.storage import is_packed_file, open_packed

    if is_packed_file(source):
        return open_packed(source)
    return load_edgelist(source)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import MotifService, ServiceConfig, run_daemon

    config = ServiceConfig(
        workers=args.workers,
        max_pending=args.max_pending,
        tenant_quota=args.tenant_quota,
        default_timeout=args.default_timeout,
        idle_timeout=args.idle_timeout,
    )
    service = MotifService(config)
    try:
        for spec in args.graph:
            name, source, cluster = _parse_graph_spec(spec)
            graph = _load_catalog_source(source)
            service.add_graph(name, graph, cluster=cluster)
            where = f" @ cluster {cluster}" if cluster else ""
            print(
                f"catalog: {name} <- {source} "
                f"({graph.num_nodes:,} nodes, {graph.num_edges:,} edges)"
                f"{where}",
                flush=True,
            )
        where = []
        if args.socket:
            where.append(f"unix:{args.socket}")
        if args.http_port is not None:
            where.append(f"http://{args.http_host}:{args.http_port}")
        print(f"serving on {', '.join(where)} (workers={args.workers})", flush=True)
        run_daemon(
            service,
            socket_path=args.socket,
            http_host=args.http_host,
            http_port=args.http_port,
        )
    finally:
        service.close()
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.serve import ServeClient

    with ServeClient(args.socket, timeout=args.connect_timeout) as client:
        if args.op == "ping":
            print(json.dumps(client.ping()))
            return 0
        if args.op == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.op == "catalog":
            print(json.dumps(client.catalog(), indent=2))
            return 0
        if args.op == "algorithms":
            print(json.dumps(client.algorithms(), indent=2))
            return 0
        if args.graph is None or args.delta is None:
            raise ReproError("query count requires --graph and --delta")
        counts = client.count(
            args.graph,
            args.delta,
            algorithm=args.algorithm,
            categories=args.categories,
            seed=args.seed,
            n_samples=args.n_samples,
            params=dict(
                (key, float(value))
                for key, _, value in (p.partition("=") for p in args.param)
            ),
            tenant=args.tenant,
            timeout=args.timeout,
        )
        if args.json:
            print(json.dumps({
                "algorithm": counts.algorithm,
                "delta": counts.delta,
                "is_exact": counts.is_exact,
                "total": counts.total(),
                "elapsed_seconds": counts.elapsed_seconds,
                "counts": counts.per_motif(),
                "meta": counts.meta,
            }, indent=2))
        else:
            print(counts.to_text(
                f"{counts.algorithm} δ={counts.delta} total={counts.total():,}"
            ))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.distributed import run_worker

    return run_worker(
        args.host,
        args.port,
        workers=args.workers,
        sources=args.source or [],
        delay=args.delay,
    )


def _cmd_list_datasets(_: argparse.Namespace) -> int:
    for name, spec in REGISTRY.items():
        print(
            f"{name:16s} {spec.paper_name:16s} paper: {spec.paper_nodes:>10,} nodes "
            f"{spec.paper_edges:>12,} edges | twin: {spec.gen_nodes:>7,} nodes "
            f"{spec.gen_edges:>8,} edges | {spec.description}"
        )
    return 0


def _cmd_list_algorithms(_: argparse.Namespace) -> int:
    for spec in algorithm_specs():
        print(spec.describe())
    return 0


def build_parser() -> argparse.ArgumentParser:
    algorithms = available_algorithms()
    epilog = "registered algorithms:\n" + "\n".join(
        f"  {spec.describe()}" for spec in algorithm_specs()
    )
    parser = argparse.ArgumentParser(
        prog="repro-motifs",
        description="HARE/FAST temporal motif counting (ICDE 2022 reproduction)",
        epilog=epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count δ-temporal motifs")
    _add_graph_source(p_count)
    p_count.add_argument("--delta", type=float, required=True, help="time window δ")
    p_count.add_argument("--algorithm", choices=algorithms, default="fast")
    p_count.add_argument("--categories", choices=CATEGORIES, default="all")
    p_count.add_argument("--workers", type=int, default=1,
                         help="worker processes for parallel algorithms (the "
                              "pool's start method: REPRO_START_METHOD, else "
                              "the platform default)")
    p_count.add_argument("--seed", type=int, default=None,
                         help="RNG seed for sampling algorithms (default 0)")
    p_count.add_argument("--n-samples", type=int, default=None,
                         help="sampling replicates to average (sampling "
                              "algorithms only; default 3, stderr across them)")
    p_count.add_argument("--shard-budget", type=int, default=None,
                         help="out-of-core mode: maximum own edges per time "
                              "shard; exact algorithms count shard-by-shard "
                              "with δ-overlap halos (identical counts, peak "
                              "memory proportional to the budget)")
    p_count.add_argument("--cluster", default=None, metavar="HOST:PORT,...",
                         help="distribute the shard plan across these "
                              "`repro worker` daemons (exact algorithms; "
                              "counts bit-identical to the serial path)")
    p_count.add_argument("--json", action="store_true", help="emit JSON")
    p_count.set_defaults(func=_cmd_count)

    p_pack = sub.add_parser(
        "pack",
        help="pack a graph into the binary columnar format",
        description="Write a graph to the versioned binary columnar "
                    "format (see docs/storage.md): parse and "
                    "columnar-build cost are paid once, then "
                    "`count --source FILE` reopens it zero-copy "
                    "through mmap.",
    )
    _add_graph_source(p_pack)
    p_pack.add_argument("--out", required=True, help="output file (conventionally .rgz)")
    p_pack.add_argument("--layout", choices=("full", "edges"), default="full",
                        help="full (default): edge columns + every derived "
                             "columnar array; edges: smallest file, columnar "
                             "arrays rebuilt lazily on open")
    p_pack.set_defaults(func=_cmd_pack)

    p_stream = sub.add_parser(
        "stream",
        help="replay an edge stream, emitting JSON-line checkpoints",
        description="Replay a SNAP-format edge file (or stdin with "
                    "--input -) through the incremental streaming engine. "
                    "Emits one JSON line per checkpoint with running "
                    "totals, window bookkeeping and per-phase timings "
                    "(ingest/expire/count).",
    )
    p_stream.add_argument("--input", required=True,
                          help="SNAP-format edge list file, or '-' for stdin")
    p_stream.add_argument("--delta", type=float, required=True, help="time window δ")
    p_stream.add_argument("--window", type=float, default=None,
                          help="sliding-window width W: keep edges with "
                               "t >= t_latest - W (default: unbounded, no expiry)")
    p_stream.add_argument("--checkpoint-every", type=int, default=10_000,
                          help="edges between emitted checkpoints (default 10000)")
    p_stream.add_argument("--batch-edges", type=int, default=None,
                          help="ingest micro-batch size (default: one batch "
                               "per checkpoint interval)")
    p_stream.add_argument("--algorithm", choices=streaming_algorithms(), default="fast",
                          help="streaming-capable algorithm (default fast)")
    p_stream.add_argument("--categories", choices=CATEGORIES, default="all")
    p_stream.add_argument("--workers", type=int, default=1,
                          help="HARE workers for large dirty ranges (micro-batch "
                               "parallelism, served by a resident shared-memory "
                               "worker pool)")
    p_stream.add_argument("--per-motif", action="store_true",
                          help="include the full 36-motif count dict per checkpoint")
    p_stream.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                          help="commit a crash-safe checkpoint (canonical .rgz "
                               "window snapshot + CRC'd journal) into DIR after "
                               "every emitted checkpoint")
    p_stream.add_argument("--resume", action="store_true",
                          help="resume from the checkpoint committed in "
                               "--checkpoint-dir (validated before any state is "
                               "built; corruption raises a typed error) and skip "
                               "the already-consumed input prefix; starts fresh "
                               "when DIR holds no checkpoint yet")
    p_stream.set_defaults(func=_cmd_stream)

    p_gen = sub.add_parser("generate", help="write a dataset twin to a file")
    p_gen.add_argument("--dataset", choices=sorted(REGISTRY), required=True)
    p_gen.add_argument("--scale", type=float, default=1.0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_stats = sub.add_parser("stats", help="print graph or cluster runtime statistics")
    _add_graph_source(p_stats, required=False)
    p_stats.add_argument("--runtime", action="store_true",
                         help="print live runtime counters instead of graph "
                              "statistics (requires --cluster)")
    p_stats.add_argument("--cluster", default=None, metavar="HOST:PORT,...",
                         help="worker daemons to poll with --runtime")
    p_stats.set_defaults(func=_cmd_stats)

    p_bench = sub.add_parser("bench", help="run a paper experiment")
    p_bench.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p_bench.add_argument("--scale", type=float, default=1.0)
    p_bench.add_argument("--quick", action="store_true", help="scale 0.25 shortcut")
    p_bench.add_argument("--out", help="also write the rendered result to a file")
    p_bench.set_defaults(func=_cmd_bench)

    p_serve = sub.add_parser(
        "serve",
        help="run the resident motif-counting daemon",
        description="Serve motif counts for a catalog of named graphs: "
                    "graphs are published to shared memory once, "
                    "identical concurrent requests share one pool run, "
                    "and repeats are answered from the answer table.  "
                    "See docs/serving.md.",
    )
    p_serve.add_argument("--graph", action="append", default=[],
                         metavar="NAME=SOURCE[@CLUSTER]",
                         help="catalog entry: NAME=<edge-list path>, "
                              "NAME=<packed file>, or NAME=<dataset[:scale]> "
                              "(repeatable); a trailing @host:port,... binds "
                              "exact counts on it to a worker cluster")
    p_serve.add_argument("--socket", default=None,
                         help="unix socket path for the JSONL transport")
    p_serve.add_argument("--http-host", default="127.0.0.1")
    p_serve.add_argument("--http-port", type=int, default=None,
                         help="TCP port for the HTTP transport (0 = ephemeral)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="worker processes in the service pool (default 2)")
    p_serve.add_argument("--max-pending", type=int, default=64,
                         help="bound on pending requests before "
                              "429-style rejection (default 64)")
    p_serve.add_argument("--tenant-quota", type=int, default=16,
                         help="concurrent in-flight requests per tenant "
                              "(default 16)")
    p_serve.add_argument("--default-timeout", type=float, default=30.0,
                         help="deadline for requests without a timeout "
                              "(seconds, default 30)")
    p_serve.add_argument("--idle-timeout", type=float, default=None,
                         help="suspend idle pool workers after this many "
                              "seconds (default: keep them)")
    p_serve.set_defaults(func=_cmd_serve)

    p_worker = sub.add_parser(
        "worker",
        help="run one node of a counting cluster",
        description="Serve shard-counting jobs over TCP for a "
                    "`count --cluster` coordinator: opens local packed "
                    "graphs zero-copy, counts the canonical edge ranges "
                    "it is handed (or edge slices shipped inline), and "
                    "reports runtime counters via `stats --runtime`.  "
                    "See docs/distributed.md.",
    )
    p_worker.add_argument("--host", default="127.0.0.1")
    p_worker.add_argument("--port", type=int, default=0,
                          help="TCP port (0 = ephemeral; the bound address is "
                               "printed on startup)")
    p_worker.add_argument("--workers", type=int, default=1,
                          help="resident pool size for parallel algorithms "
                               "(default 1: serial in-process, no pool)")
    p_worker.add_argument("--source", action="append", default=[],
                          help="packed graph file to open eagerly (repeatable; "
                               "coordinators probe lazily either way)")
    p_worker.add_argument("--delay", type=float, default=0.0,
                          help=argparse.SUPPRESS)  # fault-injection testing aid
    p_worker.set_defaults(func=_cmd_worker)

    p_query = sub.add_parser(
        "query", help="query a running serve daemon over its unix socket"
    )
    p_query.add_argument("--socket", required=True, help="daemon unix socket path")
    p_query.add_argument("--op", choices=("count", "ping", "stats", "catalog", "algorithms"),
                         default="count")
    p_query.add_argument("--graph", default=None, help="catalog graph name")
    p_query.add_argument("--delta", type=float, default=None, help="time window δ")
    p_query.add_argument("--algorithm", choices=algorithms, default="fast")
    p_query.add_argument("--categories", choices=CATEGORIES, default="all")
    p_query.add_argument("--seed", type=int, default=None)
    p_query.add_argument("--n-samples", type=int, default=None)
    p_query.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                         help="algorithm parameter override (repeatable)")
    p_query.add_argument("--tenant", default="default", help="quota bucket")
    p_query.add_argument("--timeout", type=float, default=None,
                         help="request deadline in seconds (server default "
                              "applies when omitted)")
    p_query.add_argument("--connect-timeout", type=float, default=60.0,
                         help="socket-level timeout (default 60)")
    p_query.add_argument("--json", action="store_true", help="emit JSON")
    p_query.set_defaults(func=_cmd_query)

    p_list = sub.add_parser("list-datasets", help="show the dataset registry")
    p_list.set_defaults(func=_cmd_list_datasets)

    p_algos = sub.add_parser(
        "list-algorithms", help="show registered counting algorithms"
    )
    p_algos.set_defaults(func=_cmd_list_algorithms)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0
    except OSError as exc:
        # Missing/unreadable input files surface as a clean CLI error,
        # not a traceback (count and stream both read user paths).
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _script_main() -> int:  # pragma: no cover - real process entry only
    """Entry for ``python -m repro`` / ``python -m repro.cli``.

    Installs the pool signal handlers so a SIGTERM mid-count cannot
    leak pool workers or ``/dev/shm`` segments (same contract as the
    serve daemon).  Only here, not in :func:`main`: callers embedding
    ``main()`` in a larger process (the test suite, notebooks) must
    not have their global signal disposition rewritten.
    """
    from repro.parallel import install_signal_handlers

    install_signal_handlers()
    return main()


if __name__ == "__main__":
    sys.exit(_script_main())
