"""Unified counting entry point, dispatching over the algorithm registry.

:func:`count_motifs` is the one-call public API.  Since the registry
redesign it is a thin shim: the keyword signature (kept for
compatibility with every pre-registry call site) is packed into a
:class:`~repro.core.registry.CountRequest` and handed to
:func:`~repro.core.registry.execute`, which dispatches to whichever
:func:`~repro.core.registry.register_algorithm`-decorated algorithm the
request names — the paper's FAST/HARE or any of the six baselines.

:func:`count_motifs_sweep` batches the multi-δ / multi-algorithm grid
of runs every benchmark needs, returning a :class:`SweepResult`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.counters import MotifCounts
from repro.core.registry import (
    CATEGORIES,
    CountRequest,
    StreamRequest,
    available_algorithms,
    execute,
    open_stream,
)
from repro.errors import ValidationError
from repro.graph.temporal_graph import TemporalGraph

def __getattr__(name: str):
    # Compatibility: ``from repro.core.api import ALGORITHMS`` resolves
    # lazily to the live registry (PEP 562), so importing repro does not
    # force adapter registration and later registrations are visible.
    if name == "ALGORITHMS":
        return available_algorithms()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALGORITHMS",
    "CATEGORIES",
    "StreamRequest",
    "SweepResult",
    "count_motifs",
    "count_motifs_sweep",
    "open_stream",
    "stream_motifs",
]


def count_motifs(
    graph: Union[TemporalGraph, CountRequest],
    delta: Optional[float] = None,
    *,
    algorithm: str = "fast",
    categories: str = "all",
    workers: int = 1,
    thrd: Optional[float] = None,
    schedule: str = "dynamic",
    seed: Optional[int] = None,
    n_samples: Optional[int] = None,
    pool: Optional[object] = None,
    start_method: Optional[str] = None,
    request_id: Optional[str] = None,
    deadline: Optional[float] = None,
    source: Optional[str] = None,
    shard_budget: Optional[int] = None,
    num_shards: Optional[int] = None,
    shard_boundaries: Optional[Sequence[int]] = None,
    cluster: Optional[str] = None,
    **params: object,
) -> MotifCounts:
    """Count 2- and 3-node, 3-edge δ-temporal motifs (Problem 1).

    Parameters
    ----------
    graph:
        Input temporal graph — or a ready-made
        :class:`~repro.core.registry.CountRequest`, in which case every
        other argument must be left at its default.  Also accepts an
        open :class:`~repro.storage.format.PackedGraph` or a path to a
        packed file (``repro pack`` output), equivalent to passing
        ``source=`` with ``graph=None``.
    delta:
        Time constraint δ, in the timestamps' unit.
    algorithm:
        Any registered algorithm name: ``"fast"`` (the paper's
        FAST-Star + FAST-Tri, default), ``"ex"``, ``"bruteforce"``,
        ``"bt"``, ``"twoscent"``, or the sampling estimators ``"bts"``
        and ``"ews"``.  See
        :func:`repro.core.registry.available_algorithms`.
    categories:
        Restrict counting to ``"star"``, ``"pair"``, ``"triangle"`` or
        ``"star_pair"``; ``"all"`` (default) counts everything.  Cells
        outside the selection are zero in the returned grid.
    workers:
        Degree of parallelism.  ``1`` runs serially in-process; ``> 1``
        runs the algorithm's parallel mode (HARE for FAST, time slabs
        for EX, block farming for BTS) and is rejected for
        serial-only algorithms.
    thrd:
        HARE's degree threshold for intra-node parallelism.  ``None``
        uses the paper's default: the minimum degree among the top-20
        highest-degree nodes.
    schedule:
        ``"dynamic"`` (default) or ``"static"`` task scheduling, the
        OpenMP analogy of §IV-C.
    seed:
        RNG seed for sampling algorithms (default 0).
    n_samples:
        Sampling algorithms only: number of independent replicates to
        average (default 3); the result's ``stderr`` grid holds the
        standard error of the mean across replicates.
    pool:
        A persistent :class:`~repro.parallel.pool.WorkerPool` for
        parallel algorithms.  Without one, ``workers > 1`` runs on the
        process-wide shared pool; either way repeated calls against
        the same graph reuse the published shared-memory arrays, the
        memoized HARE plan, and (for identical requests) the
        raw-counter cache.
    start_method:
        How the shared pool starts its workers when no ``pool`` is
        given (``"fork"``/``"spawn"``); default honours the
        ``REPRO_START_METHOD`` environment variable, then the
        platform.  Counts are identical across methods.
    request_id:
        Optional caller-assigned trace id, recorded in
        ``result.meta["request_id"]``.  Never affects results.  The
        serving layer passes none: a coalesced or answer-table result
        is shared by several waiters, so it cannot carry one waiter's
        wire id, which is echoed only in the reply envelope.
    deadline:
        Optional absolute :func:`time.monotonic` instant after which
        the call raises :class:`~repro.errors.DeadlineExceededError`
        instead of finishing; pool-backed runs abort mid-flight.
    source:
        Path to a packed graph file to count instead of ``graph``
        (opened zero-copy through ``mmap``); pass ``graph=None``.
    shard_budget:
        Maximum own edges per time shard: exact algorithms run through
        the out-of-core shard-halo union of
        :mod:`repro.storage.sharded` with peak memory proportional to
        this budget.  Results are bit-identical to the in-memory path.
    num_shards:
        Alternative cut mode: split the canonical edge sequence into
        that many near-equal shards instead of budgeting edges.  At
        most one of ``shard_budget`` / ``num_shards`` /
        ``shard_boundaries`` may be given.
    shard_boundaries:
        Explicit interior canonical-edge-id cut points (strictly
        increasing) — full control over where the shard-halo union
        cuts; the equivalence property tests randomize over these.
    cluster:
        Comma-separated ``host:port`` addresses of ``repro worker``
        daemons: exact algorithms run the shard plan *distributed*
        across them (:mod:`repro.distributed`), with locality-aware
        placement, retried dispatch under exactly-once accounting,
        and results bit-identical to the serial shard-halo union.
        Combine with any one cut mode above (default: four
        shards per worker).  Sampling estimators run whole-graph
        locally, as with sharding.
    params:
        Algorithm-specific extras declared in the registry, e.g.
        ``q=0.3, window_factor=5.0`` for BTS or ``p=0.01, q=1.0`` for
        EWS.

    Returns
    -------
    MotifCounts
        The unified result: counts with ``is_exact``, ``stderr`` (for
        sampling algorithms), ``elapsed_seconds``, ``phase_seconds``
        and provenance metadata filled in.
    """
    if isinstance(graph, (str, os.PathLike)):
        # Path sugar: count_motifs("graph.rgz", delta) == source=.
        if source is not None:
            raise ValidationError("pass a packed path as graph OR source, not both")
        graph, source = None, os.fspath(graph)
    elif graph is not None and not isinstance(graph, (TemporalGraph, CountRequest)):
        # An open PackedGraph (duck-typed to avoid importing storage
        # on every count): count its mmap-backed graph object.
        inner = getattr(graph, "graph", None)
        if isinstance(inner, TemporalGraph):
            graph = inner
    if isinstance(graph, CountRequest):
        overrides = {
            "delta": delta is not None,
            "algorithm": algorithm != "fast",
            "categories": categories != "all",
            "workers": workers != 1,
            "thrd": thrd is not None,
            "schedule": schedule != "dynamic",
            "seed": seed is not None,
            "n_samples": n_samples is not None,
            "pool": pool is not None,
            "start_method": start_method is not None,
            "request_id": request_id is not None,
            "deadline": deadline is not None,
            "source": source is not None,
            "shard_budget": shard_budget is not None,
            "num_shards": num_shards is not None,
            "shard_boundaries": shard_boundaries is not None,
            "cluster": cluster is not None,
            "params": bool(params),
        }
        given = sorted(name for name, set_ in overrides.items() if set_)
        if given:
            raise ValidationError(
                f"count_motifs(request) takes no other arguments (got {given}); "
                "set them on the CountRequest instead"
            )
        return execute(graph)
    request = CountRequest(
        graph=graph,
        delta=delta,
        algorithm=algorithm,
        categories=categories,
        workers=workers,
        thrd=thrd,
        schedule=schedule,
        seed=seed,
        n_samples=n_samples,
        pool=pool,
        start_method=start_method,
        request_id=request_id,
        deadline=deadline,
        source=source,
        shard_budget=shard_budget,
        num_shards=num_shards,
        shard_boundaries=None if shard_boundaries is None else tuple(shard_boundaries),
        cluster=cluster,
        params=dict(params),
    )
    return execute(request)


def stream_motifs(
    edges,
    delta: float,
    *,
    window: Optional[float] = None,
    algorithm: str = "fast",
    categories: str = "all",
    workers: int = 1,
    checkpoint_every: int = 10_000,
    batch_edges: Optional[int] = None,
    **params: object,
):
    """Replay an edge iterable and yield per-checkpoint counts.

    The one-call streaming API: builds a
    :class:`~repro.core.registry.StreamRequest`, opens the incremental
    engine through the registry (:func:`~repro.core.registry.open_stream`)
    and drives ``edges`` through it, yielding a
    :class:`~repro.core.streaming.Checkpoint` every
    ``checkpoint_every`` edges (plus a final one for any trailing
    partial interval).  Checkpoint counts are bit-identical to a batch
    :func:`count_motifs` recount of the engine's live edge set.

    Parameters mirror :func:`count_motifs` where they overlap;
    ``window`` is the sliding-window width (``None`` = append-only)
    and ``batch_edges`` the ingest micro-batch size (default: one
    batch per checkpoint interval).

    >>> from repro.core.api import stream_motifs
    >>> edges = [(0, 1, t) for t in range(6)]
    >>> [cp.counts.total() for cp in stream_motifs(edges, 10, checkpoint_every=3)]
    [1, 20]
    """
    request = StreamRequest(
        delta=delta,
        window=window,
        algorithm=algorithm,
        categories=categories,
        workers=workers,
        checkpoint_every=checkpoint_every,
        params=dict(params),
    )
    # Plain function returning the replay generator (not a generator
    # function): validation errors surface at the call site, exactly
    # like count_motifs.
    engine = open_stream(request)
    return engine.replay(edges, batch_edges=batch_edges)


@dataclass
class SweepResult:
    """Results of a multi-δ / multi-algorithm sweep.

    Iterates in run order (algorithms outer, deltas inner); lookup by
    ``(algorithm, delta)`` via :meth:`get`.
    """

    keys: List[Tuple[str, float]] = field(default_factory=list)
    results: List[MotifCounts] = field(default_factory=list)

    def add(self, algorithm: str, delta: float, result: MotifCounts) -> None:
        self.keys.append((algorithm, delta))
        self.results.append(result)

    def get(self, algorithm: str, delta: float) -> MotifCounts:
        """The result of one (algorithm, δ) cell of the sweep."""
        for key, result in zip(self.keys, self.results):
            if key == (algorithm, delta):
                return result
        raise ValidationError(
            f"no sweep result for ({algorithm!r}, {delta!r}); ran {self.keys}"
        )

    def elapsed(self, algorithm: str) -> List[float]:
        """Wall-clock seconds of one algorithm's runs, in δ order."""
        return [
            result.elapsed_seconds
            for key, result in zip(self.keys, self.results)
            if key[0] == algorithm
        ]

    def phase_report(self) -> List[Dict[str, object]]:
        """Per-run provenance: timing and dominant phase of every cell.

        One dict per sweep cell (run order) with ``algorithm``,
        ``delta``, ``elapsed_seconds``, ``phase_seconds`` and the
        ``dominant_phase`` pair — what benchmark drivers print to show
        which phase the runtime went to.
        """
        report: List[Dict[str, object]] = []
        for (algorithm, delta), result in zip(self.keys, self.results):
            report.append(
                {
                    "algorithm": algorithm,
                    "delta": delta,
                    "elapsed_seconds": result.elapsed_seconds,
                    "phase_seconds": dict(result.phase_seconds),
                    "dominant_phase": result.dominant_phase(),
                }
            )
        return report

    def __iter__(self) -> Iterator[MotifCounts]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


def count_motifs_sweep(
    graph: TemporalGraph,
    deltas: Sequence[float],
    algorithms: Sequence[str] = ("fast",),
    *,
    categories: str = "all",
    workers: int = 1,
    thrd: Optional[float] = None,
    schedule: str = "dynamic",
    seed: Optional[int] = None,
    n_samples: Optional[int] = None,
    pool: Optional[object] = None,
    start_method: Optional[str] = None,
    deadline: Optional[float] = None,
    **params: object,
) -> SweepResult:
    """Run every (algorithm, δ) combination and collect the results.

    This is the batch shape the ``bench_*`` experiments need — one
    graph, several δ values, several algorithms — without hand-rolled
    double loops.  Algorithm-specific ``params`` are forwarded only to
    the algorithms that declare them, so mixed sweeps like
    ``algorithms=("fast", "bts"), q=0.5`` work.

    With ``workers > 1`` every parallel cell runs on one persistent
    :class:`~repro.parallel.pool.WorkerPool` — the one passed as
    ``pool=``, or the process-wide shared pool — so the graph is
    published to shared memory once and the HARE plan is memoized
    across the sweep's cells.
    """
    from repro.core.registry import get_algorithm

    if not deltas:
        raise ValidationError("deltas must be non-empty")
    if not algorithms:
        raise ValidationError("algorithms must be non-empty")
    specs = [get_algorithm(name) for name in algorithms]
    # A param must be meaningful to at least one algorithm in the sweep;
    # otherwise it is a typo and silently dropping it would hide it.
    orphaned = [
        key for key in params if not any(key in spec.params for spec in specs)
    ]
    if orphaned:
        raise ValidationError(
            f"parameter(s) {sorted(orphaned)} are accepted by none of "
            f"{tuple(algorithms)}"
        )
    sweep = SweepResult()
    for spec in specs:
        accepted: Dict[str, object] = {
            key: value for key, value in params.items() if key in spec.params
        }
        for delta in deltas:
            request = CountRequest(
                graph=graph,
                delta=delta,
                algorithm=spec.name,
                categories=categories,
                workers=workers if spec.parallel else 1,
                thrd=thrd,
                schedule=schedule,
                seed=seed if not spec.is_exact else None,
                n_samples=n_samples if not spec.is_exact else None,
                pool=pool if spec.parallel else None,
                start_method=start_method,
                deadline=deadline,
                params=accepted,
            )
            sweep.add(spec.name, delta, execute(request))
    return sweep
