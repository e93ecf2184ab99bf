"""The streaming motif engine: incremental sliding-window counting.

:class:`StreamingMotifEngine` is the reference streaming engine
behind ``algorithm="fast"`` (obtained via
:func:`repro.core.registry.open_stream`).  It composes the two halves
of the ingest/count layer split:

* the mutable :class:`~repro.graph.stream_store.StreamingEdgeStore`
  owns the live edge multiset (append, sliding-window evict, time
  slices);
* the pure diff kernels of :mod:`repro.core.stream_kernels` turn each
  dirty time range into raw-counter increments, reusing the batch
  python/columnar kernels (and, for large micro-batches, one HARE job
  on the shared worker pool) unchanged.

Per accepted batch the engine recounts only the edges whose δ-window
intersects the dirty range — two slices around the batch's time span
on ingest, two slices around the eviction cutoff on expiry — instead
of the whole window, which is what makes checkpoints cheap (see
``benchmarks/bench_stream.py`` for the measured speedup over naive
per-checkpoint recounts).

Checkpoints are **bit-identical to a batch recount**: at any
checkpoint, ``counts`` equals
``count_motifs(TemporalGraph(engine.live_edges()), delta)`` exactly,
including timestamp-tie resolution (property-tested across python and
columnar kernels).

>>> from repro.core.registry import StreamRequest, open_stream
>>> engine = open_stream(StreamRequest(delta=5.0, window=50.0))
>>> engine.ingest([(0, 1, 0), (1, 0, 2), (0, 1, 4)])
3
>>> cp = engine.checkpoint()
>>> cp.counts.total(), cp.edges_live
(1, 3)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.counters import MotifCounts
from repro.core.registry import StreamRequest
from repro.errors import CheckpointCorruptError, ValidationError
from repro.graph.temporal_graph import TemporalGraph
from repro.core.stream_kernels import (
    RawCounts,
    apply_diff,
    count_slice_raw,
    project_raw,
    zero_raw,
)
from repro.graph.stream_store import StreamingEdgeStore

Edge = Tuple[Hashable, Hashable, float]

#: The three wall-clock phases every checkpoint reports.
PHASES = ("ingest", "expire", "count")


@dataclass
class Checkpoint:
    """One emitted snapshot of the streaming counts.

    ``counts`` is a regular :class:`~repro.core.counters.MotifCounts`
    whose ``phase_seconds`` holds the wall-clock split *since the
    previous checkpoint* (``ingest`` = store appends, ``expire`` =
    sliding-window eviction, ``count`` = slice building + kernels), so
    the existing ``dominant_phase`` reporting works unchanged.
    """

    seq: int
    counts: MotifCounts
    t_latest: Optional[float]
    watermark: Optional[float]
    edges_seen: int
    edges_live: int
    edges_expired: int
    edges_dropped_late: int
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def dominant_phase(self) -> Optional[Tuple[str, float]]:
        """Delegates to the counts' phase report."""
        return self.counts.dominant_phase()

    def as_dict(self, per_motif: bool = False) -> Dict[str, object]:
        """JSON-ready summary (the ``repro stream`` line format)."""
        dominant = self.dominant_phase()
        payload: Dict[str, object] = {
            "checkpoint": self.seq,
            "t_latest": self.t_latest,
            "watermark": self.watermark,
            "edges_seen": self.edges_seen,
            "edges_live": self.edges_live,
            "edges_expired": self.edges_expired,
            "edges_dropped_late": self.edges_dropped_late,
            "total": self.counts.total(),
            "phase_seconds": dict(self.phase_seconds),
            "dominant_phase": None if dominant is None else dominant[0],
        }
        if per_motif:
            payload["counts"] = self.counts.per_motif()
        return payload


class StreamingMotifEngine:
    """Incremental exact motif counting over an edge stream.

    Construct through :func:`repro.core.registry.open_stream` (which
    capability-checks the :class:`StreamRequest`); direct construction
    with a hand-built request is supported for tests.

    The three public verbs:

    * :meth:`ingest` — accept a micro-batch of ``(u, v, t)`` edges,
      update counts incrementally, expire the window;
    * :meth:`checkpoint` — project the running raw counters into a
      :class:`Checkpoint` (cheap: no recount);
    * :meth:`replay` — drive a whole edge iterable through
      micro-batches, yielding a checkpoint every
      ``checkpoint_every`` edges.
    """

    def __init__(self, request: StreamRequest) -> None:
        self.request = request
        self.store = StreamingEdgeStore()
        self._totals: RawCounts = zero_raw()
        self._phase: Dict[str, float] = {name: 0.0 for name in PHASES}
        self._phase_at_checkpoint: Dict[str, float] = dict(self._phase)
        self._num_checkpoints = 0

    # ------------------------------------------------------------------
    # counting plumbing
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the engine; a no-op kept for the context-manager protocol.

        The engine owns no processes or shared memory: parallel dirty
        slices run on ``request.pool`` or the process-wide shared pool
        (see :func:`repro.parallel.executor.runtime_pool`), which
        outlive it.
        """

    def __enter__(self) -> "StreamingMotifEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _count_range(self, t_lo: Optional[float], t_hi: Optional[float]) -> RawCounts:
        """Raw counters of the live slice ``[t_lo, t_hi)`` (count phase)."""
        request = self.request
        tick = time.perf_counter()
        graph = self.store.slice_graph(t_lo, t_hi)
        raw = count_slice_raw(
            graph,
            request.delta,
            star_pair=request.wants_star_pair,
            triangle=request.wants_triangle,
            workers=request.workers,
            pool=request.pool,
        )
        self._phase["count"] += time.perf_counter() - tick
        return raw

    # ------------------------------------------------------------------
    # ingest / expire
    # ------------------------------------------------------------------
    def ingest(self, edges: Iterable[Edge]) -> int:
        """Accept a micro-batch of edges; return how many were accepted.

        Counts update by the dirty-range diff identities of
        :mod:`repro.core.stream_kernels`: only the slice
        ``[min_batch_t - delta, +inf)`` is recounted on arrival, and
        only ``(-inf, cutoff + delta)`` on window expiry.  Late edges
        (below the watermark) and self-loops are dropped by the store
        and never touch the counters.  The store validates the whole
        batch before anything changes: a bad record raises
        :class:`~repro.errors.ValidationError` and leaves the engine
        and its store as they were.
        """
        tick = time.perf_counter()
        batch = self.store.stage(edges)  # validates everything, mutates nothing
        self._phase["ingest"] += time.perf_counter() - tick
        if batch.t_min is None:
            # Nothing countable: the commit only tallies the drops.
            return self.store.commit(batch)

        dirty_lo = batch.t_min - self.request.delta
        before = self._count_range(dirty_lo, None)
        tick = time.perf_counter()
        accepted = self.store.commit(batch)
        self._phase["ingest"] += time.perf_counter() - tick
        after = self._count_range(dirty_lo, None)
        apply_diff(self._totals, after, before)
        self._expire()
        return accepted

    def _expire(self) -> None:
        """Slide the window forward and subtract expired triples."""
        window = self.request.window
        t_latest = self.store.t_latest
        if window is None or t_latest is None:
            return
        cutoff = t_latest - window
        watermark = self.store.watermark
        if watermark is not None and cutoff <= watermark:
            return
        earliest = self.store.t_earliest
        if earliest is None or earliest >= cutoff:
            # Nothing to evict yet: advance the watermark (late-drop
            # semantics) without paying for a recount.
            tick = time.perf_counter()
            self.store.evict_before(cutoff)
            self._phase["expire"] += time.perf_counter() - tick
            return
        dirty_hi = cutoff + self.request.delta
        before = self._count_range(None, dirty_hi)
        tick = time.perf_counter()
        evicted = self.store.evict_before(cutoff)
        self._phase["expire"] += time.perf_counter() - tick
        if evicted:
            after = self._count_range(None, dirty_hi)
            apply_diff(self._totals, after, before)

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self) -> Checkpoint:
        """Project the running counters into a :class:`Checkpoint`.

        Cheap — raw totals are maintained incrementally, so this is a
        counter projection, not a recount.  The checkpoint's
        ``phase_seconds`` covers the work since the previous
        checkpoint (the per-checkpoint cost split the stream CLI
        emits).
        """
        request = self.request
        phase_seconds = {
            name: self._phase[name] - self._phase_at_checkpoint[name]
            for name in PHASES
        }
        self._phase_at_checkpoint = dict(self._phase)
        self._num_checkpoints += 1
        counts = self.counts()
        counts.phase_seconds = phase_seconds
        counts.elapsed_seconds = sum(phase_seconds.values())
        counts.meta.update(
            {
                "window": request.window,
                "workers": request.workers,
                "checkpoint": self._num_checkpoints,
            }
        )
        return Checkpoint(
            seq=self._num_checkpoints,
            counts=counts,
            t_latest=self.store.t_latest,
            watermark=self.store.watermark,
            edges_seen=self.store.num_seen,
            edges_live=self.store.num_live,
            edges_expired=self.store.num_evicted,
            edges_dropped_late=self.store.num_dropped_late,
            phase_seconds=phase_seconds,
        )

    def replay(
        self,
        edges: Iterable[Edge],
        *,
        checkpoint_every: Optional[int] = None,
        batch_edges: Optional[int] = None,
    ) -> Iterator[Checkpoint]:
        """Drive an edge iterable through the engine, yielding checkpoints.

        ``checkpoint_every`` edges (default: the request's) separate
        consecutive checkpoints; ``batch_edges`` (default: one batch
        per checkpoint) sets the micro-batch granularity within a
        checkpoint interval.  A final checkpoint covering any trailing
        partial interval is always emitted when edges were processed.
        """
        every = checkpoint_every or self.request.checkpoint_every
        batch_size = min(batch_edges or every, every)
        buffer: List[Edge] = []
        since_checkpoint = 0
        for edge in edges:
            buffer.append(edge)
            if len(buffer) >= batch_size:
                self.ingest(buffer)
                since_checkpoint += len(buffer)
                buffer = []
                if since_checkpoint >= every:
                    yield self.checkpoint()
                    since_checkpoint = 0
        if buffer:
            self.ingest(buffer)
            since_checkpoint += len(buffer)
        if since_checkpoint:
            yield self.checkpoint()

    # ------------------------------------------------------------------
    # crash-safe checkpoints
    # ------------------------------------------------------------------
    def records_consumed(self) -> int:
        """Input records routed through the store so far.

        Accepted + late-dropped + self-loop-dropped — i.e. the exact
        prefix length of the input stream this engine has consumed,
        which is what a resumed replay skips.
        """
        store = self.store
        return store.num_seen + store.num_dropped_late + store.num_self_loops_dropped

    def checkpoint_to(self, directory) -> str:
        """Commit a crash-safe checkpoint into ``directory``.

        Writes the live window as a canonical ``.rgz`` snapshot plus a
        CRC'd journal of engine state (see
        :mod:`repro.storage.checkpoint` for the format and the
        crash-ordering guarantees); returns the journal path.  Cheap
        relative to counting: the store's run is already in canonical
        order, so this is two sequential file writes, no sort and no
        recount.
        """
        from repro.storage import checkpoint as ckpt

        store = self.store
        src, dst, t = store.canonical_arrays()
        graph = TemporalGraph.from_canonical_arrays(src, dst, t, num_nodes=store.num_nodes)
        request = self.request
        state = {
            "config": {
                "delta": request.delta,
                "window": request.window,
                "algorithm": request.algorithm,
                "categories": request.categories,
            },
            "store": store.snapshot_state(),
            "engine": {
                "totals": [arr.tolist() for arr in self._totals],
                "checkpoints": self._num_checkpoints,
            },
            "progress": {"records_consumed": self.records_consumed()},
        }
        return ckpt.write_checkpoint(
            directory, seq=self._num_checkpoints, graph=graph, state=state
        )

    @classmethod
    def resume_from(
        cls, directory, request: Optional[StreamRequest] = None
    ) -> "StreamingMotifEngine":
        """Rebuild an engine from the checkpoint committed in ``directory``.

        With ``request=None`` the stream config is taken from the
        journal (execution knobs — workers, batch sizes — take their
        defaults).  A provided ``request`` must agree with the journal
        on every answer-shaping field (δ, window, algorithm,
        categories); parallelism may differ freely because counts are
        bit-identical across it.  Corruption anywhere
        raises :class:`~repro.errors.CheckpointCorruptError` before any
        engine state exists — there is no partial resume.
        """
        from repro.storage import checkpoint as ckpt

        data = ckpt.read_checkpoint(directory)
        config = data["config"]
        if request is None:
            request = StreamRequest(
                delta=config["delta"],
                window=config["window"],
                algorithm=config["algorithm"],
                categories=config["categories"],
            )
        else:
            mismatches = [
                f"{key}: checkpoint {config[key]!r} != request {getattr(request, key)!r}"
                for key in ("delta", "window", "algorithm", "categories")
                if config[key] != getattr(request, key)
            ]
            if mismatches:
                raise ValidationError(
                    "cannot resume: the checkpoint was written under a "
                    "different stream config (" + "; ".join(mismatches) + ")"
                )

        src, dst, t = data["snapshot_arrays"]
        store_state = data["store"]
        try:
            store = StreamingEdgeStore.restore(
                labels=store_state["labels"],
                src=src, dst=dst, t=t,
                watermark=store_state["watermark"],
                t_latest=store_state["t_latest"],
                num_evicted=store_state["num_evicted"],
                num_dropped_late=store_state["num_dropped_late"],
                num_self_loops_dropped=store_state["num_self_loops_dropped"],
                version=store_state["version"],
            )
        except ValidationError as exc:
            raise CheckpointCorruptError(
                f"{ckpt.journal_path(directory)}: inconsistent checkpoint "
                f"state: {exc}"
            ) from exc
        totals = tuple(
            np.array(col, dtype=np.int64) for col in data["engine"]["totals"]
        )

        engine = cls(request)
        engine.store = store
        engine._totals = totals
        engine._num_checkpoints = int(data["engine"]["checkpoints"])
        return engine

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def live_edges(self) -> List[Edge]:
        """Live ``(u, v, t)`` triples in arrival order (recount oracle)."""
        return self.store.live_edges()

    def counts(self) -> MotifCounts:
        """Current counts without advancing the checkpoint sequence."""
        request = self.request
        counts = project_raw(
            self._totals,
            star_pair=request.wants_star_pair,
            triangle=request.wants_triangle,
            delta=request.delta,
        ).masked(request.categories)
        counts.algorithm = f"stream[{request.algorithm}]"
        return counts
