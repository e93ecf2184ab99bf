"""Appendable, evictable columnar edge store for streaming workloads.

The batch stack assumes a fully-materialised, pre-sorted graph:
:class:`~repro.graph.temporal_graph.TemporalGraph` is immutable and
:meth:`~repro.graph.temporal_graph.TemporalGraph.columnar` caches a
static structure-of-arrays view.  A stream of timestamped edges breaks
both assumptions — edges keep arriving (possibly slightly out of
order) and a sliding window keeps expiring them.  This module is the
mutable half of the layer split: :class:`StreamingEdgeStore` owns
*ingest* (append, evict, slice), while the counting kernels stay pure
functions over immutable slice graphs.

Layout
------
Live edges are held as **sorted runs** — LSM-style ring-buffer
segments.  Appends go to an unsorted tail buffer; flushing sorts the
tail by ``(t, arrival seq)`` into a new run, and when the run count
exceeds ``max_runs`` all runs are merged into one (lazy merging: the
cost is amortised, and slicing only ever binary-searches a handful of
runs).  Eviction advances a per-run head pointer — a ring-buffer
consume, with the storage compacted once more than half a run is dead
— so a sliding window is O(log r) bookkeeping per run, not an O(m)
rebuild.

Canonical order
---------------
Every edge gets a global **arrival sequence number**.  Slices are
materialised in arrival order, so a
:class:`~repro.graph.temporal_graph.TemporalGraph` built from a slice
sorts them by ``(t, arrival)`` — exactly the canonical ``(t, input
position)`` tie-break a batch build over the same edges would use.
That is what makes streaming counts *bit-identical* to batch recounts
(property-tested in ``tests/core/test_streaming.py``).

Node labels are interned to dense internal ids exactly like
``TemporalGraph`` does; slice graphs are built over internal ids and
:meth:`StreamingEdgeStore.live_edges` converts back to labels at the
API boundary.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.graph.temporal_graph import TemporalGraph

_SELF_LOOP_POLICIES = ("drop", "error")

#: Compact a run's storage once its dead prefix passes this fraction.
_COMPACT_FRACTION = 0.5


class _Run:
    """One immutable sorted segment: parallel arrays ordered by (t, seq).

    ``head`` is the index of the first *live* entry — eviction advances
    it instead of copying, and :meth:`compact` reclaims storage once
    the dead prefix dominates.
    """

    __slots__ = ("src", "dst", "t", "seq", "head")

    def __init__(self, src: np.ndarray, dst: np.ndarray, t: np.ndarray, seq: np.ndarray) -> None:
        self.src = src
        self.dst = dst
        self.t = t
        self.seq = seq
        self.head = 0

    def __len__(self) -> int:
        return len(self.t) - self.head

    def evict_before(self, cutoff: float) -> int:
        """Advance ``head`` past entries with ``t < cutoff``; return count."""
        new_head = int(np.searchsorted(self.t, cutoff, side="left"))
        evicted = max(new_head - self.head, 0)
        self.head = max(self.head, new_head)
        return evicted

    def compact(self) -> None:
        if self.head and self.head >= _COMPACT_FRACTION * len(self.t):
            self.src = self.src[self.head:].copy()
            self.dst = self.dst[self.head:].copy()
            self.t = self.t[self.head:].copy()
            self.seq = self.seq[self.head:].copy()
            self.head = 0

    def slice_bounds(self, t_lo: Optional[float], t_hi: Optional[float]) -> Tuple[int, int]:
        """Index range of live entries with ``t_lo <= t < t_hi``."""
        lo = self.head
        if t_lo is not None:
            lo = max(lo, int(np.searchsorted(self.t, t_lo, side="left")))
        hi = len(self.t)
        if t_hi is not None:
            hi = min(hi, int(np.searchsorted(self.t, t_hi, side="left")))
        return lo, max(hi, lo)


class StreamingEdgeStore:
    """Mutable columnar multiset of live temporal edges.

    Parameters
    ----------
    max_runs:
        Sorted-run count that triggers a full merge on the next flush
        (the lazy-merge knob; higher defers sort work, lower keeps
        slicing cheaper).
    on_self_loop:
        ``"drop"`` (default) or ``"error"`` — same policy and default
        as :class:`~repro.graph.temporal_graph.TemporalGraph`, so a
        batch rebuild of the live set sees the same edge multiset.

    Invariants
    ----------
    * ``watermark`` only advances; an arriving edge with
      ``t < watermark`` is *late* — outside the window by definition —
      and is dropped (counted in :attr:`num_dropped_late`).
    * ``num_seen == num_live + num_evicted`` at all times.
    * :attr:`version` bumps on every append/evict, so derived caches
      can detect staleness (the streaming analogue of
      :meth:`TemporalGraph.invalidate_caches
      <repro.graph.temporal_graph.TemporalGraph.invalidate_caches>`).
    """

    def __init__(self, *, max_runs: int = 8, on_self_loop: str = "drop") -> None:
        if max_runs < 1:
            raise ValidationError(f"max_runs must be >= 1, got {max_runs}")
        if on_self_loop not in _SELF_LOOP_POLICIES:
            raise ValidationError(
                f"on_self_loop must be one of {_SELF_LOOP_POLICIES}, got {on_self_loop!r}"
            )
        self._max_runs = max_runs
        self._on_self_loop = on_self_loop
        self._labels: List[Hashable] = []
        self._index: Dict[Hashable, int] = {}
        self._runs: List[_Run] = []
        self._tail_src: List[int] = []
        self._tail_dst: List[int] = []
        self._tail_t: List[float] = []
        self._tail_seq: List[int] = []
        self._next_seq = 0
        self._watermark: Optional[float] = None
        self._t_latest: Optional[float] = None
        self._num_evicted = 0
        self._num_dropped_late = 0
        self._num_self_loops_dropped = 0
        self._version = 0

    # ------------------------------------------------------------------
    # bookkeeping properties
    # ------------------------------------------------------------------
    @property
    def num_live(self) -> int:
        """Edges currently in the store (appended, not yet evicted)."""
        return sum(len(run) for run in self._runs) + len(self._tail_t)

    @property
    def num_seen(self) -> int:
        """Edges ever accepted (live + evicted; excludes drops)."""
        return self.num_live + self._num_evicted

    @property
    def num_evicted(self) -> int:
        """Edges removed by :meth:`evict_before`."""
        return self._num_evicted

    @property
    def num_dropped_late(self) -> int:
        """Arrivals rejected because ``t`` was below the watermark."""
        return self._num_dropped_late

    @property
    def num_self_loops_dropped(self) -> int:
        return self._num_self_loops_dropped

    @property
    def watermark(self) -> Optional[float]:
        """Low time bound of the live window (``None`` before any evict)."""
        return self._watermark

    @property
    def t_latest(self) -> Optional[float]:
        """Largest timestamp ever accepted (``None`` while empty)."""
        return self._t_latest

    @property
    def t_earliest(self) -> Optional[float]:
        """Smallest live timestamp (``None`` when no edges are live).

        O(runs + tail): run heads are sorted, the tail is scanned.
        Lets the engine skip expiry recounts when the window cutoff
        has not yet reached any live edge.
        """
        candidates = [float(run.t[run.head]) for run in self._runs if len(run)]
        if self._tail_t:
            candidates.append(float(min(self._tail_t)))
        return min(candidates) if candidates else None

    @property
    def num_nodes(self) -> int:
        """Distinct node labels ever interned (never shrinks)."""
        return len(self._labels)

    @property
    def version(self) -> int:
        """Monotone edit stamp; bumps on every append or eviction."""
        return self._version

    def __len__(self) -> int:
        return self.num_live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingEdgeStore(live={self.num_live}, runs={len(self._runs)}, "
            f"tail={len(self._tail_t)}, watermark={self._watermark})"
        )

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def _intern(self, label: Hashable) -> int:
        idx = self._index.get(label)
        if idx is None:
            idx = len(self._labels)
            self._index[label] = idx
            self._labels.append(label)
        return idx

    def append(self, u: Hashable, v: Hashable, t: float) -> bool:
        """Ingest one edge; return whether it was accepted.

        Rejections: self-loops (per policy) and *late* edges whose
        timestamp is below the watermark — those are outside the live
        window by definition and accepting them would make the window
        semantics (and the incremental count diffs) unsound.
        """
        if not isinstance(t, (int, float, np.integer, np.floating)):
            raise ValidationError(f"timestamp must be numeric, got {t!r}")
        if isinstance(t, (float, np.floating)) and not math.isfinite(t):
            # NaN compares false against the watermark and infinities
            # break window arithmetic; neither can be a live edge.
            raise ValidationError(f"timestamp must be finite, got {t!r}")
        if u == v:
            if self._on_self_loop == "error":
                raise ValidationError(f"self-loop edge ({u!r}, {v!r}, {t!r})")
            self._num_self_loops_dropped += 1
            return False
        if self._watermark is not None and t < self._watermark:
            self._num_dropped_late += 1
            return False
        self._tail_src.append(self._intern(u))
        self._tail_dst.append(self._intern(v))
        self._tail_t.append(t)
        self._tail_seq.append(self._next_seq)
        self._next_seq += 1
        if self._t_latest is None or t > self._t_latest:
            self._t_latest = t
        self._version += 1
        return True

    def extend(self, edges: Iterable[Tuple[Hashable, Hashable, float]]) -> int:
        """Ingest a batch of ``(u, v, t)`` edges; return accepted count."""
        accepted = 0
        for record in edges:
            try:
                u, v, t = record
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"edge records must be (u, v, t) triples, got {record!r}"
                ) from exc
            if self.append(u, v, t):
                accepted += 1
        return accepted

    def _flush(self) -> None:
        """Sort the tail into a run; merge all runs past ``max_runs``."""
        if self._tail_t:
            seq = np.array(self._tail_seq, dtype=np.int64)
            t = np.array(self._tail_t)
            if not np.issubdtype(t.dtype, np.floating):
                t = t.astype(np.int64)
            order = np.lexsort((seq, t))
            self._runs.append(
                _Run(
                    np.array(self._tail_src, dtype=np.int64)[order],
                    np.array(self._tail_dst, dtype=np.int64)[order],
                    t[order],
                    seq[order],
                )
            )
            self._tail_src = []
            self._tail_dst = []
            self._tail_t = []
            self._tail_seq = []
        if len(self._runs) > self._max_runs:
            self._merge_runs()

    def _merge_runs(self) -> None:
        live = [run for run in self._runs if len(run)]
        if not live:
            self._runs = []
            return
        src = np.concatenate([run.src[run.head:] for run in live])
        dst = np.concatenate([run.dst[run.head:] for run in live])
        t = np.concatenate([run.t[run.head:] for run in live])
        seq = np.concatenate([run.seq[run.head:] for run in live])
        order = np.lexsort((seq, t))
        self._runs = [_Run(src[order], dst[order], t[order], seq[order])]

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def evict_before(self, cutoff: float) -> int:
        """Remove every live edge with ``t < cutoff``; return count.

        Advances the watermark to ``cutoff`` (watermarks never
        regress; an already-passed cutoff is a no-op) and compacts
        runs whose dead prefix grew past half their storage.
        """
        if self._watermark is not None and cutoff <= self._watermark:
            return 0
        self._flush()
        evicted = 0
        kept: List[_Run] = []
        for run in self._runs:
            evicted += run.evict_before(cutoff)
            if len(run):
                run.compact()
                kept.append(run)
        self._runs = kept
        self._watermark = cutoff
        if evicted:
            self._num_evicted += evicted
            self._version += 1
        return evicted

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """JSON-ready store bookkeeping for a streaming checkpoint.

        The live edges themselves travel separately (a packed canonical
        snapshot via :meth:`slice_arrays`); this is everything else a
        :meth:`restore` needs — the label table and the window/drop
        counters.  Arrival sequence numbers are deliberately absent:
        the canonical snapshot preserves equal-timestamp arrival order,
        so a restore may renumber from zero (seq is only ever a
        tie-break within one timestamp).
        """
        return {
            "labels": list(self._labels),
            "watermark": self._watermark,
            "t_latest": self._t_latest,
            "num_evicted": self._num_evicted,
            "num_dropped_late": self._num_dropped_late,
            "num_self_loops_dropped": self._num_self_loops_dropped,
            "version": self._version,
        }

    @classmethod
    def restore(
        cls,
        *,
        labels,
        src: np.ndarray,
        dst: np.ndarray,
        t: np.ndarray,
        watermark: Optional[float],
        t_latest: Optional[float],
        num_evicted: int = 0,
        num_dropped_late: int = 0,
        num_self_loops_dropped: int = 0,
        version: int = 0,
        max_runs: int = 8,
        on_self_loop: str = "drop",
    ) -> "StreamingEdgeStore":
        """Rebuild a store from a canonical snapshot + bookkeeping.

        ``src``/``dst``/``t`` are internal-id edge columns in canonical
        ``(t, arrival)`` order (what a checkpoint snapshot holds).  The
        restored store renumbers arrival sequences ``0..m-1`` in that
        order — equal-timestamp ties keep their relative arrival order,
        so every future slice, canonicalization, and count over the
        restored store is bit-identical to one over the original.
        Validation failures raise :class:`ValidationError`; the caller
        (the checkpoint layer) maps them to its typed corruption error.
        """
        store = cls(max_runs=max_runs, on_self_loop=on_self_loop)
        store._labels = list(labels)
        store._index = {label: i for i, label in enumerate(store._labels)}
        if len(store._index) != len(store._labels):
            raise ValidationError("restore: duplicate node labels in snapshot")
        src = np.ascontiguousarray(np.asarray(src, dtype=np.int64))
        dst = np.ascontiguousarray(np.asarray(dst, dtype=np.int64))
        t = np.ascontiguousarray(np.asarray(t))
        if not (len(src) == len(dst) == len(t)):
            raise ValidationError("restore: edge column lengths disagree")
        m = len(t)
        if m:
            if np.any(t[1:] < t[:-1]):
                raise ValidationError("restore: snapshot timestamps are not sorted")
            lo = min(int(src.min()), int(dst.min()))
            hi = max(int(src.max()), int(dst.max()))
            if lo < 0 or hi >= len(store._labels):
                raise ValidationError(
                    f"restore: node ids outside the {len(store._labels)}-label table"
                )
            if watermark is not None and float(t[0]) < watermark:
                raise ValidationError(
                    "restore: live edge below the recorded watermark"
                )
            if t_latest is None or float(t[-1]) > t_latest:
                raise ValidationError(
                    "restore: live edge newer than the recorded t_latest"
                )
            store._runs = [_Run(src, dst, t, np.arange(m, dtype=np.int64))]
        store._next_seq = m
        # Keep the journal's numeric types: coercing an int watermark
        # to float would change resumed JSON output (120 vs 120.0) and
        # break bit-identical checkpoint comparisons.
        store._watermark = watermark
        store._t_latest = t_latest
        store._num_evicted = int(num_evicted)
        store._num_dropped_late = int(num_dropped_late)
        store._num_self_loops_dropped = int(num_self_loops_dropped)
        store._version = int(version)
        return store

    # ------------------------------------------------------------------
    # slicing
    # ------------------------------------------------------------------
    def slice_arrays(
        self, t_lo: Optional[float] = None, t_hi: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live edges with ``t_lo <= t < t_hi``, in arrival order.

        Returns parallel ``(src, dst, t)`` arrays of *internal* node
        ids.  ``None`` bounds are unbounded.  Arrival order means a
        ``TemporalGraph`` built from these arrays breaks timestamp
        ties exactly like a batch build over the same arrivals.
        """
        self._flush()
        pieces: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        for run in self._runs:
            lo, hi = run.slice_bounds(t_lo, t_hi)
            if hi > lo:
                pieces.append((run.src[lo:hi], run.dst[lo:hi], run.t[lo:hi], run.seq[lo:hi]))
        if not pieces:
            empty_t = np.zeros(0, dtype=np.int64)
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), empty_t
        src = np.concatenate([p[0] for p in pieces])
        dst = np.concatenate([p[1] for p in pieces])
        t = np.concatenate([p[2] for p in pieces])
        seq = np.concatenate([p[3] for p in pieces])
        order = np.argsort(seq, kind="stable")
        return src[order], dst[order], t[order]

    def slice_graph(
        self, t_lo: Optional[float] = None, t_hi: Optional[float] = None
    ) -> TemporalGraph:
        """An immutable :class:`TemporalGraph` of one time slice.

        The graph's node labels are the store's internal ids (ints) —
        counting kernels are label-agnostic, so slices never go back to
        the original labels.  The graph equals
        ``TemporalGraph.from_arrays`` over :meth:`slice_arrays` (same
        ids, order and timestamp dtype), built in NumPy: ids are dense
        by first appearance in the interleaved ``src, dst`` arrival
        stream, then one stable sort on ``t`` gives the canonical
        order.  Self-loops were already dropped at ingest.
        """
        src, dst, t = self.slice_arrays(t_lo, t_hi)
        stream = np.empty(2 * len(t), dtype=np.int64)
        stream[0::2] = src
        stream[1::2] = dst
        ids, first, inverse = np.unique(stream, return_index=True, return_inverse=True)
        by_arrival = np.argsort(first)
        dense = np.empty(len(ids), dtype=np.int64)
        dense[by_arrival] = np.arange(len(ids))
        stream = dense[inverse]
        order = np.argsort(t, kind="stable")
        return TemporalGraph.from_canonical_arrays(
            stream[0::2][order], stream[1::2][order], t[order],
            labels=ids[by_arrival].tolist(),
        )

    def live_graph(self) -> TemporalGraph:
        """A :class:`TemporalGraph` of every live edge (arrival order)."""
        return self.slice_graph(None, None)

    def live_edges(self) -> List[Tuple[Hashable, Hashable, float]]:
        """Live ``(u, v, t)`` triples with original labels, arrival order.

        This is the batch-recount oracle: feeding the returned list to
        ``TemporalGraph`` reproduces the exact canonical order the
        streaming counts are defined over.
        """
        src, dst, t = self.slice_arrays(None, None)
        labels = self._labels
        return [
            (labels[s], labels[d], ts)
            for s, d, ts in zip(src.tolist(), dst.tolist(), t.tolist())
        ]
