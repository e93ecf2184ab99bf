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
Live edges are **one sorted run**: four parallel arrays (``src``,
``dst``, ``t``, arrival ``seq``) ordered by ``(t, seq)``.  A motif
window is a contiguous range of that order, so every time slice is one
index range found by binary search.  A batch is merged in with one
stable sort of the batch, one ``searchsorted(side="right")`` (an
equal-timestamp arrival lands after the live edges it ties with) and
one insert; eviction is one ``searchsorted`` and a slice of the run's
live suffix.

Ingest is all or nothing: :meth:`StreamingEdgeStore.stage` parses and
validates a whole batch without touching the store, and
:meth:`StreamingEdgeStore.commit` applies it.  A batch with one bad
record raises :class:`~repro.errors.ValidationError` and changes nothing.

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

from itertools import chain
from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.graph.temporal_graph import TemporalGraph

_SELF_LOOP_POLICIES = ("drop", "error")

#: Python and NumPy scalar types a timestamp or cutoff may have.
_NUMERIC = (int, float, np.integer, np.floating)

_INT64_MAX = np.iinfo(np.int64).max


def _empty() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


def _timestamp_array(ts: List) -> np.ndarray:
    """``ts`` as one int64 or floating array; non-numbers are refused."""
    for kind in set(map(type, ts)):
        if not issubclass(kind, _NUMERIC):
            bad = next(t for t in ts if type(t) is kind)
            raise ValidationError(f"timestamp must be numeric, got {bad!r}")
    t = np.array(ts)
    if t.dtype.kind == "f":
        finite = np.isfinite(t)
        if not finite.all():
            # NaN compares false against the watermark and infinities
            # break window arithmetic; neither can be a live edge.
            bad = ts[int(np.argmin(finite))]
            raise ValidationError(f"timestamp must be finite, got {bad!r}")
        return t
    if t.dtype.kind == "O" or (t.dtype.kind == "u" and t.max() > _INT64_MAX):
        raise ValidationError("integer timestamps must fit in int64")
    return t.astype(np.int64, copy=False)


class StagedBatch(NamedTuple):
    """A validated batch, decided against the store it was staged on.

    ``src``/``dst``/``t`` are the accepted edges in input order
    (internal ids; ``new_labels`` numbers the labels the store has not
    seen yet).  :meth:`StreamingEdgeStore.commit` applies it.
    """

    src: np.ndarray
    dst: np.ndarray
    t: np.ndarray
    t_latest: Optional[float]
    new_labels: Dict[Hashable, int]
    num_late: int
    num_self_loops: int
    stamp: Tuple

    @property
    def t_min(self) -> Optional[float]:
        """Earliest accepted timestamp (``None`` when nothing was accepted)."""
        return self.t.min() if len(self.t) else None


class StreamingEdgeStore:
    """Mutable columnar multiset of live temporal edges.

    Parameters
    ----------
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
    * :attr:`version` grows by one per accepted edge and per eviction
      that removed edges, so derived caches can detect staleness (the
      streaming analogue of :meth:`TemporalGraph.invalidate_caches
      <repro.graph.temporal_graph.TemporalGraph.invalidate_caches>`).
    """

    def __init__(self, *, on_self_loop: str = "drop") -> None:
        if on_self_loop not in _SELF_LOOP_POLICIES:
            raise ValidationError(
                f"on_self_loop must be one of {_SELF_LOOP_POLICIES}, got {on_self_loop!r}"
            )
        self._on_self_loop = on_self_loop
        self._labels: List[Hashable] = []
        self._index: Dict[Hashable, int] = {}
        self._src = _empty()
        self._dst = _empty()
        self._t = _empty()
        self._seq = _empty()
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
        return len(self._t)

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

        Lets the engine skip expiry recounts when the window cutoff
        has not yet reached any live edge.
        """
        return float(self._t[0]) if len(self._t) else None

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
        return f"StreamingEdgeStore(live={self.num_live}, watermark={self._watermark})"

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def stage(self, edges: Iterable[Tuple[Hashable, Hashable, float]]) -> StagedBatch:
        """Validate a batch of ``(u, v, t)`` edges; change nothing.

        Every record is checked before any is accepted: the triple
        shape, a numeric finite timestamp, hashable labels and, under
        ``on_self_loop="error"``, no self-loop.  A failure raises
        :class:`ValidationError`.  Rejections that are not errors —
        self-loops under ``"drop"`` and *late* edges below the
        watermark, which are outside the live window by definition —
        are tallied in the staged batch.
        """
        edges = edges if isinstance(edges, list) else list(edges)
        try:
            records = [(u, v, t) for u, v, t in edges]
        except (TypeError, ValueError) as exc:
            bad = next((r for r in edges if not isinstance(r, (tuple, list)) or len(r) != 3), exc)
            raise ValidationError(f"edge records must be (u, v, t) triples, got {bad!r}") from exc
        stamp = (self._version, self._watermark)
        if not records:
            return StagedBatch(_empty(), _empty(), _empty(), None, {}, 0, 0, stamp)
        stream = list(chain.from_iterable(records))
        ts = stream[2::3]
        del stream[2::3]  # u then v of every record, in input order
        t = _timestamp_array(ts)
        ids, new_labels = self._intern(stream)

        keep = ids[0::2] != ids[1::2]  # equal labels share one id
        num_loops = len(ts) - int(np.count_nonzero(keep))
        if num_loops and self._on_self_loop == "error":
            raise ValidationError(f"self-loop edge {records[int(np.argmin(keep))]!r}")
        num_late = 0
        if self._watermark is not None:
            timely = t >= self._watermark
            num_late = int(np.count_nonzero(keep & ~timely))
            keep &= timely
        if not keep.all():
            # Dropped records intern nothing, and the dtype follows the
            # accepted timestamps alone.
            rows = np.flatnonzero(keep).tolist()
            ts = [ts[i] for i in rows]
            stream = [stream[j] for i in rows for j in (2 * i, 2 * i + 1)]
            t = _timestamp_array(ts) if ts else _empty()
            ids, new_labels = self._intern(stream)
        t_latest = ts[int(t.argmax())] if ts else None
        return StagedBatch(
            ids[0::2], ids[1::2], t, t_latest, new_labels, num_late, num_loops, stamp
        )

    def _intern(self, stream: List[Hashable]) -> Tuple[np.ndarray, Dict[Hashable, int]]:
        """Ids of ``stream``'s labels; unseen ones are numbered, not stored."""
        index = self._index
        new_labels: Dict[Hashable, int] = {}
        base = len(self._labels)
        try:
            ids = [
                index[label] if label in index
                else new_labels.setdefault(label, base + len(new_labels))
                for label in stream
            ]
        except TypeError as exc:
            raise ValidationError(f"node labels must be hashable: {exc}") from exc
        return np.array(ids, dtype=np.int64), new_labels

    def commit(self, batch: StagedBatch) -> int:
        """Apply a batch staged against the current store; return accepted count.

        The batch is merged into the sorted run: one stable sort of the
        batch by ``t`` (arrival order breaks its ties) and one
        ``searchsorted(side="right")`` place every edge after the live
        edges it ties with.
        """
        if batch.stamp != (self._version, self._watermark):
            raise ValidationError("the store changed after this batch was staged")
        self._num_self_loops_dropped += batch.num_self_loops
        self._num_dropped_late += batch.num_late
        n = len(batch.t)
        if not n:
            return 0
        self._labels.extend(batch.new_labels)
        self._index.update(batch.new_labels)
        order = np.argsort(batch.t, kind="stable")
        t = batch.t[order]
        # np.insert casts what it inserts to the run's dtype: promote
        # first, or float arrivals would be truncated into an int run.
        run_t = self._t.astype(np.result_type(self._t, t), copy=False) if len(self._t) else t[:0]
        at = np.searchsorted(run_t, t, side="right")
        if at[0] == at[-1]:
            at = at[0]  # one gap (an in-order batch): a scalar insert is a plain copy
        self._t = np.insert(run_t, at, t)
        self._src = np.insert(self._src, at, batch.src[order])
        self._dst = np.insert(self._dst, at, batch.dst[order])
        self._seq = np.insert(self._seq, at, order + self._next_seq)
        self._next_seq += n
        if self._t_latest is None or batch.t_latest > self._t_latest:
            self._t_latest = batch.t_latest
        self._version += n
        return n

    def extend(self, edges: Iterable[Tuple[Hashable, Hashable, float]]) -> int:
        """Ingest a batch of ``(u, v, t)`` edges; return accepted count.

        All or nothing: a batch with any invalid record raises
        :class:`ValidationError` and leaves the store unchanged.
        """
        return self.commit(self.stage(edges))

    def append(self, u: Hashable, v: Hashable, t: float) -> bool:
        """Ingest one edge; return whether it was accepted."""
        return self.extend([(u, v, t)]) == 1

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def evict_before(self, cutoff: float) -> int:
        """Remove every live edge with ``t < cutoff``; return count.

        Advances the watermark to ``cutoff`` (watermarks never
        regress; an already-passed cutoff is a no-op).  A non-numeric
        or NaN cutoff is refused: it would compare false everywhere and
        leave the window undefined.
        """
        if not isinstance(cutoff, _NUMERIC) or cutoff != cutoff:
            raise ValidationError(f"cutoff must be a number, got {cutoff!r}")
        if self._watermark is not None and cutoff <= self._watermark:
            return 0
        evicted = int(np.searchsorted(self._t, cutoff, side="left"))
        self._watermark = cutoff
        if evicted:
            self._src = self._src[evicted:]
            self._dst = self._dst[evicted:]
            self._t = self._t[evicted:]
            self._seq = self._seq[evicted:]
            self._num_evicted += evicted
            self._version += 1
        return evicted

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """JSON-ready store bookkeeping for a streaming checkpoint.

        The live edges themselves travel separately (a packed canonical
        snapshot via :meth:`canonical_arrays`); this is everything else a
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
        store = cls(on_self_loop=on_self_loop)
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
            store._src, store._dst, store._t = src, dst, t
            store._seq = np.arange(m, dtype=np.int64)
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
        t = self._t
        lo = 0 if t_lo is None else int(np.searchsorted(t, t_lo, side="left"))
        hi = len(t) if t_hi is None else int(np.searchsorted(t, t_hi, side="left"))
        if hi <= lo:
            return _empty(), _empty(), _empty()
        order = np.argsort(self._seq[lo:hi], kind="stable") + lo
        return self._src[order], self._dst[order], t[order]

    def canonical_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live ``(src, dst, t)`` in canonical ``(t, arrival)`` order.

        Read-only views of the run itself (internal ids), the order a
        checkpoint snapshot stores; an empty store gives int64 columns.
        """
        if not len(self._t):
            return _empty(), _empty(), _empty()
        views = (self._src.view(), self._dst.view(), self._t.view())
        for view in views:
            view.flags.writeable = False
        return views

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
