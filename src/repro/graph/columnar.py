"""Columnar (structure-of-arrays) view of a temporal graph.

The paper's scalability claim rests on contiguous, timestamp-sorted
edge arrays: Algorithm 1's window scan is a pointer sweep and
Algorithm 2's pair-timeline slice is a binary search, both of which are
memory-bandwidth problems, not pointer-chasing problems.  The
pure-Python :class:`~repro.graph.temporal_graph.NodeSequence` view pays
interpreter overhead per edge; this module lays the same three views
out as parallel NumPy arrays so the vectorized kernels in
:mod:`repro.core.columnar_kernels` can process *every* center's windows
in a handful of array operations.

Three array families, all derived once and cached on the graph:

**Edge columns** (canonical order, i.e. sorted by ``(t, input pos)``)
    ``src``, ``dst`` (int64 internal node ids) and ``t`` (int64 or
    float64).  Because edges are timestamp-sorted, the canonical edge
    id doubles as a time rank: for any threshold ``x``,
    ``eid < searchsorted(t, x)`` ⟺ ``t[eid] < x``, and canonical-id
    comparison implements the repository's tie-break rule exactly.
    :meth:`ColumnarGraph.window` exploits this for O(log m) δ-window
    slicing.

**Incidence CSR** (the columnar ``S_u`` of Table I)
    One row per node: ``inc_indptr[u]:inc_indptr[u+1]`` indexes into
    ``inc_nbr`` / ``inc_dir`` / ``inc_eid`` / ``inc_time``, the node's
    incident edges in canonical order with directions expressed
    relative to the center.  :meth:`ColumnarGraph.node_slice` returns
    zero-copy views.

**Pair CSR** (the columnar ``E(v, w)`` of §IV-B)
    Edges grouped by unordered endpoint pair, each group in canonical
    order, with directions normalised to the smaller internal id
    (matching :meth:`TemporalGraph.pair_timeline`).  Groups are keyed
    by ``min*n + max`` and located by binary search over the sorted
    unique keys.  They are the group-view bundles seen from the smaller
    endpoint, so the build reads them off that view.

The kernels additionally need rank queries ("how many incident edges
of center *u* lie before position *p* with neighbour *v* and direction
*d*?").  Those are answered with the *composite key* arrays also built
here: sort ``group_key * (N+1) + position`` once, then any such rank is
one ``searchsorted`` — vectorizable over millions of queries at once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.temporal_graph import TemporalGraph


#: The edge columns, shared with the graph they come from.
EDGE_ARRAYS: Tuple[str, ...] = ("src", "dst", "t")

#: Every array a :class:`ColumnarGraph` derives from its edge columns,
#: in the order a full-layout ``.rgz`` image stores them: with
#: :data:`EDGE_ARRAYS` they are all :meth:`ColumnarGraph._attach` needs.
DERIVED_ARRAYS: Tuple[str, ...] = (
    "inc_indptr",
    "inc_time",
    "inc_nbr",
    "inc_dir",
    "inc_eid",
    "inc_cum_in",
    "inc_row",
    "inc_row_key",
    "grp_order",
    "grp_inv",
    "grp_rank_key",
    "grp_cum_in",
    "pair_keys",
    "pair_indptr",
    "pair_time",
    "pair_dir",
    "pair_eid",
    "pair_cum_in",
    "pair_rank_key",
)


class ColumnarGraph:
    """Read-only columnar companion of one :class:`TemporalGraph`.

    Construction is O(m log m): two sorts, one of the row-composite key
    (the incidence CSR) and one of the group key (the group view); the
    pair CSR is read off the group view without a sort of its own.
    Every array is stored exactly once, and the worker pool publishes
    it into shared memory for its workers to attach zero-copy.
    Do not instantiate directly — use
    :meth:`TemporalGraph.columnar`, which caches the instance.
    """

    __slots__ = ("num_nodes", "num_edges", "delta_cache") + EDGE_ARRAYS + DERIVED_ARRAYS

    def __init__(self, graph: "TemporalGraph") -> None:
        n = graph.num_nodes
        m = graph.num_edges
        src = graph.sources
        dst = graph.destinations
        t = graph.timestamps
        self.num_nodes = n
        self.num_edges = m
        self.src = src
        self.dst = dst
        self.t = t

        # -- incidence CSR ------------------------------------------------
        # Each edge contributes two incidence entries: (center=src, OUT)
        # and (center=dst, IN).  Group by center, keep canonical (eid)
        # order inside each group: one sort of the row-composite key
        # `center * (m+1) + eid`, unique because no edge is a self-loop
        # (every constructor drops or rejects them).  Entry k < m of the
        # unsorted halves is edge k's OUT entry, k >= m its IN entry, so
        # direction and edge id are read off the permutation.  The
        # sorted key stays: "number of entries of row u with eid < e" is
        # one searchsorted probe — the δ-window-end primitive.
        row_key = np.concatenate((src, dst)) * np.int64(m + 1)
        row_key[:m] += np.arange(m, dtype=np.int64)
        row_key[m:] += np.arange(m, dtype=np.int64)
        order = np.argsort(row_key)
        self.inc_row_key = row_key[order]
        del row_key
        self.inc_nbr = np.concatenate((dst, src))[order]
        # OUT == 0, IN == 1 (repro.graph.temporal_graph.OUT/IN).
        self.inc_dir = (order >= m).astype(np.int64)
        self.inc_eid = order - m * self.inc_dir
        del order
        self.inc_row = self.inc_row_key // np.int64(m + 1)
        self.inc_time = t[self.inc_eid]
        counts = np.bincount(self.inc_row, minlength=n) if m else np.zeros(n, dtype=np.int64)
        self.inc_indptr = np.concatenate(
            ([0], np.cumsum(counts, dtype=np.int64))
        )
        # Prefix sum of IN entries: #IN among positions [0, p).
        self.inc_cum_in = np.concatenate(
            ([0], np.cumsum(self.inc_dir, dtype=np.int64))
        )
        center = self.inc_row
        # Group view: incidence entries re-sorted by (center, neighbour)
        # with positions ascending inside each group — the multi-edge
        # bundles E(u, v) seen from u.  The star kernel anchors its
        # whole enumeration on same-group pairs, and answers Algorithm
        # 1's min/mout hash-map lookups as rank differences in this
        # ordering (grp_inv maps a position to its slot; grp_rank_key
        # locates an arbitrary position bound inside a group with one
        # searchsorted probe; grp_cum_in splits slot ranges by
        # direction).  Groups get *dense* ids so the composite rank key
        # stays far below int64 range even at n ~ 10^7 nodes (a raw
        # center*n+nbr key squared against 2m would overflow).
        total = 2 * m
        gkey = center * np.int64(max(n, 1)) + self.inc_nbr
        self.grp_order = np.argsort(gkey, kind="stable")
        self.grp_inv = np.empty(total, dtype=np.int64)
        self.grp_inv[self.grp_order] = np.arange(total, dtype=np.int64)
        sorted_gkey = gkey[self.grp_order]
        del gkey
        new_group = np.ones(total, dtype=bool)
        np.not_equal(sorted_gkey[1:], sorted_gkey[:-1], out=new_group[1:])
        dense_sorted = np.cumsum(new_group, dtype=np.int64) - 1
        self.grp_rank_key = dense_sorted * np.int64(total + 1) + self.grp_order
        del dense_sorted
        grp_dir = self.inc_dir[self.grp_order]
        self.grp_cum_in = np.concatenate(([0], np.cumsum(grp_dir, dtype=np.int64)))
        #: Memo for kernel tables: per-edge window ranks and triangle
        #: routing for one δ at a time, plus the δ-free static-triangle
        #: table.  Local to the process: each one, pool workers
        #: included, builds the tables it needs on first use (see
        #: :meth:`_attach`).
        self.delta_cache: dict = {}

        # -- pair CSR -----------------------------------------------------
        # Read off the group view: the groups whose center is the
        # smaller endpoint are exactly the pair timelines, already in
        # key order (center * n + nbr = min * n + max) with edge ids
        # ascending inside each, and their entries' directions are
        # relative to the smaller id: OUT iff the edge goes min -> max,
        # matching TemporalGraph.pair_timeline.
        lo_side = (center < self.inc_nbr)[self.grp_order]
        self.pair_eid = self.inc_eid[self.grp_order[lo_side]]
        self.pair_time = t[self.pair_eid]
        self.pair_dir = grp_dir[lo_side]
        del grp_dir
        boundaries = np.flatnonzero(new_group[lo_side])
        self.pair_keys = sorted_gkey[lo_side][boundaries]
        self.pair_indptr = np.concatenate((boundaries, [m])).astype(np.int64)
        del sorted_gkey, new_group, lo_side
        self.pair_cum_in = np.concatenate(
            ([0], np.cumsum(self.pair_dir, dtype=np.int64))
        )
        # Composite rank key for the triangle kernel: pair-slot identity
        # scaled past the eid range plus the entry's canonical edge id.
        # Within a slot entries are eid-ascending, so this is globally
        # sorted by construction — no extra sort needed.
        slot_of_entry = (
            np.repeat(
                np.arange(len(self.pair_keys), dtype=np.int64),
                np.diff(self.pair_indptr),
            )
            if m
            else np.zeros(0, dtype=np.int64)
        )
        self.pair_rank_key = slot_of_entry * np.int64(m + 1) + self.pair_eid

        for name in EDGE_ARRAYS + DERIVED_ARRAYS:
            getattr(self, name).flags.writeable = False

    @classmethod
    def _attach(cls, arrays: "Mapping[str, np.ndarray]") -> "ColumnarGraph":
        """Reassemble a store from pre-built arrays, without recomputing.

        The constructor behind :func:`repro.storage.format.open_packed`
        and :func:`repro.graph.shared.attach_graph`: ``arrays`` holds
        every :data:`EDGE_ARRAYS` and :data:`DERIVED_ARRAYS` entry
        (zero-copy views into a file mapping or a shared-memory
        segment), exactly as another ``ColumnarGraph`` produced them.
        ``delta_cache`` always starts empty: each process builds its
        per-δ kernel tables locally on first use.
        """
        col = object.__new__(cls)
        for name in EDGE_ARRAYS + DERIVED_ARRAYS:
            setattr(col, name, arrays[name])
        col.num_nodes = len(col.inc_indptr) - 1
        col.num_edges = len(col.t)
        col.delta_cache = {}
        return col

    # ------------------------------------------------------------------
    # window slicing and partition views
    # ------------------------------------------------------------------
    def window(self, t_lo: float, t_hi: float) -> Tuple[int, int]:
        """Edge-id bounds ``[lo, hi)`` of the window ``t_lo <= t <= t_hi``.

        O(log m) via :func:`np.searchsorted` over the timestamp-sorted
        edge columns — the δ-window primitive of §IV-A.  The half-open
        id range doubles as a partition boundary: canonical ids are
        time-ranked, so every δ-window is contiguous.
        """
        lo = int(np.searchsorted(self.t, t_lo, side="left"))
        hi = int(np.searchsorted(self.t, t_hi, side="right"))
        return lo, hi

    def edge_slice(
        self, lo: int, hi: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy ``(src, dst, t)`` views of edge ids ``[lo, hi)``.

        Combined with :meth:`window` this gives partitions (time slabs,
        shards) a contiguous, copy-free view of their edges — the
        substrate any future multi-process or streaming decomposition
        slices on.
        """
        return self.src[lo:hi], self.dst[lo:hi], self.t[lo:hi]

    def node_slice(
        self, node: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy ``(times, nbrs, dirs, eids)`` views of ``S_u``.

        The columnar equivalent of :meth:`TemporalGraph.node_sequence`;
        the four arrays are parallel and in canonical order.
        """
        lo, hi = self.inc_indptr[node], self.inc_indptr[node + 1]
        return (
            self.inc_time[lo:hi],
            self.inc_nbr[lo:hi],
            self.inc_dir[lo:hi],
            self.inc_eid[lo:hi],
        )

    def degrees(self) -> np.ndarray:
        """Temporal degrees as ``np.diff`` over the CSR offsets."""
        return np.diff(self.inc_indptr)

    def pair_slot(self, a: int, b: int) -> int:
        """Index of pair ``{a, b}`` into the pair CSR, or -1 if absent."""
        if a > b:
            a, b = b, a
        key = a * max(self.num_nodes, 1) + b
        slot = int(np.searchsorted(self.pair_keys, key))
        if slot < len(self.pair_keys) and self.pair_keys[slot] == key:
            return slot
        return -1

    def pair_slice(
        self, a: int, b: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Zero-copy ``(times, dirs, eids)`` views of ``E(a, b)``.

        The columnar equivalent of :meth:`TemporalGraph.pair_timeline`
        (same direction normalisation); empty views for missing pairs.
        """
        slot = self.pair_slot(a, b)
        if slot < 0:
            lo = hi = 0
        else:
            lo, hi = self.pair_indptr[slot], self.pair_indptr[slot + 1]
        return self.pair_time[lo:hi], self.pair_dir[lo:hi], self.pair_eid[lo:hi]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"pairs={len(self.pair_keys)})"
        )
