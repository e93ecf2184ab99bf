"""Vectorized FAST counting kernels over the columnar edge store.

These kernels produce counts **identical** to the pure-Python loops in
:mod:`repro.core.fast_star` / :mod:`repro.core.fast_tri`
(property-tested across all motif classes, timestamp ties included),
but express Algorithms 1 and 2 of the paper as a handful of NumPy
array passes instead of per-edge interpreter steps.  They are what
``algorithm="fast"`` runs, serially and in every HARE batch; the
Python loops stay as their test references.

How the Python loops vectorize
------------------------------

**Window bounds are edge-id ranks.**  Edges are canonically sorted by
``(t, input pos)``, so for any threshold ``x`` the set
``{e : t_e <= x}`` is an edge-id prefix found by one binary search on
the timestamp column, and "entries of center *u*'s CSR row below that
id" is one probe of the row-composite key
(:attr:`~repro.graph.columnar.ColumnarGraph.inc_row_key`).  The star
kernel precomputes its δ-window bounds this way for every incidence
position of the CSR rows its anchors lie in — six vectorized
``searchsorted`` passes in all (two per-edge probes of the timestamp
column, two row-composite and two group-composite probes), each
issued in sorted query order so the binary searches walk their keys
front to back, and the composite probes search only those rows' slice
of the key.  The triangle kernel shares the two per-edge probes and
probes window ends only for the anchors its wedge paths still need.
Only the per-edge tables (and FAST-Tri's triangle routing) are
memoized per δ on the columnar store; the memo holds one δ at a time:
building a table for a new δ evicts every table of the old one, and
only the δ-free static-triangle table stays.  The star tables are
built per call over the call's own rows, so a HARE batch pays only
for its rows and a full cover builds them once.

**FAST-Star has a closed form per anchor.**  Every star/pair motif
triple contains at least two edges on the *same* (center, neighbour)
pair: the pair motifs use all three, Star-I its 2nd+3rd, Star-II its
1st+3rd, Star-III its 1st+2nd edge (the "anchor pair").  Fixing the
anchor pair, the third edge is counted by a prefix-sum difference
(Algorithm 1's incremental ``min``/``mout`` hash maps become rank
differences in the group-sorted ordering
:attr:`~repro.graph.columnar.ColumnarGraph.grp_inv` / ``grp_cum_in``).
Summing those differences over the anchor pair's second element — a
contiguous slot range — telescopes into differences of *prefix sums of
prefix sums*, so the kernel never materialises edge pairs at all: it
fills one table of five direction-split prefix pairs over the group
slots of its rows (a slot range's per-direction size is a
``grp_cum_in`` difference and needs no table) and then evaluates
every counter cell with O(1) arithmetic per anchor edge.  Anchors are
visited in ascending slot order, one anchor direction at a time, so
every table gather ascends and each cell is one plain int64 sum per
block.  Total work is O(m log m), *below* the paper's O(d^δ · m) bound
for FAST-Star.

**FAST-Tri has three paths.**  Each static triangle ``{a, b, c}`` of
the pair graph (:func:`triangle_table`, a degree-ordered vectorized
enumeration, δ-independent and memoized in the columnar store's
``delta_cache``) is counted by exactly one of them.

* The *merged path* (the per-triangle formulation of Paranjape et al.)
  takes a triangle whose three pair timelines together span at most δ
  (:func:`_merge_rule`): each of its ``m1 m2 m3`` edge triples is then
  an instance.  Its timelines are merged in edge-id order, per-class
  prefix counts over the six (pair, direction) classes give every
  event's before/after counts, and one static table maps the
  per-class-triple sums to cells (:func:`_merged_timelines`) — no
  per-wedge probe at all.
* Every other triangle is counted wedge by wedge (Algorithm 2).
  Each anchor incidence ``p`` (center ``u``, neighbour ``v``) on a
  side of such a triangle expands whichever candidate set is smaller
  — both sizes are O(1) lookups: the *window path*, its
  ``we[p] - p - 1`` δ-window successors, each closed (or dropped) by a
  binary search over ``pair_keys``; or the *triangle path*, one row
  per static triangle ``{u, v, w}`` through its pair, whose wedge
  partners are the ``E(u, w)`` entries with edge id inside ``p``'s
  forward δ-window (:func:`edge_window_ends`) — two rank probes — and
  whose closing pair ``{v, w}`` comes from the table.  Wedges and rows
  of merged triangles are dropped before classification.

The wedge paths classify by edge id.  The canonical tie-break rule
makes "``e_k`` before ``e_i``" ⟺ ``eid_k < eid_i`` and "after ``e_j``"
⟺ ``eid_k > eid_j``, so the Triangle I/II/III split of the pair
timeline ``E(v, w)`` is three contiguous id ranges, located by rank
probes into the pair CSR and split by direction with prefix sums.
Every cell total is a sum of rank differences within one
``(dir_i, dir_j, flip)`` wedge group, so the wedges are grouped once
and each probe set is sorted within its group before probing:
cache-local, where random-order probes into the m-sized rank key miss
on nearly every step.

The routing rule is the span test alone, measured on two inputs.  On
session graphs almost every triangle is light: at 4·10⁴ edges and
δ = 43 200 s, 2 708 of 2 732 triangles (22 367 events standing for
74 366 wedges) merge, and the triangle phase fell about 4×.  A
prototype that merged *every* triangle, with a window probe per
event, made the 10⁵-edge power-law graph 13× slower (0.21 → 2.7 s,
3.77M events for 39 487 triangles): its hub pairs sit in up to 615
triangles each and span far more than δ, so merging re-walks a long
timeline per triangle for a handful of in-window wedges.  Hub pairs
are where merging loses, not where it wins.  The span test keeps them
on the wedge paths (498 of 39 487 merge at δ = 43 200).  A cost test
against the wedge count would never reject: a triangle with pair
sizes ``m1, m2, m3 >= 1`` has ``m1 m2 + m1 m3 + m2 m3 >= m1 + m2 + m3``
wedges, and an event cost 150–260 ns against 500–540 ns per
classified wedge (2 cores).

**Exact accumulation.**  Counter cells are accumulated with pure int64
sums (never float64 ``bincount`` weights), so counts stay exact
arbitrarily far beyond 2**53.  A star per-anchor weight counts triples
on its anchor pair, so it stays below 4m² (an int64 while
m < 1.5·10⁹); a block of them is summed in int64 only while
``len * max`` is below 2**63 (:data:`EXACT_SUM_BOUND`), and as Python
ints otherwise.

Work decomposition
------------------

Both kernels accept the scheduler's ``(node, i_lo, i_hi)`` tasks,
as its ``(k, 3)`` int64 task array (``i_hi = -1``: the row end) or as
tuples.
Ownership of a triple is defined by an *anchor* incidence position
that every complete task cover visits exactly once: the earlier edge
of the anchor pair for stars, the wedge's first edge at its center
for wedge-path triangles, and for a merged triangle one canonical
position — at its smallest vertex, the earlier of the first edges on
its two pairs there.  Merged task results therefore equal the serial
count exactly over any complete cover; the per-task *split* is not
contracted and differs from the Python kernels, whose ownership is
always the triple's first edge (see
:func:`repro.core.fast_star.count_star_pair_tasks`).

Peak memory is O(m) for the star kernel: about 100 B per incidence
entry of its rows (the ``(5, 2, L + 1)`` prefix table and two window
tables), freed when the call returns.  The triangle kernel adds
the O(m + T) static-triangle table (T triangles) and, independent of
δ, at most ``chunk_pairs`` (default 2**21 ≈ 2M) expanded candidates
at once: window wedges plus triangle rows per anchor slice, and again
at most ``chunk_pairs`` wedge partners per slice of rows.  The merged
path runs at most ``min(chunk_pairs, MERGED_CHUNK_EVENTS)`` events at
a time (a single larger triangle forms its own chunk), with its
prefixes restarted per chunk.
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.graph.columnar import ColumnarGraph
from repro.graph.temporal_graph import TemporalGraph

#: Default cap on expanded wedge pairs processed at once (FAST-Tri).
DEFAULT_CHUNK_PAIRS = 1 << 21

#: Events per chunk of FAST-Tri's merged path: its six prefix rows stay
#: in cache (2**14-event chunks ran at 150 ns/event, 2**21 at 390).
MERGED_CHUNK_EVENTS = 1 << 14

#: A work task ``(node, i_lo, i_hi)``; ``i_hi`` of ``None`` or ``-1``
#: is the row end.
Task = Tuple[int, int, Optional[int]]

#: Work tasks: the HARE scheduler's ``(k, 3)`` int64 task array, or
#: any iterable of :data:`Task` tuples.
Tasks = Union[np.ndarray, Iterable[Task]]

#: A block sum of non-negative int64 weights stays in NumPy while
#: ``len(w) * max(w)`` is below this bound, else it runs on Python ints.
EXACT_SUM_BOUND = 1 << 63


def _task_positions(
    col: ColumnarGraph, tasks: Optional[Tasks], tail: int = 1
) -> np.ndarray:
    """Flatten tasks into absolute incidence positions of anchor edges.

    ``tail`` is how many trailing positions of a CSR row cannot anchor
    anything (at least one later edge must exist).  ``tasks=None``
    selects every eligible position of every center — the full serial
    count.  A task array is used as is; tuples are converted.
    """
    indptr = col.inc_indptr
    if tasks is None:
        rows, offsets = _ragged(np.maximum(np.diff(indptr) - tail, 0))
        return indptr[rows] + offsets
    if not isinstance(tasks, np.ndarray):
        tasks = [(node, i_lo, -1 if i_hi is None else i_hi) for node, i_lo, i_hi in tasks]
    node, lo, hi = np.asarray(tasks, dtype=np.int64).reshape(-1, 3).T
    row_lo = indptr[node]
    limit = indptr[node + 1] - row_lo - tail
    hi = np.where(hi < 0, limit, np.minimum(hi, limit))
    task, offsets = _ragged(np.maximum(hi - lo, 0))
    return row_lo[task] + lo[task] + offsets


def _anchor_slots(
    col: ColumnarGraph, tasks: Optional[Tasks]
) -> Tuple[np.ndarray, np.ndarray]:
    """The star kernel's anchors as ascending group slots, split by direction.

    Returns ``(out_slots, in_slots)``: the slots (see
    :attr:`~repro.graph.columnar.ColumnarGraph.grp_inv`) of the
    positions :func:`_task_positions` selects, one array per anchor
    direction.  The complete cover (``tasks=None``) is every slot
    whose position is not the last of its row, read off without a sort.
    """
    if tasks is None:
        indptr = col.inc_indptr
        eligible = np.ones(2 * col.num_edges, dtype=bool)
        eligible[indptr[1:][np.diff(indptr) > 0] - 1] = False
        eligible = eligible[col.grp_order]
        is_in = np.diff(col.grp_cum_in) == 1
        return np.flatnonzero(eligible & ~is_in), np.flatnonzero(eligible & is_in)
    anchors = _task_positions(col, tasks)
    slots = col.grp_inv[anchors]
    is_in = col.inc_dir[anchors] == 1
    return np.sort(slots[~is_in]), np.sort(slots[is_in])


def _ragged(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a ragged range: ``(owner, offset)`` for every element.

    Element ``k`` of owner ``i``'s ``counts[i]`` elements becomes the
    pair ``(i, k)``; owners ascend, offsets ascend within an owner.
    """
    owner = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    return owner, np.arange(len(owner), dtype=np.int64) - starts[owner]


def _expand_pairs(
    anchor: np.ndarray, counts: np.ndarray, gap: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-anchor successor counts into flat (anchor, other) pairs."""
    owner, offsets = _ragged(counts)
    A = anchor[owner]
    return A, A + offsets + gap


def _chunks(counts: np.ndarray, chunk_pairs: int) -> Iterable[Tuple[int, int]]:
    """Slice the anchor axis so each slice expands to ≤ chunk_pairs.

    A single anchor whose window alone exceeds the cap still forms its
    own (oversized) chunk — correctness never depends on the cap.
    """
    if len(counts) == 0:
        return
    csum = np.cumsum(counts)
    start = 0
    while start < len(counts):
        base = int(csum[start - 1]) if start else 0
        stop = int(np.searchsorted(csum, base + chunk_pairs, side="right"))
        stop = min(max(stop, start + 1), len(counts))
        yield start, stop
        start = stop


#: ``delta_cache`` key of the (δ-independent) static-triangle table.
_TRI_KEY = ("tri",)


def _delta_memo(kind: str):
    """Memoize a ``(col, δ)`` table builder under ``col.delta_cache[(kind, δ)]``.

    Three kinds use it, all O(m) or smaller: the per-edge window ranks
    ``"elo"`` and ``"ewin"`` and FAST-Tri's triangle routing
    ``"merged"``.  One rule for every δ-keyed table: memoizing a new δ
    evicts the tables of every other δ (before building, so the store
    never holds two δs at once), and a long-lived store (a pool worker,
    a serve daemon's graph) holds one δ's tables however many δs it
    visits.  Only the δ-free static-triangle table survives.  The star
    kernel's per-position tables are not memoized: each call builds them
    over its own CSR rows (:func:`_star_tables`).
    """
    def decorate(build):
        @functools.wraps(build)
        def memoized(col: ColumnarGraph, delta: float):
            key = (kind, float(delta))
            cached = col.delta_cache.get(key)
            if cached is None:
                for stale in list(col.delta_cache):
                    if stale != _TRI_KEY and stale[1] != key[1]:
                        col.delta_cache.pop(stale, None)
                cached = col.delta_cache[key] = build(col, delta)
            return cached

        return memoized

    return decorate


def _window_bounds(
    col: ColumnarGraph, delta: float, lo: int, hi: int
) -> Tuple[np.ndarray, np.ndarray]:
    """δ-window bounds of incidence positions ``[lo, hi)`` inside their own rows.

    ``lo`` and ``hi`` are CSR row boundaries.  Returns ``(ws, we)``,
    both relative to ``lo``: for every position ``p`` of edge ``e`` in
    the range, the positions in ``p``'s row of the first entry with
    edge id ``>= _edge_window_starts(col, δ)[e]`` (``t >= t_p - δ``)
    and of the first with id ``>= edge_window_ends(col, δ)[e]``
    (``t > t_p + δ``).  The edge-id bounds come from the per-edge
    memos, whose probes run in sorted order; within a row they ascend
    with ``p``, so both row-composite probes are in sorted order too,
    and they search only the range's own slice of the key.
    """
    eid = col.inc_eid[lo:hi]
    row_key = col.inc_row_key[lo:hi]
    row_base = row_key - eid  # center * (m + 1)
    ws = np.searchsorted(row_key, row_base + _edge_window_starts(col, delta)[eid])
    we = np.searchsorted(row_key, row_base + edge_window_ends(col, delta)[eid])
    return ws, we


class TriangleTable(NamedTuple):
    """Per-pair CSR over the static triangles of the pair graph.

    The triangles through pair-CSR slot ``s = {a, b}`` (``a < b``) are
    entries ``indptr[s]:indptr[s+1]``, ascending by third vertex; entry
    ``r`` names the third vertex ``third[r]`` and the slots of its
    pairs with ``a`` (``lo_slot[r]``) and with ``b`` (``hi_slot[r]``).
    ``edge_slot`` maps every edge id to its own pair slot.  Entry ``r``
    belongs to triangle ``tri[r]``; triangle ``i``, ``a < b < c``, has
    the slots ``sides[i]`` of its ``(a,b), (a,c), (b,c)`` pairs.
    """

    indptr: np.ndarray
    third: np.ndarray
    lo_slot: np.ndarray
    hi_slot: np.ndarray
    edge_slot: np.ndarray
    tri: np.ndarray
    sides: np.ndarray


def enumerate_static_triangles(
    n: int, pair_keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized degree-ordered static-triangle enumeration.

    Orients every static pair from its lower-(degree, id) endpoint to
    the higher one; each triangle is then exactly one out-wedge
    ``x -> y1, x -> y2`` closed by pair ``{y1, y2}``, and no node has
    more than O(√P) out-neighbours, so the wedge total is
    O(P^1.5).  Wedges are expanded ``DEFAULT_CHUNK_PAIRS`` at a time
    and closed by a binary search over ``pair_keys`` (sorted
    ``min * n + max`` keys, as in :attr:`ColumnarGraph.pair_keys`).

    Returns ``(nodes, slots)``: ``(T, 3)`` vertex triples ``a < b < c``
    in lexicographic order, and the ``pair_keys`` indices of their
    ``(a,b), (a,c), (b,c)`` pairs.
    """
    nn = np.int64(max(n, 1))
    lo_end = pair_keys // nn
    hi_end = pair_keys % nn
    deg = np.bincount(lo_end, minlength=n) + np.bincount(hi_end, minlength=n)
    lo_first = deg[lo_end] <= deg[hi_end]  # ties: smaller id first
    x = np.where(lo_first, lo_end, hi_end)
    y = np.where(lo_first, hi_end, lo_end)
    order = np.argsort(x * nn + y)  # out-rows by x, ids ascending inside
    x = x[order]
    y = y[order]
    row_end = np.searchsorted(x, x, side="right")
    counts = row_end - np.arange(1, len(x) + 1, dtype=np.int64)
    found: List[Tuple[np.ndarray, ...]] = []
    for a, b in _chunks(counts, DEFAULT_CHUNK_PAIRS):
        e1, e2 = _expand_pairs(
            np.arange(a, b, dtype=np.int64), counts[a:b], gap=1
        )
        key = y[e1] * nn + y[e2]
        slot = np.searchsorted(pair_keys, key)
        closed = pair_keys[np.minimum(slot, len(pair_keys) - 1)] == key
        found.append((e1[closed], e2[closed], slot[closed]))
    if not found:
        return np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3), dtype=np.int64)
    e1, e2, s12 = (np.concatenate(parts) for parts in zip(*found))
    xs, y1, y2 = x[e1], y[e1], y[e2]  # y1 < y2
    s1, s2 = order[e1], order[e2]     # slots of {x, y1}, {x, y2}
    # Place x among y1 < y2 and permute the three slots to match.
    first = xs < y1
    last = xs > y2
    nodes = np.stack((
        np.where(first, xs, y1),
        np.where(first, y1, np.where(last, y2, xs)),
        np.where(last, xs, y2),
    ), axis=1)
    slots = np.stack((
        np.where(last, s12, s1),
        np.where(first, s2, np.where(last, s1, s12)),
        np.where(first, s12, s2),
    ), axis=1)
    # Slot order of (a, b) is its key order: sort by (a, b), then c.
    tri_order = np.argsort(slots[:, 0] * nn + nodes[:, 2])
    return nodes[tri_order], slots[tri_order]


def triangle_table(col: ColumnarGraph) -> TriangleTable:
    """The memoized :class:`TriangleTable` of ``col``'s static pair graph.

    δ-independent, so it survives δ changes in ``col.delta_cache``.
    Build cost is the O(P^1.5) enumeration plus O(m).
    """
    cached = col.delta_cache.get(_TRI_KEY)
    if cached is not None:
        return cached
    P = len(col.pair_keys)
    nodes, slots = enumerate_static_triangles(col.num_nodes, col.pair_keys)
    # Each triangle is listed under its three sides: side (a,b) sees
    # third c with lo/hi pairs (a,c)/(b,c); side (a,c) sees b with
    # (a,b)/(b,c); side (b,c) sees a with (a,b)/(a,c).
    owner = slots.ravel()
    third = nodes[:, ::-1].ravel()
    lo_slot = slots[:, [1, 0, 0]].ravel()
    hi_slot = slots[:, [2, 2, 1]].ravel()
    order = np.argsort(owner * np.int64(max(col.num_nodes, 1)) + third)
    indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(owner, minlength=P), dtype=np.int64))
    )
    edge_slot = np.empty(col.num_edges, dtype=np.int64)
    edge_slot[col.pair_eid] = np.repeat(
        np.arange(P, dtype=np.int64), np.diff(col.pair_indptr)
    )
    table = TriangleTable(
        indptr, third[order], lo_slot[order], hi_slot[order], edge_slot,
        order // 3, slots,
    )
    col.delta_cache[_TRI_KEY] = table
    return table


def _merge_rule(
    col: ColumnarGraph, delta: float, s1: np.ndarray, s2: np.ndarray, s3: np.ndarray
) -> np.ndarray:
    """Whether the static triangle on pair slots ``s1, s2, s3`` is merged.

    A triangle is counted on its merged pair timelines when its three
    timelines together span at most δ: every edge triple on it is then
    an instance, and every wedge is in-window.  Both bounds are
    evaluated in the arithmetic of the window probes
    (:func:`edge_window_ends`, :func:`_edge_window_starts`), so the rule
    admits a triangle only when the wedge paths would count all its
    triples too, for any timestamp dtype.  Symmetric in the three
    slots, and it reads only their first and last timestamps, so every
    path takes the same decision for one triangle.
    """
    indptr = col.pair_indptr
    t = col.pair_time
    first = np.minimum(np.minimum(t[indptr[s1]], t[indptr[s2]]), t[indptr[s3]])
    last = np.maximum(
        np.maximum(t[indptr[s1 + 1] - 1], t[indptr[s2 + 1] - 1]), t[indptr[s3 + 1] - 1]
    )
    return (last <= first + delta) & (first >= last - delta)


class MergedTriangles(NamedTuple):
    """The static triangles FAST-Tri counts on merged timelines at one δ.

    ``tri`` lists them (indices into :attr:`TriangleTable.sides`,
    ascending) and ``is_merged`` flags them among all triangles;
    ``anchor[i]`` is the incidence position that owns triangle
    ``tri[i]`` in a task cover: at its smallest vertex, the earlier of
    the first edges on its two pairs there.  Per pair slot, ``side``
    flags a side of a merged triangle (the window path tests the rule
    only where it can hold) and ``open`` a side of a triangle left to
    the wedge paths (no other pair can anchor a wedge that closes).
    """

    tri: np.ndarray
    is_merged: np.ndarray
    anchor: np.ndarray
    side: np.ndarray
    open: np.ndarray


@_delta_memo("merged")
def _merged_triangles(col: ColumnarGraph, delta: float) -> MergedTriangles:
    """Route static triangles by :func:`_merge_rule`; memoized per δ."""
    table = triangle_table(col)
    is_merged = _merge_rule(col, delta, *table.sides.T)
    tri = np.flatnonzero(is_merged)
    sides = table.sides[tri]
    apex = col.pair_keys[sides[:, 0]] // np.int64(max(col.num_nodes, 1))
    first = col.pair_eid[col.pair_indptr[sides[:, :2]]].min(axis=1)
    anchor = np.searchsorted(
        col.inc_row_key, apex * np.int64(col.num_edges + 1) + first
    )
    side = np.zeros(len(col.pair_keys), dtype=bool)
    side[sides.ravel()] = True
    open_ = np.zeros(len(col.pair_keys), dtype=bool)
    open_[table.sides[~is_merged].ravel()] = True
    return MergedTriangles(tri, is_merged, anchor, side, open_)


def _merged_wedge_rows(
    col: ColumnarGraph,
    delta: float,
    merged: MergedTriangles,
    edge_slot: np.ndarray,
    slot: np.ndarray,
    eid_i: np.ndarray,
    eid_j: np.ndarray,
) -> np.ndarray:
    """Indices of the closed wedges whose static triangle is merged.

    A wedge's triangle has its closing pair ``slot`` and the pairs
    (``edge_slot``) of its edges ``eid_i``, ``eid_j``; the rule is
    evaluated only where all three are sides of some merged triangle.
    """
    side = merged.side
    maybe = np.flatnonzero(side[slot])
    s_i = edge_slot[eid_i[maybe]]
    s_j = edge_slot[eid_j[maybe]]
    both = side[s_i] & side[s_j]
    maybe, s_i, s_j = maybe[both], s_i[both], s_j[both]
    return maybe[_merge_rule(col, delta, s_i, s_j, slot[maybe])]


def _merged_cell_table() -> Tuple[np.ndarray, np.ndarray]:
    """Static map from ordered event classes to multiplicity-3 triangle cells.

    An event class is ``side * 2 + dir``: side 0, 1, 2 is pair
    ``(a,b), (a,c), (b,c)`` of a triangle ``a < b < c``, and ``dir`` is
    the pair-CSR direction (0 from the smaller endpoint).  Edges
    ``x < y < z`` (edge-id order) on three different sides are one
    instance, found once per corner as Algorithm 2 finds it: at the
    corner of ``x, y`` as Triangle-III (closing edge ``z``), of ``x, z``
    as Triangle-II (``y``) and of ``y, z`` as Triangle-I (``x``).
    Returns ``(combos, cells)``: flat ``(cx * 6 + cy) * 6 + cz`` indices
    of the 48 valid class triples and their ``(48, 3)`` cells.
    """
    ends = ((0, 1), (0, 2), (1, 2))

    def edge(cls: int) -> Tuple[int, int]:
        lo, hi = ends[cls >> 1]
        return (hi, lo) if cls & 1 else (lo, hi)

    def cell(kind: int, ei, ej, ek) -> int:
        (center,) = set(ei) & set(ej)
        vi = ei[0] if ei[1] == center else ei[1]
        di = int(ei[0] != center)
        dj = int(ej[0] != center)
        dk = int(ek[0] != vi)
        return kind * 8 + di * 4 + dj * 2 + dk

    combos, cells = [], []
    for cx, cy, cz in itertools.product(range(6), repeat=3):
        if len({cx >> 1, cy >> 1, cz >> 1}) < 3:
            continue
        x, y, z = edge(cx), edge(cy), edge(cz)
        combos.append((cx * 6 + cy) * 6 + cz)
        cells.append((cell(2, x, y, z), cell(1, x, z, y), cell(0, y, z, x)))
    return np.array(combos, dtype=np.int64), np.array(cells, dtype=np.int64)


_MERGED_COMBOS, _MERGED_CELLS = _merged_cell_table()


def _merged_timelines(
    col: ColumnarGraph, tri_acc: np.ndarray, sides: np.ndarray, chunk_pairs: int
) -> None:
    """Merged path: count static triangles on their merged pair timelines.

    Every triangle in ``sides`` (rows of pair slots) passes
    :func:`_merge_rule`, so each of its ``m1 m2 m3`` edge triples is an
    instance.  Its three timelines are merged in edge-id order; for
    each event ``y`` the six per-class counts of events before and
    after it in its triangle make the per-class-triple instance totals
    ``sum_y before[cx](y) * after[cz](y)``, and one static table
    (:func:`_merged_cell_table`) turns those into cells.  Triangles run
    in chunks of at most ``min(chunk_pairs, MERGED_CHUNK_EVENTS)``
    events with every prefix restarted per chunk, so a chunk's
    per-event products stay below 2**28 and its int64 cell sums below
    2**42; only a single larger triangle, its own chunk, goes past that,
    bounded by its own instance count.
    """
    indptr = col.pair_indptr
    lo = indptr[sides]
    sizes = indptr[sides + 1] - lo
    events = sizes.sum(axis=1)
    for a, b in _chunks(events, min(chunk_pairs, MERGED_CHUNK_EVENTS)):
        group, k = _ragged(sizes[a:b].ravel())  # group = 3 * triangle + side
        k += lo[a:b].ravel()[group]
        tri = group // 3
        # Keys are unique; the stable sort (timsort) merges the three
        # ascending runs each triangle contributes.
        merge = np.argsort(
            tri * np.int64(col.num_edges + 1) + col.pair_eid[k], kind="stable"
        )
        cls = (group % 3 * 2 + col.pair_dir[k])[merge]
        del group, k, merge
        # tri ascends and the merge permutes only within a triangle.
        ends = np.cumsum(events[a:b])
        starts = ends - events[a:b]
        prefix = np.zeros((6, len(cls) + 1), dtype=np.int64)
        members = []
        for c in range(6):
            is_c = cls == c
            np.cumsum(is_c, out=prefix[c, 1:])
            members.append(np.flatnonzero(is_c))
        totals = np.zeros((6, 6, 6), dtype=np.int64)  # [cx, cy, cz]
        for cy, y in enumerate(members):
            t_y = tri[y]
            before = prefix[:, y] - prefix[:, starts[t_y]]
            after = prefix[:, ends[t_y]] - prefix[:, y + 1]
            totals[:, cy, :] = before @ after.T
        np.add.at(tri_acc, _MERGED_CELLS, totals.ravel()[_MERGED_COMBOS, None])


#: The star closed form's per-slot base terms, in prefix-table order.
_STAR_TERMS = ("slot", "cin", "cout", "win", "wout")


def _dir_prefixes(out: np.ndarray, values: np.ndarray, is_in: np.ndarray) -> None:
    """Fill ``out`` with the direction-split exclusive prefix sums of ``values``.

    Row ``d`` of the ``(2, L + 1)`` table ``out`` sums the slots of
    direction ``d`` (OUT = 0, IN = 1).
    """
    into = values * is_in
    out[:, 0] = 0
    np.cumsum(into, out=out[1, 1:])
    np.subtract(values, into, out=into)
    np.cumsum(into, out=out[0, 1:])


def _star_tables(col: ColumnarGraph, delta: float, lo: int, hi: int):
    """δ-dependent tables of the star closed form over CSR rows ``[lo, hi)``.

    ``lo`` and ``hi`` are row boundaries, so the range holds the same
    indices in position order and in slot order (the group view sorts
    by center first).  Returns ``(we, gwe, prefixes)``, all relative to
    ``lo``: ``we`` maps a position to its row's δ-window end
    (:func:`_window_bounds`); ``gwe[s]`` is the first slot of ``s``'s
    group past the δ-window end of the position slot ``s`` holds; and
    ``prefixes[k]`` is the direction-split prefix pair of base term
    ``_STAR_TERMS[k]``, filled row by row into one ``(5, 2, L + 1)``
    table.  A full cover builds them over every row once; a HARE batch
    only over its own rows.

    Every term below is a difference of two prefix counts taken at
    range-relative indices, so the counts of the rows before ``lo``
    cancel: the shared-array slices need no rebasing.
    """
    ws, we = _window_bounds(col, delta, lo, hi)
    L = hi - lo
    slot_ids = np.arange(L, dtype=np.int64)
    # In slot order groups ascend, positions ascend inside a group and
    # so do their row bounds: both group probes are in sorted order.
    pos_s = col.grp_order[lo:hi] - lo
    rank_key = col.grp_rank_key[lo:hi]
    gkey_base = rank_key - pos_s  # dense group id * (2m + 1) + lo
    ws_s = ws[pos_s]
    del ws
    gws = np.searchsorted(rank_key, gkey_base + ws_s)
    gwe = np.searchsorted(rank_key, gkey_base + we[pos_s])
    del gkey_base

    # Per-slot base terms (slot s holds position p_s = order[s]):
    # "outside-group" rank excesses — global minus in-group quantities,
    # so their differences count entries on other neighbours.  In-group
    # direction counts need no table: a slot range's IN count is a
    # grp_cum_in difference, and the k-th slot of one direction in a
    # range has k - 1 same-direction slots before it.
    cum_in = col.inc_cum_in[lo:hi + 1]
    gcum_in = col.grp_cum_in[lo:hi + 1]
    is_in = np.diff(gcum_in) == 1
    prefixes = np.empty((len(_STAR_TERMS), 2, L + 1), dtype=np.int64)
    _dir_prefixes(prefixes[0], slot_ids, is_in)
    cin = cum_in[pos_s] - gcum_in[:-1]   # IN entries before p_s
    _dir_prefixes(prefixes[1], cin, is_in)
    pos_s -= slot_ids
    pos_s -= cin                          # OUT entries before p_s
    _dir_prefixes(prefixes[2], pos_s, is_in)
    del cin, pos_s, slot_ids
    win = cum_in[ws_s] - gcum_in[gws]     # IN entries before p_s's window
    _dir_prefixes(prefixes[3], win, is_in)
    ws_s -= gws
    ws_s -= win                           # OUT entries before the window
    _dir_prefixes(prefixes[4], ws_s, is_in)
    return we, gwe, prefixes


@_delta_memo("ewin")
def edge_window_ends(col: ColumnarGraph, delta: float) -> np.ndarray:
    """Per-*edge* forward δ-window end ranks: first id with ``t > t_e + δ``.

    An edge's forward δ-window is exactly the id range
    ``(e, edge_window_ends(col, δ)[e])``.  The star kernel reaches it
    through :func:`_window_bounds`, the triangle kernel through its
    anchors' window-end and partner probes; the sampling kernels
    (:mod:`repro.core.sampling_kernels`) use it as their candidate cap.  One probe per edge, in sorted
    order.  Memoized per δ alongside the other kernel tables (see
    :func:`_delta_memo`).
    """
    return np.searchsorted(col.t, col.t + delta, side="right")


@_delta_memo("elo")
def _edge_window_starts(col: ColumnarGraph, delta: float) -> np.ndarray:
    """Per-*edge* backward δ-window start ranks: first id with ``t >= t_e - δ``.

    The backward sibling of :func:`edge_window_ends`: the source of
    :func:`_window_bounds`' window starts and the triangle kernel's
    Triangle-I bound.
    """
    return np.searchsorted(col.t, col.t - delta)


def count_star_pair_columnar(
    graph: TemporalGraph,
    delta: float,
    tasks: Optional[Tasks] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized FAST-Star (Algorithm 1): star + pair flat counters.

    Returns the 24-cell star and 8-cell pair counter arrays (int64, or
    Python ints past the int64 range — see :func:`_cell_array`; layout
    of :func:`repro.core.counters.star_index` /
    :func:`~repro.core.counters.pair_index`).  The merged result over
    any complete task cover is identical to
    :func:`repro.core.fast_star.count_star_pair` (``tasks=None`` *is*
    the complete cover).  The closed form materialises no pairs, and
    its tables span only the CSR rows from the first anchor's to the
    last one's (:func:`_star_tables`).
    """
    col = graph.columnar()
    star_acc = [0] * 24
    pair_acc = [0] * 8

    by_dir = _anchor_slots(col, tasks)
    if not any(len(s1) for s1 in by_dir):
        return _cell_array(star_acc), _cell_array(pair_acc)

    # The CSR rows from the first anchor's to the last one's: the same
    # index range [base, end) in slot and in position order.
    ends = [int(s) for s1 in by_dir if len(s1) for s in (s1[0], s1[-1])]
    rows = col.inc_row[col.grp_order[[min(ends), max(ends)]]]
    base, end = int(col.inc_indptr[rows[0]]), int(col.inc_indptr[rows[1] + 1])
    we, gwe, prefixes = _star_tables(col, delta, base, end)
    cum_in = col.inc_cum_in[base:end + 1]
    gcum_in = col.grp_cum_in[base:end + 1]
    order = col.grp_order[base:end]

    def add(acc: List[int], cell: int, weight: np.ndarray) -> None:
        # Exact cell, accumulated as a Python int: every weight is a
        # non-negative per-anchor count of motif triples on its anchor
        # pair's 2m incidence entries, so below 4m² — an int64 while
        # m < 1.5·10⁹.  One block sum stays in int64 while
        # len * max < 2**63, else it runs on Python ints.
        if len(weight) == 0:
            return
        if len(weight) * int(weight.max()) < EXACT_SUM_BOUND:
            acc[cell] += int(weight.sum())
        else:
            acc[cell] += sum(weight.tolist())

    # -- per-anchor closed form ----------------------------------------
    # The anchor edge (position A, slot s1) pairs with every later
    # same-group edge in its δ-window: slots s2 in (s1, gwe[s1]).  All
    # four motif roles sum a per-s2 affine term over that slot range,
    # evaluated below as prefix-sum differences, split by d2 = dir(s2).
    # Anchors are visited in slot order, one direction d1 at a time, so
    # every table gather ascends and every cell is one plain sum.
    for d1, s1 in enumerate(by_dir):
        s1 = s1 - base
        A = order[s1] - base
        lo = s1 + 1
        hi = gwe[s1]
        cin1 = cum_in[A] - gcum_in[s1]
        cout1 = (A - s1) - cin1
        we_A = we[A]
        c3_in = cum_in[we_A] - gcum_in[hi]     # Star-III: IN lasts in window
        c3_out = (we_A - hi) - c3_in           # ... and OUT lasts
        n_in = gcum_in[hi] - gcum_in[lo]

        for d2 in (0, 1):
            N = n_in if d2 else (hi - lo) - n_in
            S = {
                name: prefix[d2][hi] - prefix[d2][lo]
                for name, prefix in zip(_STAR_TERMS, prefixes)
            }

            # Pair motifs: anchor = (1st, 3rd) edge, middles in-group.
            # The k-th d2 slot of the range has k - 1 same-direction
            # middles; the other slots before it are the cross ones.
            same = N * (N - 1) // 2
            add(pair_acc, d1 * 4 + d2 * 2 + d2, same)  # d1*4 + dmid*2 + d2
            add(pair_acc, d1 * 4 + (1 - d2) * 2 + d2, S["slot"] - N * lo - same)

            # Star motifs: the third edge, of direction dk, is on
            # another neighbour.
            for dk, (S_c, S_w, c1, c3) in enumerate((
                (S["cout"], S["wout"], cout1, c3_out),
                (S["cin"], S["win"], cin1, c3_in),
            )):
                n_c1 = N * c1
                # Star-II: anchor = (1st, 3rd) edge, middle between.
                add(star_acc, 8 + d1 * 4 + dk * 2 + d2, S_c - n_c1)
                # Star-I: anchor = (2nd, 3rd) edge, first in [window
                # start of the 3rd edge, anchor).
                add(star_acc, dk * 4 + d1 * 2 + d2, n_c1 - S_w)
                # Star-III: anchor = (1st, 2nd) edge, last in (2nd
                # edge, window end of the anchor].  Its excess up to and
                # including s2 is S_c: slot s2 and position p_s2 add the
                # same direction bit.
                add(star_acc, 16 + d1 * 4 + d2 * 2 + dk, N * c3 - S_c)

    return _cell_array(star_acc), _cell_array(pair_acc)


def _cell_array(cells: List[int]) -> np.ndarray:
    """Counter cells as an int64 array, or as Python ints past its range.

    Every caller reads the cells through ``tolist()`` or element-wise,
    so an object array keeps a cell above 2**63 - 1 exact.
    """
    limit = np.iinfo(np.int64)
    if all(limit.min <= cell <= limit.max for cell in cells):
        return np.array(cells, dtype=np.int64)
    return np.array(cells, dtype=object)


def count_triangle_columnar(
    graph: TemporalGraph,
    delta: float,
    tasks: Optional[Tasks] = None,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> np.ndarray:
    """Vectorized FAST-Tri (Algorithm 2): the 24-cell triangle counter.

    Produces the dependency-free (``multiplicity=3``) counts, identical
    to :func:`repro.core.fast_tri.count_triangle` over any complete
    task cover.  The sequential center-removal mode has no vectorized
    form (it is inherently order-dependent); callers wanting it use the
    Python reference.
    """
    col = graph.columnar()
    tri_acc = np.zeros(24, dtype=np.int64)

    anchors = _task_positions(col, tasks)
    if len(anchors) == 0 or len(col.pair_keys) == 0:
        return tri_acc

    table = triangle_table(col)
    merged = _merged_triangles(col, delta)
    owned = merged.tri
    if tasks is not None and len(owned):
        is_anchor = np.zeros(len(col.inc_eid), dtype=bool)
        is_anchor[anchors] = True
        owned = owned[is_anchor[merged.anchor]]
    if len(owned):
        _merged_timelines(col, tri_acc, table.sides[owned], chunk_pairs)

    # Wedge paths: only anchors on a side of a triangle left to them.
    slot_p = table.edge_slot[col.inc_eid[anchors]]
    live = merged.open[slot_p]
    anchors, slot_p = anchors[live], slot_p[live]
    ehi = edge_window_ends(col, delta)
    we = np.searchsorted(
        col.inc_row_key,
        col.inc_row[anchors] * np.int64(col.num_edges + 1) + ehi[col.inc_eid[anchors]],
    )
    window = we - (anchors + 1)
    tri_lo = table.indptr[slot_p]
    rows = table.indptr[slot_p + 1] - tri_lo
    on_tri = rows < window
    cost = np.where(on_tri, rows, window)
    live = cost > 0
    anchors, cost, on_tri, tri_lo = (
        anchors[live], cost[live], on_tri[live], tri_lo[live]
    )

    elo = _edge_window_starts(col, delta)
    for a, b in _chunks(cost, chunk_pairs):
        sel = on_tri[a:b]
        win = ~sel
        _window_wedges(
            col, tri_acc, delta, merged, elo, ehi, table,
            anchors[a:b][win], cost[a:b][win],
        )
        if sel.any():
            _triangle_wedges(
                col, tri_acc, merged, elo, ehi, table, anchors[a:b][sel],
                cost[a:b][sel], tri_lo[a:b][sel], chunk_pairs,
            )
    return tri_acc


def _window_wedges(
    col: ColumnarGraph,
    tri_acc: np.ndarray,
    delta: float,
    merged: MergedTriangles,
    elo: np.ndarray,
    ehi: np.ndarray,
    table: TriangleTable,
    anchors: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Window path: every δ-window successor of each anchor is a wedge.

    Wedges whose far pair does not exist are dropped by one binary
    search over ``pair_keys``, and wedges of merged triangles
    (:func:`_merged_wedge_rows`) after it.  ``elo``/``ehi`` are the per-edge window
    bounds (:func:`_edge_window_starts`, :func:`edge_window_ends`).
    """
    pos_i, pos_j = _expand_pairs(anchors, counts, gap=1)
    vi = col.inc_nbr[pos_i]
    vj = col.inc_nbr[pos_j]
    pair_keys = col.pair_keys
    wedge = np.flatnonzero(vi != vj)
    vi, vj = vi[wedge], vj[wedge]
    key = np.minimum(vi, vj) * np.int64(col.num_nodes) + np.maximum(vi, vj)
    slot = np.searchsorted(pair_keys, key)
    closed = pair_keys[np.minimum(slot, len(pair_keys) - 1)] == key
    del key
    wedge = wedge[closed]
    pos_i, pos_j = pos_i[wedge], pos_j[wedge]
    slot, flip = slot[closed], vi[closed] > vj[closed]
    del wedge, vi, vj, closed
    eid_i, eid_j = col.inc_eid[pos_i], col.inc_eid[pos_j]
    if len(merged.tri):
        drop = _merged_wedge_rows(
            col, delta, merged, table.edge_slot, slot, eid_i, eid_j
        )
        if len(drop):
            keep = np.ones(len(slot), dtype=bool)
            keep[drop] = False
            pos_i, pos_j, eid_i, eid_j = pos_i[keep], pos_j[keep], eid_i[keep], eid_j[keep]
            slot, flip = slot[keep], flip[keep]
    dirs = col.inc_dir
    _classify(
        col, tri_acc, slot, flip,
        dirs[pos_i], eid_i, ehi[eid_i],
        dirs[pos_j], eid_j, elo[eid_j],
    )


def _triangle_wedges(
    col: ColumnarGraph,
    tri_acc: np.ndarray,
    merged: MergedTriangles,
    elo: np.ndarray,
    ehi: np.ndarray,
    table: TriangleTable,
    anchors: np.ndarray,
    rows: np.ndarray,
    tri_lo: np.ndarray,
    chunk_pairs: int,
) -> None:
    """Triangle path: expand the static triangles through each anchor's pair.

    Anchor ``p`` (center ``u``, neighbour ``vi``) gets one row per
    static triangle ``{u, vi, w}``; its wedge partners are the ``E(u, w)``
    entries with edge id in ``(eid_p, ehi[eid_p])`` — two rank probes —
    and the closing pair ``{vi, w}`` comes straight from the table.
    Rows of merged triangles are dropped before any probe.
    """
    A, r = _ragged(rows)
    r += tri_lo[A]
    p = anchors[A]
    del A
    if len(merged.tri):
        keep = np.flatnonzero(~merged.is_merged[table.tri[r]])
        r, p = r[keep], p[keep]
    u_lo = col.inc_row[p] < col.inc_nbr[p]
    base = np.where(u_lo, table.lo_slot[r], table.hi_slot[r])
    base *= np.int64(col.num_edges + 1)
    # Partners: E(u, w) entries with edge id in (eid_p, ehi[eid_p]).
    eid_p = col.inc_eid[p]
    k_lo = np.searchsorted(col.pair_rank_key, base + eid_p + 1)
    partners = np.searchsorted(col.pair_rank_key, base + ehi[eid_p]) - k_lo
    del base
    row = np.flatnonzero(partners)
    r, p, u_lo, k_lo, partners = r[row], p[row], u_lo[row], k_lo[row], partners[row]
    eid_p = eid_p[row]
    del row
    w = table.third[r]
    slot_vw = np.where(u_lo, table.hi_slot[r], table.lo_slot[r])
    del r, u_lo
    # pair_dir is relative to the pair's smaller endpoint; flip it to
    # the direction relative to the center u where u > w.
    u_above_w = col.inc_row[p] > w
    flip = col.inc_nbr[p] > w
    del w
    dir_i = col.inc_dir[p]
    hi_i = ehi[eid_p]
    del p
    for a, b in _chunks(partners, chunk_pairs):
        R, k = _ragged(partners[a:b])
        R += a
        k += k_lo[R]
        eid_j = col.pair_eid[k]
        _classify(
            col, tri_acc, slot_vw[R], flip[R], dir_i[R], eid_p[R], hi_i[R],
            col.pair_dir[k] ^ u_above_w[R], eid_j, elo[eid_j],
        )


def _classify(
    col: ColumnarGraph,
    tri_acc: np.ndarray,
    slot: np.ndarray,
    flip: np.ndarray,
    dir_i: np.ndarray,
    eid_i: np.ndarray,
    hi_i: np.ndarray,
    dir_j: np.ndarray,
    eid_j: np.ndarray,
    lo_j: np.ndarray,
) -> None:
    """Scatter closable wedges' third edges into Triangle-I/II/III cells.

    One wedge per element: ``e_i``/``e_j`` are its first/second edge at
    the center, ``slot`` the pair-CSR slot of the closing pair
    ``E(vi, vj)``, and ``flip`` whether ``vi`` is that pair's larger
    endpoint.
    """
    if len(slot) == 0:
        return
    # Every cell total is a sum of per-wedge rank differences within
    # one (dir_i, dir_j, flip) group, so each rank probe is summed per
    # group on its own: make the groups contiguous (a stable radix
    # argsort of the 3-bit tag), sort each probe set within its group,
    # and probe in order — cache-local, where random-order probes into
    # the m-sized rank key miss cache on nearly every step.
    group = (dir_i * 4 + dir_j * 2 + flip).astype(np.int8)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(group, minlength=8))))
    order = np.argsort(group, kind="stable")
    del group
    base = np.take(slot, order)
    base *= np.int64(col.num_edges + 1)
    ranks: Dict[str, np.ndarray] = {}
    n_ins: Dict[str, np.ndarray] = {}
    # Timeline bounds as edge-id ranks: t_k >= t_j - δ (the
    # Triangle-I constraint) and t_k <= t_i + δ (the Triangle-III
    # constraint), both inclusive, exactly as in the Python loop.
    for name, bound in (("lo", lo_j), ("i", eid_i), ("j", eid_j + 1), ("hi", hi_i)):
        keys = np.take(bound, order)
        keys += base
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            keys[lo:hi].sort()
        rank = np.searchsorted(col.pair_rank_key, keys)
        del keys
        ranks[name] = _group_sums(rank, bounds)
        n_ins[name] = _group_sums(col.pair_cum_in[rank], bounds)

    # dk is the third edge's direction relative to vi; pair dirs are
    # normalised to the smaller endpoint, so flip when vi is the larger
    # one (the Fig. 7 convention).
    flipped = (np.arange(8) & 1).astype(bool)
    cell_base = np.arange(8) >> 1 << 1  # dir_i * 4 + dir_j * 2
    for lo, hi, offset in (
        ("lo", "i", 0),  # e_k before e_i  → Triangle-I
        ("i", "j", 8),   # e_k between     → Triangle-II
        ("j", "hi", 16),  # e_k after e_j   → Triangle-III
    ):
        span = ranks[hi] - ranks[lo]
        n_in = n_ins[hi] - n_ins[lo]
        n_dk1 = np.where(flipped, span - n_in, n_in)
        np.add.at(tri_acc, offset + cell_base + 1, n_dk1)
        np.add.at(tri_acc, offset + cell_base, span - n_dk1)


def _group_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Exact int64 sums of ``values`` over contiguous runs ``bounds``."""
    csum = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    return csum[bounds[1:]] - csum[bounds[:-1]]
