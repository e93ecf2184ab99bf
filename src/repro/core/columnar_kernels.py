"""Vectorized FAST counting kernels over the columnar edge store.

These kernels produce counts **identical** to the pure-Python loops in
:mod:`repro.core.fast_star` / :mod:`repro.core.fast_tri`
(property-tested across all motif classes, timestamp ties included),
but express Algorithms 1 and 2 of the paper as a handful of NumPy
array passes instead of per-edge interpreter steps.  Select them with
``backend="columnar"`` anywhere a
:class:`~repro.core.registry.CountRequest` is accepted.

How the Python loops vectorize
------------------------------

**Window bounds are edge-id ranks.**  Edges are canonically sorted by
``(t, input pos)``, so for any threshold ``x`` the set
``{e : t_e <= x}`` is an edge-id prefix found by one binary search on
the timestamp column, and "entries of center *u*'s CSR row below that
id" is one probe of the row-composite key
(:attr:`~repro.graph.columnar.ColumnarGraph.inc_row_key`).  Every
δ-window bound used below is precomputed this way for *all* incidence
positions at once — six vectorized ``searchsorted`` passes total,
memoized per δ on the columnar store (the worker pool exports the memo
once and every worker attaches it from shared memory instead of
recomputing per batch).

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
builds ~16 direction-split prefix arrays over the 2m incidence entries
(also memoized per δ) and then evaluates every counter cell with O(1)
arithmetic per anchor edge.  Total work is O(m log m), *below* the
paper's O(d^δ · m) bound for FAST-Star.

**FAST-Tri classifies by edge id.**  The canonical tie-break rule
makes "``e_k`` before ``e_i``" ⟺ ``eid_k < eid_i`` and "after ``e_j``"
⟺ ``eid_k > eid_j``, so the Triangle I/II/III split of the pair
timeline ``E(v, w)`` is three contiguous id ranges, located by rank
probes into the pair CSR and split by direction with prefix sums.
Every cell total is a sum of rank differences within one
``(dir_i, dir_j, flip)`` wedge group, so the wedges are grouped once
and each probe set is sorted within its group before probing:
cache-local, where random-order probes into the m-sized rank key miss
on nearly every step.

**FAST-Tri expands only where wedges can close.**  Algorithm 2 takes
every in-window edge pair at a center as a candidate, yet on session
graphs well under 1% of them have a far pair that exists.  Each anchor
incidence ``p`` (center ``u``, neighbour ``v``) therefore expands
whichever candidate set is smaller — both sizes are O(1) lookups:

* the *window path*: its ``we[p] - p - 1`` δ-window successors, each
  closed (or dropped) by a binary search over ``pair_keys``;
* the *triangle path*: one row per static triangle ``{u, v, w}``
  through its pair (the per-triangle view of Paranjape et al.), whose
  wedge partners are the ``E(u, w)`` entries with edge id in
  ``(eid_p, hi_eid[p])`` — two rank probes — and whose closing pair
  ``{v, w}`` comes from the table, with no pair search.

Both paths feed one classifier and own a wedge by its first edge at
its center, so either choice gives the same per-task counts.  The
static-triangle table (:func:`triangle_table`, a degree-ordered
vectorized enumeration) is δ-independent and memoized in the
columnar store's ``delta_cache``.

**Exact accumulation.**  Counter cells are accumulated with pure int64
sums (never float64 ``bincount`` weights), so counts stay exact
arbitrarily far beyond 2**53.

Work decomposition
------------------

Both kernels accept the scheduler's ``(node, i_lo, i_hi)`` tasks.
Ownership of a triple is defined by its *anchor edge* — the earlier
edge of the anchor pair for stars, the wedge's first edge for
triangles — which every complete task cover visits exactly once, so
merged task results equal the serial count exactly.  (The per-task
*split* may differ from the Python kernels, whose ownership is always
the triple's first edge; only the union is contracted — see
:func:`repro.core.fast_star.count_star_pair_tasks`.)

Peak memory is O(m) for the star kernel.  The triangle kernel adds
the O(m + T) static-triangle table (T triangles) and, independent of
δ, at most ``chunk_pairs`` (default 2**21 ≈ 2M) expanded candidates
at once: window wedges plus triangle rows per anchor slice, and again
at most ``chunk_pairs`` wedge partners per slice of rows.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from repro.graph.columnar import ColumnarGraph
from repro.graph.temporal_graph import TemporalGraph

#: Default cap on expanded wedge pairs processed at once (FAST-Tri).
DEFAULT_CHUNK_PAIRS = 1 << 21

#: A work task, as produced by the HARE scheduler.
Task = Tuple[int, int, Optional[int]]


def _task_positions(
    col: ColumnarGraph, tasks: Optional[Iterable[Task]], tail: int = 1
) -> np.ndarray:
    """Flatten tasks into absolute incidence positions of anchor edges.

    ``tail`` is how many trailing positions of a CSR row cannot anchor
    anything (at least one later edge must exist).  ``tasks=None``
    selects every eligible position of every center — the full serial
    count.
    """
    indptr = col.inc_indptr
    if tasks is None:
        rows, offsets = _ragged(np.maximum(np.diff(indptr) - tail, 0))
        return indptr[rows] + offsets
    table = np.array(
        [(node, i_lo, -1 if i_hi is None else i_hi) for node, i_lo, i_hi in tasks],
        dtype=np.int64,
    ).reshape(-1, 3)
    node, lo, hi = table.T
    row_lo = indptr[node]
    limit = indptr[node + 1] - row_lo - tail
    hi = np.where(hi < 0, limit, np.minimum(hi, limit))
    task, offsets = _ragged(np.maximum(hi - lo, 0))
    return row_lo[task] + lo[task] + offsets


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


def _window_bounds(
    col: ColumnarGraph, delta: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-position δ-window bounds, all four flavours, fully vectorized.

    Returns ``(lo_eid, hi_eid, ws, we)`` where for every incidence
    position ``p``:

    * ``lo_eid[p]`` / ``hi_eid[p]`` — global edge-id ranks of the
      window ``[t_p - δ, t_p + δ]`` (first id with ``t >= t_p - δ``,
      first id with ``t > t_p + δ``);
    * ``ws[p]`` / ``we[p]`` — the same bounds as absolute positions
      inside ``p``'s own CSR row (row-composite probes).

    Memoized per δ on ``col.delta_cache`` (single entry — sweeps
    revisit deltas rarely, HARE batches revisit the same δ often).
    """
    key = ("bounds", float(delta))
    cached = col.delta_cache.get(key)
    if cached is not None:
        return cached
    t = col.t
    time_col = col.inc_time
    lo_eid = np.searchsorted(t, time_col - delta, side="left")
    hi_eid = np.searchsorted(t, time_col + delta, side="right")
    row_base = col.inc_row * np.int64(col.num_edges + 1)
    ws = np.searchsorted(col.inc_row_key, row_base + lo_eid)
    we = np.searchsorted(col.inc_row_key, row_base + hi_eid)
    # A new δ evicts every δ-keyed memo; the δ-free triangle table stays.
    for stale in [k for k in col.delta_cache if k != _TRI_KEY]:
        del col.delta_cache[stale]
    col.delta_cache[key] = (lo_eid, hi_eid, ws, we)
    return col.delta_cache[key]


#: ``delta_cache`` key of the (δ-independent) static-triangle table.
_TRI_KEY = ("tri",)


class TriangleTable(NamedTuple):
    """Per-pair CSR over the static triangles of the pair graph.

    The triangles through pair-CSR slot ``s = {a, b}`` (``a < b``) are
    entries ``indptr[s]:indptr[s+1]``, ascending by third vertex; entry
    ``r`` names the third vertex ``third[r]`` and the slots of its
    pairs with ``a`` (``lo_slot[r]``) and with ``b`` (``hi_slot[r]``).
    ``edge_slot`` maps every edge id to its own pair slot.
    """

    indptr: np.ndarray
    third: np.ndarray
    lo_slot: np.ndarray
    hi_slot: np.ndarray
    edge_slot: np.ndarray


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
    order = np.lexsort((y, x))  # out-rows by x, ids ascending inside
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
    tri_order = np.lexsort((nodes[:, 2], nodes[:, 1], nodes[:, 0]))
    return nodes[tri_order], slots[tri_order]


def triangle_table(col: ColumnarGraph) -> TriangleTable:
    """The memoized :class:`TriangleTable` of ``col``'s static pair graph.

    δ-independent, so it survives δ changes in ``col.delta_cache``; it
    is shipped to pool workers with the per-δ tables.  Build cost is the O(P^1.5) enumeration plus O(m).
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
    order = np.lexsort((third, owner))
    indptr = np.concatenate(
        ([0], np.cumsum(np.bincount(owner, minlength=P), dtype=np.int64))
    )
    edge_slot = np.empty(col.num_edges, dtype=np.int64)
    edge_slot[col.pair_eid] = np.repeat(
        np.arange(P, dtype=np.int64), np.diff(col.pair_indptr)
    )
    table = TriangleTable(
        indptr, third[order], lo_slot[order], hi_slot[order], edge_slot
    )
    col.delta_cache[_TRI_KEY] = table
    return table


def _dir_prefixes(values: np.ndarray, is_in: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Direction-split exclusive prefix sums of a per-slot array."""
    zero = np.int64(0)
    out = np.concatenate(([zero], np.cumsum(np.where(is_in, 0, values))))
    into = np.concatenate(([zero], np.cumsum(np.where(is_in, values, 0))))
    return out, into


def _star_precompute(col: ColumnarGraph, delta: float):
    """δ-dependent, task-independent tables of the star closed form.

    Returns ``(gws, gwe, prefixes)`` where ``prefixes`` maps base-term
    name → its direction-split prefix pair.  Memoized alongside the
    window bounds so HARE batches (and repeated serial calls at one δ)
    pay the O(m log m) setup once.
    """
    key = ("star", float(delta))
    cached = col.delta_cache.get(key)
    if cached is not None:
        return cached
    _, _, ws, we = _window_bounds(col, delta)
    L = 2 * col.num_edges
    slot_ids = np.arange(L, dtype=np.int64)
    gkey_base = col.grp_id * np.int64(L + 1)
    gws = np.searchsorted(col.grp_rank_key, gkey_base + ws)
    gwe = np.searchsorted(col.grp_rank_key, gkey_base + we)

    # Per-slot base terms (slot s holds position p_s = order[s]):
    # "outside-group" rank excesses — global minus in-group quantities.
    pos_s = col.grp_order
    cum_in = col.inc_cum_in
    gcum_in = col.grp_cum_in
    is_in = col.inc_dir[pos_s] == 1
    cin = cum_in[pos_s] - gcum_in[slot_ids]          # IN before p_s, other nbrs
    gin = cum_in[pos_s + 1] - gcum_in[slot_ids + 1]  # ... up to and incl. p_s
    win = cum_in[ws[pos_s]] - gcum_in[gws[pos_s]]    # ... before p_s's window
    prefixes = {
        "one": _dir_prefixes(np.ones(L, dtype=np.int64), is_in),
        "slot": _dir_prefixes(slot_ids, is_in),
        "cin": _dir_prefixes(cin, is_in),
        "gin": _dir_prefixes(gin, is_in),
        "win": _dir_prefixes(win, is_in),
        "osub": _dir_prefixes(pos_s - slot_ids, is_in),
        "wsub": _dir_prefixes(ws[pos_s] - gws[pos_s], is_in),
        "ggin": _dir_prefixes(gcum_in[slot_ids], is_in),
    }
    col.delta_cache[key] = (gws, gwe, prefixes)
    return col.delta_cache[key]


def edge_window_ends(col: ColumnarGraph, delta: float) -> np.ndarray:
    """Per-*edge* forward δ-window end ranks: first id with ``t > t_e + δ``.

    The edge-indexed sibling of :func:`_window_bounds` (which is
    incidence-position-indexed): an edge's forward δ-window is exactly
    the id range ``(e, edge_window_ends(col, δ)[e])``.  This is the
    candidate-cap primitive of the sampling kernels
    (:mod:`repro.core.sampling_kernels`), which only ever look
    *forward* from an anchor — so no backward-bound array is computed
    or shipped.  Memoized per δ alongside the other kernel tables;
    exported/installed through the same shared-memory bundle so pool
    workers share one copy.
    """
    key = ("ewin", float(delta))
    cached = col.delta_cache.get(key)
    if cached is not None:
        return cached
    t = col.t
    hi = np.searchsorted(t, t + delta, side="right")
    col.delta_cache[key] = hi
    return hi


def _edge_window_starts(col: ColumnarGraph, delta: float) -> np.ndarray:
    """Per-*edge* backward δ-window start ranks: first id with ``t >= t_e - δ``.

    The triangle path reaches wedge partners through the pair CSR, so
    it needs this bound by edge id rather than by incidence position.
    """
    key = ("elo", float(delta))
    cached = col.delta_cache.get(key)
    if cached is None:
        cached = col.delta_cache[key] = np.searchsorted(col.t, col.t - delta)
    return cached


#: Star prefix-table names, in their packed export order.
_STAR_TERMS = ("one", "slot", "cin", "gin", "win", "osub", "wsub", "ggin")


def export_delta_cache(
    col: ColumnarGraph, delta: float, star_pair: bool = True,
    *, window_bounds: bool = True, edge_window: bool = False,
    triangle: bool = False,
) -> "Dict[str, np.ndarray]":
    """Flatten the per-δ memo tables into a named-array dict.

    Warms the memos first if needed.  The returned mapping round-trips
    through :func:`install_delta_cache`, which is how the persistent
    worker pool ships one copy of the O(m)-sized δ tables to every
    worker via shared memory instead of having each worker redo the
    O(m log m) setup (and hold its own quarter-gigabyte copy).
    ``window_bounds``/``star_pair`` select the FAST kernel tables;
    ``triangle`` adds the static-triangle table (:func:`triangle_table`)
    and the per-edge window starts; ``edge_window`` adds the
    sampling kernels' per-edge window ranks (:func:`edge_window_ends`)
    — a sampling-only job exports just those.
    """
    arrays: "Dict[str, np.ndarray]" = {}
    if triangle:
        table = triangle_table(col)
        arrays.update(
            {f"tri.{name}": value for name, value in table._asdict().items()}
        )
        arrays["elo.lo"] = _edge_window_starts(col, delta)
    if window_bounds or star_pair:
        lo_eid, hi_eid, ws, we = _window_bounds(col, delta)
        arrays.update({
            "bounds.lo_eid": lo_eid,
            "bounds.hi_eid": hi_eid,
            "bounds.ws": ws,
            "bounds.we": we,
        })
    if star_pair:
        gws, gwe, prefixes = _star_precompute(col, delta)
        arrays["star.gws"] = gws
        arrays["star.gwe"] = gwe
        for name in _STAR_TERMS:
            out, into = prefixes[name]
            arrays[f"star.{name}.out"] = out
            arrays[f"star.{name}.in"] = into
    if edge_window:
        arrays["ewin.hi"] = edge_window_ends(col, delta)
    return arrays


def install_delta_cache(
    col: ColumnarGraph, delta: float, arrays: "Mapping[str, np.ndarray]"
) -> None:
    """Install exported per-δ tables into ``col.delta_cache``.

    The inverse of :func:`export_delta_cache`: after this call the
    kernels hit the memo instead of recomputing.  Replaces whatever δ
    was resident (the cache is single-entry per kind, matching
    :func:`_window_bounds`) — the static-triangle table included, since
    a resident one may be a view into a bundle about to be released.
    """
    col.delta_cache.clear()
    if "tri.indptr" in arrays:
        col.delta_cache[_TRI_KEY] = TriangleTable(
            *(arrays[f"tri.{name}"] for name in TriangleTable._fields)
        )
        col.delta_cache[("elo", float(delta))] = arrays["elo.lo"]
    if "bounds.lo_eid" in arrays:
        col.delta_cache[("bounds", float(delta))] = (
            arrays["bounds.lo_eid"],
            arrays["bounds.hi_eid"],
            arrays["bounds.ws"],
            arrays["bounds.we"],
        )
    if "ewin.hi" in arrays:
        col.delta_cache[("ewin", float(delta))] = arrays["ewin.hi"]
    if "star.gws" in arrays:
        prefixes = {
            name: (arrays[f"star.{name}.out"], arrays[f"star.{name}.in"])
            for name in _STAR_TERMS
        }
        col.delta_cache[("star", float(delta))] = (
            arrays["star.gws"],
            arrays["star.gwe"],
            prefixes,
        )


def count_star_pair_columnar(
    graph: TemporalGraph,
    delta: float,
    tasks: Optional[Iterable[Task]] = None,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized FAST-Star (Algorithm 1): star + pair flat counters.

    Returns the 24-cell star and 8-cell pair counter arrays (int64,
    layout of :func:`repro.core.counters.star_index` /
    :func:`~repro.core.counters.pair_index`).  The merged result over
    any complete task cover is identical to
    :func:`repro.core.fast_star.count_star_pair` (``tasks=None`` *is*
    the complete cover).  ``chunk_pairs`` is accepted for interface
    symmetry with the triangle kernel; this kernel materialises no
    pairs.
    """
    del chunk_pairs  # closed form: nothing to chunk
    col = graph.columnar()
    star_acc = np.zeros(24, dtype=np.int64)
    pair_acc = np.zeros(8, dtype=np.int64)

    anchors = _task_positions(col, tasks)
    if len(anchors) == 0:
        return star_acc, pair_acc

    _, gwe, P = _star_precompute(col, delta)
    _, _, _, we = _window_bounds(col, delta)
    cum_in = col.inc_cum_in
    gcum_in = col.grp_cum_in

    # -- per-anchor closed form ----------------------------------------
    # The anchor edge (position A, slot s1) pairs with every later
    # same-group edge in its δ-window: slots s2 in (s1, gwe[A]).  All
    # four motif roles sum a per-s2 affine term over that slot range,
    # evaluated below as prefix-sum differences, split by d2 = dir(s2).
    A = anchors
    s1 = col.grp_inv[A]
    d1 = col.inc_dir[A]
    lo = s1 + 1
    hi = gwe[A]
    cin1 = cum_in[A] - gcum_in[s1]
    osub1 = A - s1
    ggin1 = gcum_in[s1] + d1
    we_A = we[A]
    const3_in = cum_in[we_A] - gcum_in[hi]     # Star-III: IN lasts in window
    const3_any = we_A - hi                     # ... any-direction counterpart

    d1_masks = (d1 == 0, d1 == 1)

    def scatter(acc: np.ndarray, cell_d1: Tuple[int, int], weight: np.ndarray) -> None:
        # Exact int64 scatter-add: the cell is determined by the
        # anchor's direction, so two masked integer sums per term.
        acc[cell_d1[0]] += int(weight[d1_masks[0]].sum())
        acc[cell_d1[1]] += int(weight[d1_masks[1]].sum())

    for d2 in (0, 1):
        def span(name: str) -> np.ndarray:
            prefix = P[name][d2]
            return prefix[hi] - prefix[lo]

        N = span("one")
        S_slot = span("slot")
        S_cin = span("cin")
        S_gin = span("gin")
        S_win = span("win")
        S_osub = span("osub")
        S_wsub = span("wsub")
        S_ggin = span("ggin")

        # Pair motifs: anchor = (1st, 3rd) edge, middles in-group.
        w_in = S_ggin - N * ggin1
        w_out = (S_slot - N * (s1 + 1)) - w_in
        scatter(pair_acc, (2 + d2, 6 + d2), w_in)       # d1*4 + IN*2 + d2
        scatter(pair_acc, (d2, 4 + d2), w_out)

        # Star-II: anchor = (1st, 3rd) edge, middles on other nbrs.
        w_in = S_cin - N * cin1
        w_out = (S_osub - S_cin) - N * (osub1 - cin1)
        scatter(star_acc, (10 + d2, 14 + d2), w_in)     # 8 + d1*4 + 2 + d2
        scatter(star_acc, (8 + d2, 12 + d2), w_out)

        # Star-I: anchor = (2nd, 3rd) edge, firsts on other nbrs in
        # [window start of the 3rd edge, anchor).
        w_in = N * cin1 - S_win
        w_out = N * (osub1 - cin1) - (S_wsub - S_win)
        scatter(star_acc, (4 + d2, 6 + d2), w_in)       # dI*4 + d1*2 + d2
        scatter(star_acc, (d2, 2 + d2), w_out)

        # Star-III: anchor = (1st, 2nd) edge, lasts on other nbrs in
        # (2nd edge, window end of the anchor].
        w_in = N * const3_in - S_gin
        w_out = N * (const3_any - const3_in) - (S_osub - S_gin)
        scatter(star_acc, (17 + d2 * 2, 21 + d2 * 2), w_in)  # 16+d1*4+d2*2+1
        scatter(star_acc, (16 + d2 * 2, 20 + d2 * 2), w_out)

    return star_acc, pair_acc


def count_triangle_columnar(
    graph: TemporalGraph,
    delta: float,
    tasks: Optional[Iterable[Task]] = None,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> np.ndarray:
    """Vectorized FAST-Tri (Algorithm 2): the 24-cell triangle counter.

    Produces the dependency-free (``multiplicity=3``) counts, identical
    to :func:`repro.core.fast_tri.count_triangle` over any complete
    task cover.  The sequential center-removal mode has no vectorized
    form (it is inherently order-dependent); callers wanting it use the
    Python backend.
    """
    col = graph.columnar()
    tri_acc = np.zeros(24, dtype=np.int64)

    anchors = _task_positions(col, tasks)
    if len(anchors) == 0 or len(col.pair_keys) == 0:
        return tri_acc

    lo_eid, hi_eid, _, we = _window_bounds(col, delta)
    window = np.maximum(we[anchors] - (anchors + 1), 0)
    table = triangle_table(col)
    slot_p = table.edge_slot[col.inc_eid[anchors]]
    tri_lo = table.indptr[slot_p]
    rows = table.indptr[slot_p + 1] - tri_lo
    on_tri = rows < window
    cost = np.where(on_tri, rows, window)
    live = cost > 0
    anchors, cost, on_tri, tri_lo = (
        anchors[live], cost[live], on_tri[live], tri_lo[live]
    )

    for a, b in _chunks(cost, chunk_pairs):
        sel = on_tri[a:b]
        win = ~sel
        _window_wedges(
            col, tri_acc, lo_eid, hi_eid, anchors[a:b][win], cost[a:b][win]
        )
        if sel.any():
            _triangle_wedges(
                col, tri_acc, delta, hi_eid, table, anchors[a:b][sel],
                cost[a:b][sel], tri_lo[a:b][sel], chunk_pairs,
            )
    return tri_acc


def _window_wedges(
    col: ColumnarGraph,
    tri_acc: np.ndarray,
    lo_eid: np.ndarray,
    hi_eid: np.ndarray,
    anchors: np.ndarray,
    counts: np.ndarray,
) -> None:
    """Window path: every δ-window successor of each anchor is a wedge.

    Wedges whose far pair does not exist are dropped by one binary
    search over ``pair_keys``.
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
    eid, dirs = col.inc_eid, col.inc_dir
    _classify(
        col, tri_acc, slot, flip,
        dirs[pos_i], eid[pos_i], hi_eid[pos_i],
        dirs[pos_j], eid[pos_j], lo_eid[pos_j],
    )


def _triangle_wedges(
    col: ColumnarGraph,
    tri_acc: np.ndarray,
    delta: float,
    hi_eid: np.ndarray,
    table: TriangleTable,
    anchors: np.ndarray,
    rows: np.ndarray,
    tri_lo: np.ndarray,
    chunk_pairs: int,
) -> None:
    """Triangle path: expand the static triangles through each anchor's pair.

    Anchor ``p`` (center ``u``, neighbour ``vi``) gets one row per
    static triangle ``{u, vi, w}``; its wedge partners are the ``E(u, w)``
    entries with edge id in ``(eid_p, hi_eid[p])`` — two rank probes —
    and the closing pair ``{vi, w}`` comes straight from the table.
    """
    A, r = _ragged(rows)
    r += tri_lo[A]
    p = anchors[A]
    del A
    u_lo = col.inc_row[p] < col.inc_nbr[p]
    base = np.where(u_lo, table.lo_slot[r], table.hi_slot[r])
    base *= np.int64(col.num_edges + 1)
    # Partners: E(u, w) entries with edge id in (eid_p, hi_eid[p]).
    k_lo = np.searchsorted(col.pair_rank_key, base + col.inc_eid[p] + 1)
    partners = np.searchsorted(col.pair_rank_key, base + hi_eid[p]) - k_lo
    del base
    row = np.flatnonzero(partners)
    r, p, u_lo, k_lo, partners = r[row], p[row], u_lo[row], k_lo[row], partners[row]
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
    eid_p = col.inc_eid[p]
    hi_i = hi_eid[p]
    del p
    elo = _edge_window_starts(col, delta)
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
