"""Vectorized sampling-estimator kernels over the columnar edge store.

The sampling estimators — BTS (Liu, Benson & Charikar, WSDM 2019) and
EWS (Wang et al., CIKM 2020) — are both *reweighted sums over
independently sampled units*: time blocks for BTS, anchor edges for
EWS.  Their python baselines resolve each unit through per-edge
generator loops (:func:`repro.baselines.backtracking.match_instances`,
``_later_incident_edges``); this module evaluates whole unit batches
as NumPy array passes over the :class:`~repro.graph.columnar.ColumnarGraph`
CSR layouts instead.  Select them with ``backend="columnar"`` on any
:class:`~repro.core.registry.CountRequest` naming ``bts``, ``ews`` or
``ex``.

The enumeration core
--------------------

All three kernels share one primitive: *enumerate every time-ordered
candidate triple rooted at a set of anchor edges*.  For an anchor edge
``a = (u, v)`` with a per-anchor edge-id cap ``hi`` (its δ-window end,
possibly tightened by a BTS block boundary):

* **second edges** are the entries of CSR rows ``u`` and ``v`` with
  edge id in ``(a, hi)`` — two ``searchsorted`` probes of the
  row-composite key per anchor, expanded to flat (anchor, second)
  pairs; edges between ``u`` and ``v`` appear in both rows and are
  deduplicated by dropping the row-``v`` copy;
* **third edges** are the entries of the rows of all bound nodes
  (``u``, ``v``, and the wedge node ``w`` when the second edge opened
  one) with id in ``(b, hi)``, deduplicated the same way;
* each candidate triple is classified to its Fig. 2 grid cell (or
  rejected, when the third edge leaves the ≤3-node world) by **pure
  integer arithmetic** against :data:`TRIPLE_CELL_TABLE` — the
  precomputed (second-edge shape, third-edge endpoints) → cell lookup
  that replaces per-instance
  :func:`repro.core.motifs.classify_triple` calls (the python EWS
  path uses the same table through the scalar helpers below).

Candidate volume is the same Θ(instances + rejected wedges) the python
generators walk; the win is executing it at NumPy, not interpreter,
speed.  Expansion is chunked (``chunk_pairs``), and BTS additionally
batches its blocks (:data:`BLOCK_BATCH_ANCHORS`), so peak memory
tracks a bounded slice of the work, not δ or the sample size.

Bit-identical estimates
-----------------------

``backend=`` selects execution strategy, never results, so for a fixed
seed the kernels reproduce the python estimators *bit for bit*:

* **same sample draws** — EWS draws its anchor Bernoulli vector with
  one ``rng.random(m)`` call and its wedge coins in (anchor, second
  edge id) order, exactly the order the python loop consumes them
  (NumPy's ``Generator`` produces the same stream batched or one at a
  time); BTS block boundaries and coin flips were already vectorized
  and are shared verbatim;
* **canonical reductions** — both backends reduce floating-point
  weights through the same helpers: :func:`ht_weight_sum` (sort the
  spans of one (block, motif) group, weight, ``np.add.reduce``) for
  BTS and :func:`ews_grid` (exact int64 occurrence counts per cell and
  weight class, one float multiply-add at the end) for EWS.  Identical
  input multisets therefore produce identical bits no matter which
  backend — or how many workers — enumerated them.

``ex`` is the degenerate case: with every anchor kept and unit
weights, the enumeration core counts the full grid exactly, giving the
EX baseline a columnar backend whose cost is Θ(instances) — explicit
opt-in only (its ``"auto"`` backend stays python, whose window-counter
machinery is *sublinear* in instances on dense timelines).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.columnar_kernels import (
    DEFAULT_CHUNK_PAIRS,
    _chunks,
    edge_window_ends,
)
from repro.core.motifs import PAIR_MOTIFS, classify_triple, motif_cell
from repro.graph.columnar import ColumnarGraph
from repro.graph.temporal_graph import TemporalGraph

#: Flat grid cells (:func:`~repro.core.motifs.motif_cell`) of the four
#: 2-node motifs.
PAIR_CELLS = frozenset(motif_cell(motif) for motif in PAIR_MOTIFS)

#: First-edge count per internal BTS block batch: spans buffer per
#: batch, so this (together with ``chunk_pairs``) bounds the kernel's
#: working set to a few blocks' instances instead of the whole sample.
BLOCK_BATCH_ANCHORS = 1 << 15


# ----------------------------------------------------------------------
# triple classification: (shape, directions) -> grid cell
# ----------------------------------------------------------------------

def _build_triple_table() -> np.ndarray:
    """``code2 * 16 + a3 * 4 + b3`` → flat grid cell, or -1.

    ``code2`` encodes how the second edge sits on the first edge
    ``(u, v)`` (see :func:`second_edge_code`); ``a3``/``b3`` locate the
    third edge's source/destination among ``u`` (0), ``v`` (1), the
    wedge node ``w`` (2), or a fresh node (3).  Entries that leave the
    ≤3-node world — or are unreachable, like ``w`` references under a
    pair-shaped second edge — hold -1.
    """
    u, v, w = 0, 1, 2
    fresh_s, fresh_d = 3, 4  # distinct, so "both fresh" exceeds 3 nodes
    second = {0: (u, v), 1: (v, u), 2: (u, w), 3: (v, w), 4: (w, u), 5: (w, v)}
    table = np.full(96, -1, dtype=np.int64)
    for code2, e2 in second.items():
        has_w = code2 >= 2
        for a3, s3 in enumerate((u, v, w, fresh_s)):
            for b3, d3 in enumerate((u, v, w, fresh_d)):
                if (a3 == 2 or b3 == 2) and not has_w:
                    continue  # no wedge node to reference
                motif = classify_triple(((u, v), e2, (s3, d3)))
                if motif is not None:
                    table[code2 * 16 + a3 * 4 + b3] = motif_cell(motif)
    return table


#: The shared classification table (python EWS path and all kernels).
TRIPLE_CELL_TABLE = _build_triple_table()


def second_edge_code(u1: int, v1: int, s2: int, d2: int) -> int:
    """Shape code of a second edge ``(s2, d2)`` against ``(u1, v1)``.

    0/1: same pair (same direction / reversed); 2–5: wedge, by which
    endpoint is shared and in which role.  ``(s2, d2)`` must share a
    node with ``(u1, v1)`` (always true for incidence candidates).
    """
    if s2 == u1:
        return 0 if d2 == v1 else 2
    if s2 == v1:
        return 1 if d2 == u1 else 3
    return 4 if d2 == u1 else 5


def third_edge_code(u1: int, v1: int, w: int, s3: int, d3: int) -> int:
    """Endpoint code of a third edge (``w = -1`` when no wedge node)."""
    a3 = 0 if s3 == u1 else 1 if s3 == v1 else 2 if s3 == w else 3
    b3 = 0 if d3 == u1 else 1 if d3 == v1 else 2 if d3 == w else 3
    return a3 * 4 + b3


def wedge_node(code2: int, s2: int, d2: int) -> int:
    """The second edge's new node under ``code2``, or -1 for pair shapes."""
    if code2 < 2:
        return -1
    return d2 if code2 < 4 else s2


def _second_codes(
    u1: np.ndarray, v1: np.ndarray, s2: np.ndarray, d2: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`second_edge_code`."""
    return np.where(
        s2 == u1,
        np.where(d2 == v1, 0, 2),
        np.where(
            s2 == v1,
            np.where(d2 == u1, 1, 3),
            np.where(d2 == u1, 4, 5),
        ),
    )


def _third_codes(
    u1: np.ndarray, v1: np.ndarray, w: np.ndarray, s3: np.ndarray, d3: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`third_edge_code` (``w`` may be -1)."""
    a3 = np.where(s3 == u1, 0, np.where(s3 == v1, 1, np.where(s3 == w, 2, 3)))
    b3 = np.where(d3 == u1, 0, np.where(d3 == v1, 1, np.where(d3 == w, 2, 3)))
    return a3 * 4 + b3


# ----------------------------------------------------------------------
# canonical floating-point reductions (shared by both backends)
# ----------------------------------------------------------------------

def ht_weight_sum(spans: Sequence[float], W: float, q: float) -> float:
    """Horvitz–Thompson weight sum of one (block, motif) instance group.

    ``weight = 1 / ((W - span) · q / W)`` per instance — the inverse
    probability that a random block partition covers the instance and
    the block's coin keeps it.  Sorting the spans first makes the
    floating-point reduction *canonical*: any enumeration order (DFS
    generators, vectorized chunks, any worker split) of the same
    instance multiset produces the same bits.
    """
    arr = np.sort(np.asarray(spans, dtype=np.float64))
    q_over_w = q / W
    return float(np.add.reduce(1.0 / ((W - arr) * q_over_w)))


def ews_grid(
    pair_counts: np.ndarray, wedge_counts: np.ndarray, p: float, q: float
) -> np.ndarray:
    """Assemble the EWS estimate grid from exact per-cell tallies.

    EWS weights take exactly two values — ``1/p`` for second edges on
    the anchor pair and ``1/(p·q)`` for wedges — so both backends tally
    int64 occurrences per (cell, weight class) and multiply once here:
    integer tallies are order-free, which is what makes the fixed-seed
    estimate bit-identical across backends and execution strategies.
    """
    inv_p = 1.0 / p
    grid = pair_counts.astype(np.float64).reshape(6, 6) * inv_p
    grid += wedge_counts.astype(np.float64).reshape(6, 6) * (inv_p / q)
    return grid


# ----------------------------------------------------------------------
# expansion helpers
# ----------------------------------------------------------------------

def _expand_ranges(
    starts: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Expand per-parent ``[start, start+count)`` ranges to flat positions.

    Returns ``(positions, parents)`` where ``parents[k]`` is the index
    of the range that produced ``positions[k]`` (ranges in order).
    """
    total = int(counts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    parents = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    positions = (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets, counts)
        + np.repeat(starts, counts)
    )
    return positions, parents


def _row_ranges(
    col: ColumnarGraph, rows: np.ndarray, lo_eid: np.ndarray, hi_eid: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """CSR position bounds of ``rows``' entries with eid in ``[lo, hi)``."""
    base = rows * np.int64(col.num_edges + 1)
    start = np.searchsorted(col.inc_row_key, base + lo_eid)
    end = np.searchsorted(col.inc_row_key, base + hi_eid)
    return start, end


# ----------------------------------------------------------------------
# the enumeration core
# ----------------------------------------------------------------------

#: One chunk of classified triples: (anchor index into the kernel's
#: anchor array, flat grid cell, third-edge id, wedge flag).
TripleChunk = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _iter_triples(
    col: ColumnarGraph,
    anchors: np.ndarray,
    hi_rank: np.ndarray,
    *,
    rng: Optional[np.random.Generator] = None,
    q: float = 1.0,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> Iterator[TripleChunk]:
    """Enumerate and classify candidate triples rooted at ``anchors``.

    ``hi_rank[k]`` is the exclusive edge-id cap of anchor ``k``'s
    candidates (its δ-window end, possibly tightened by a BTS block
    boundary).  With ``q < 1`` wedge-shaped second edges are Bernoulli
    subsampled through ``rng`` in (anchor, second-edge id) order — the
    python EWS loop's exact draw order, so the consumed stream matches
    bit for bit.  Anchor-axis chunks preserve that order; triples may
    be split across yields arbitrarily (all consumers are order-free).
    """
    if len(anchors) == 0:
        return
    nbr = col.inc_nbr
    dirs = col.inc_dir
    eid = col.inc_eid
    u_all = col.src[anchors]
    v_all = col.dst[anchors]
    su, eu = _row_ranges(col, u_all, anchors + 1, hi_rank)
    sv, ev = _row_ranges(col, v_all, anchors + 1, hi_rank)
    second_counts = (eu - su) + (ev - sv)

    for a0, a1 in _chunks(second_counts, chunk_pairs):
        # -- second edges: rows u and v, deduped, wedge-subsampled -----
        pos_u, par_u = _expand_ranges(su[a0:a1], eu[a0:a1] - su[a0:a1])
        pos_v, par_v = _expand_ranges(sv[a0:a1], ev[a0:a1] - sv[a0:a1])
        # An edge between u and v appears in both rows; keep the row-u
        # copy.  Remaining row-v entries are all wedges (nbr != u).
        keep_v = nbr[pos_v] != u_all[a0:a1][par_v]
        pos_b = np.concatenate((pos_u, pos_v[keep_v]))
        a_idx = np.concatenate((par_u, par_v[keep_v])) + a0
        if len(pos_b) == 0:
            continue
        u1 = u_all[a_idx]
        v1 = v_all[a_idx]
        b_eid = eid[pos_b]
        b_nbr = nbr[pos_b]
        b_center = np.where(np.arange(len(pos_b)) < len(pos_u), u1, v1)
        b_src = np.where(dirs[pos_b] == 0, b_center, b_nbr)
        b_dst = np.where(dirs[pos_b] == 0, b_nbr, b_center)
        code2 = _second_codes(u1, v1, b_src, b_dst)
        is_wedge = code2 >= 2

        if q < 1:
            # Python draw order: anchors ascending, seconds by edge id.
            order = np.lexsort((b_eid, a_idx))
            pos_b, a_idx, b_eid, code2, is_wedge = (
                pos_b[order], a_idx[order], b_eid[order],
                code2[order], is_wedge[order],
            )
            u1, v1, b_nbr = u1[order], v1[order], b_nbr[order]
            assert rng is not None
            coins = rng.random(int(is_wedge.sum()))
            keep = np.ones(len(pos_b), dtype=bool)
            keep[is_wedge] = coins < q
            pos_b, a_idx, b_eid, code2, is_wedge = (
                pos_b[keep], a_idx[keep], b_eid[keep],
                code2[keep], is_wedge[keep],
            )
            u1, v1, b_nbr = u1[keep], v1[keep], b_nbr[keep]
            if len(pos_b) == 0:
                continue
        w = np.where(is_wedge, b_nbr, np.int64(-1))

        # -- third edges: rows u, v and (for wedges) w, deduped --------
        hi_b = hi_rank[a_idx]
        lo3 = b_eid + 1
        s0, e0 = _row_ranges(col, u1, lo3, hi_b)
        s1, e1 = _row_ranges(col, v1, lo3, hi_b)
        s2, e2 = _row_ranges(col, np.maximum(w, 0), lo3, hi_b)
        c2 = np.where(w >= 0, e2 - s2, 0)
        third_counts = (e0 - s0) + (e1 - s1) + c2

        for p0, p1 in _chunks(third_counts, chunk_pairs):
            pos_0, par_0 = _expand_ranges(s0[p0:p1], (e0 - s0)[p0:p1])
            pos_1, par_1 = _expand_ranges(s1[p0:p1], (e1 - s1)[p0:p1])
            pos_2, par_2 = _expand_ranges(s2[p0:p1], c2[p0:p1])
            # Dedupe: an edge between two bound nodes appears in both
            # rows — keep the copy in the earlier row (u < v < w).
            keep_1 = nbr[pos_1] != u1[p0:p1][par_1]
            keep_2 = (nbr[pos_2] != u1[p0:p1][par_2]) & (
                nbr[pos_2] != v1[p0:p1][par_2]
            )
            pos_c = np.concatenate((pos_0, pos_1[keep_1], pos_2[keep_2]))
            if len(pos_c) == 0:
                continue
            pair_of = np.concatenate((par_0, par_1[keep_1], par_2[keep_2])) + p0
            center_c = np.concatenate((
                u1[p0:p1][par_0], v1[p0:p1][par_1[keep_1]],
                w[p0:p1][par_2[keep_2]],
            ))
            c_nbr = nbr[pos_c]
            c_src = np.where(dirs[pos_c] == 0, center_c, c_nbr)
            c_dst = np.where(dirs[pos_c] == 0, c_nbr, center_c)
            code3 = _third_codes(
                u1[pair_of], v1[pair_of], w[pair_of], c_src, c_dst
            )
            cell = TRIPLE_CELL_TABLE[code2[pair_of] * 16 + code3]
            valid = cell >= 0
            if not valid.any():
                continue
            yield (
                a_idx[pair_of[valid]],
                cell[valid],
                eid[pos_c[valid]],
                is_wedge[pair_of[valid]],
            )


def _iter_pair_triples(
    col: ColumnarGraph,
    anchors: np.ndarray,
    hi_rank: np.ndarray,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> Iterator[TripleChunk]:
    """Enumerate triples confined to each anchor's own pair timeline.

    The 2-node specialization of :func:`_iter_triples` for pair-only
    selections (BTS-Pair): candidates come from the pair CSR group of
    ``(src[a], dst[a])`` alone, so a hub's full incidence row is never
    touched — matching the python baseline's pair-timeline scans.
    """
    if len(anchors) == 0:
        return
    m_plus = np.int64(col.num_edges + 1)
    # Pair slot of each anchor's endpoints (anchors are real edges, so
    # the key always exists).
    lo_end = np.minimum(col.src[anchors], col.dst[anchors])
    hi_end = np.maximum(col.src[anchors], col.dst[anchors])
    key = lo_end * np.int64(max(col.num_nodes, 1)) + hi_end
    slot = np.searchsorted(col.pair_keys, key)
    base = slot * m_plus
    idx_lo = np.searchsorted(col.pair_rank_key, base + anchors + 1)
    idx_hi = np.searchsorted(col.pair_rank_key, base + hi_rank)
    # Direction of the anchor relative to the pair's smaller endpoint.
    d1 = (col.src[anchors] > col.dst[anchors]).astype(np.int64)
    second_counts = np.maximum(idx_hi - idx_lo, 0)

    for a0, a1 in _chunks(second_counts, chunk_pairs):
        pos_b, par_b = _expand_ranges(idx_lo[a0:a1], second_counts[a0:a1])
        if len(pos_b) == 0:
            continue
        a_idx = par_b + a0
        hi_pos = idx_hi[a_idx]
        third_counts = hi_pos - (pos_b + 1)
        code2 = (col.pair_dir[pos_b] != d1[a_idx]).astype(np.int64)
        for p0, p1 in _chunks(third_counts, chunk_pairs):
            pos_c, pair_of = _expand_ranges(
                pos_b[p0:p1] + 1, third_counts[p0:p1]
            )
            if len(pos_c) == 0:
                continue
            pair_of = pair_of + p0
            rel3 = col.pair_dir[pos_c] != d1[a_idx[pair_of]]
            # Same-direction third ⟺ (u, v) ⟺ code3 = 0*4+1; reversed
            # ⟺ (v, u) ⟺ code3 = 1*4+0.
            code3 = np.where(rel3, 4, 1)
            cell = TRIPLE_CELL_TABLE[code2[pair_of] * 16 + code3]
            yield (
                a_idx[pair_of],
                cell,
                col.pair_eid[pos_c],
                np.zeros(len(pos_c), dtype=bool),
            )


# ----------------------------------------------------------------------
# EWS kernel
# ----------------------------------------------------------------------

def ews_columnar_counts(
    graph: TemporalGraph,
    delta: float,
    *,
    p: float = 0.01,
    q: float = 1.0,
    seed: int = 0,
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized EWS tallies: int64 (pair, wedge) occurrence grids.

    Draws the anchor Bernoulli vector in one batch and the wedge coins
    in enumeration order — the same RNG stream the python loop
    consumes — then resolves second/third candidates through the CSR
    layouts.  Feed the result to :func:`ews_grid` for the estimate.
    """
    col = graph.columnar()
    m = col.num_edges
    pair_counts = np.zeros(36, dtype=np.int64)
    wedge_counts = np.zeros(36, dtype=np.int64)
    if m == 0:
        return pair_counts, wedge_counts
    rng = np.random.default_rng(seed)
    anchors = np.nonzero(rng.random(m) < p)[0] if p < 1 else np.arange(m)
    if len(anchors) == 0:
        return pair_counts, wedge_counts
    edge_hi = edge_window_ends(col, delta)
    hi_rank = edge_hi[anchors]
    for _, cell, _, is_wedge in _iter_triples(
        col, anchors, hi_rank, rng=rng, q=q, chunk_pairs=chunk_pairs
    ):
        wedge_counts += np.bincount(cell[is_wedge], minlength=36)
        pair_counts += np.bincount(cell[~is_wedge], minlength=36)
    return pair_counts, wedge_counts


# ----------------------------------------------------------------------
# BTS kernel
# ----------------------------------------------------------------------

def bts_columnar_block_grids(
    graph: TemporalGraph,
    delta: float,
    blocks: Sequence[Tuple[int, int, float]],
    W: float,
    q: float,
    cells: Iterable[int],
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> List[np.ndarray]:
    """Per-block HT-weighted 6×6 grids, one per sampled BTS block.

    ``blocks`` are the sampler's ``(first-edge lo, hi, block end time)``
    tuples and ``cells`` the flat grid cells of the selected motifs.
    Every block's grid is a pure function of that block alone (spans
    are grouped per (block, cell) and reduced with
    :func:`ht_weight_sum`), so any batching of blocks — serial, pool
    chunks, and the internal memory batches below —
    produces identical per-block bits.

    Memory: instance spans buffer per *block batch* (batches cut at
    :data:`BLOCK_BATCH_ANCHORS` first edges), never across the whole
    sample, so the working set tracks a few blocks' instances like the
    python backend's, not the sample's.  Note that a partial non-pair
    ``cells`` selection still pays the full enumeration and discards
    unselected classifications afterwards — unlike the python backend,
    which matches only the selected patterns (pair-only selections
    *do* take the cheap pair-timeline path).
    """
    col = graph.columnar()
    cells = sorted(set(cells))
    cell_mask = np.zeros(36, dtype=bool)
    cell_mask[cells] = True
    grids = [np.zeros((6, 6), dtype=np.float64) for _ in blocks]
    if not blocks or col.num_edges == 0:
        return grids
    t = col.t
    edge_hi = edge_window_ends(col, delta)
    pair_only = set(cells) <= PAIR_CELLS

    sizes = np.array([hi - lo for lo, hi, _ in blocks], dtype=np.int64)
    for b0, b1 in _chunks(sizes, BLOCK_BATCH_ANCHORS):
        # Flatten the batch's first-edge ranges into one anchor array;
        # each anchor's candidate cap is its δ-window end tightened to
        # the block boundary: candidates need t strictly below the
        # block end, and the block's own `hi` is exactly that
        # boundary's left rank.
        starts = np.array([lo for lo, _, _ in blocks[b0:b1]], dtype=np.int64)
        caps = np.array([hi for _, hi, _ in blocks[b0:b1]], dtype=np.int64)
        anchors, block_of = _expand_ranges(starts, sizes[b0:b1])
        if len(anchors) == 0:
            continue
        hi_rank = np.minimum(edge_hi[anchors], caps[block_of])

        triples = (
            _iter_pair_triples(col, anchors, hi_rank, chunk_pairs)
            if pair_only
            else _iter_triples(col, anchors, hi_rank, chunk_pairs=chunk_pairs)
        )
        span_parts: List[np.ndarray] = []
        key_parts: List[np.ndarray] = []
        for a_idx, cell, c_eid, _ in triples:
            keep = cell_mask[cell]
            if not keep.any():
                continue
            a_sel = a_idx[keep]
            spans = (t[c_eid[keep]] - t[anchors[a_sel]]).astype(np.float64)
            span_parts.append(spans)
            key_parts.append(block_of[a_sel] * np.int64(36) + cell[keep])

        if not span_parts:
            continue
        spans = np.concatenate(span_parts)
        keys = np.concatenate(key_parts)
        order = np.argsort(keys, kind="stable")
        spans = spans[order]
        keys = keys[order]
        boundaries = np.flatnonzero(
            np.concatenate(([True], keys[1:] != keys[:-1]))
        )
        ends = np.concatenate((boundaries[1:], [len(keys)]))
        for start, end in zip(boundaries, ends):
            block = b0 + int(keys[start]) // 36
            cell = int(keys[start]) % 36
            grids[block][cell // 6, cell % 6] = ht_weight_sum(
                spans[start:end], W, q
            )
    return grids


# ----------------------------------------------------------------------
# EX kernel (degenerate: all anchors, unit weights, exact counts)
# ----------------------------------------------------------------------

def ex_columnar_grid(
    graph: TemporalGraph,
    delta: float,
    categories: str = "all",
    chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
) -> np.ndarray:
    """Exact int64 count grid by full vectorized enumeration.

    The ``p = q = 1`` degeneracy of the EWS kernel: every edge anchors,
    every candidate counts with weight one.  Cost is Θ(instances) —
    unlike python EX's window counters, which are sublinear in
    instances on dense timelines — so this backend is explicit opt-in
    (``backend="columnar"``), never ``"auto"``.
    """
    from repro.core.counters import category_keep_mask

    col = graph.columnar()
    grid = np.zeros(36, dtype=np.int64)
    m = col.num_edges
    if m == 0:
        return grid.reshape(6, 6)
    anchors = np.arange(m, dtype=np.int64)
    edge_hi = edge_window_ends(col, delta)
    if categories == "pair":
        triples = _iter_pair_triples(col, anchors, edge_hi, chunk_pairs)
    else:
        triples = _iter_triples(col, anchors, edge_hi, chunk_pairs=chunk_pairs)
    for _, cell, _, _ in triples:
        grid += np.bincount(cell, minlength=36)
    return grid.reshape(6, 6) * category_keep_mask(categories)
