"""EX — the exact counting baseline of Paranjape, Benson & Leskovec.

The algorithm the paper benchmarks FAST against ([1] in the paper,
WSDM'17).  EX counts all 2- and 3-node, 3-edge δ-temporal motifs with
three dedicated components, all built on incremental sliding-window
sequence counters whose per-event cost is **independent of δ** (the
defining performance signature of EX in the paper's Fig. 12(a)):

* **2-node motifs** — a C=2 window counter over every pair timeline;
* **star motifs** — a per-center, single-pass counter that maintains
  per-neighbour snapshot sums so the number of (first, second) edge
  pairs of every direction combination and neighbour-equality pattern
  is available in O(1) when an edge is processed as the temporal last
  edge of a motif;
* **triangle motifs** — static-triangle enumeration followed by a C=6
  window counter over each triangle's merged three-pair timeline
  (each temporal edge is re-processed once per static triangle it
  participates in, which is EX's bottleneck on triangle-dense data).

Compared with FAST, EX maintains "more than ten triple and tuple
counters and requires multiple complex update operations for each
temporal edge" (§V-E) — visible here as the ~10× larger per-event
constant of the star/triangle machinery.

Time-slab parallelism (``workers > 1``) reproduces the paper's
parallel-EX behaviour: the canonical edge order is cut into equal
slabs, each worker warms its counters on the δ-overlap preceding its
slab and only accumulates motifs whose temporally-last edge lies
inside the slab.  The duplicated warm-up work and per-process overhead
grow with the worker count, which is why parallel EX saturates and
then *degrades* (Fig. 11).
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.window_counter import count_sequences
from repro.core.columnar_kernels import enumerate_static_triangles
from repro.core.counters import MotifCounts
from repro.core.motifs import classify_triple, pair_cell_motif, star_cell_motif
from repro.errors import ValidationError, check_delta
from repro.graph.temporal_graph import TemporalGraph

#: A slab: (inclusive lower (t, eid) threshold or None, exclusive upper
#: (t, eid) threshold or None).  Instances are attributed to the slab
#: containing their temporally-last edge.
Slab = Tuple[Optional[Tuple[float, int]], Optional[Tuple[float, int]]]

_FULL_SLAB: Slab = (None, None)


# ---------------------------------------------------------------------------
# 2-node (pair) motifs
# ---------------------------------------------------------------------------

def _pair_motif_names() -> List[List[str]]:
    """Map flat (d1*4 + d2*2 + d3) class triples to pair motif names."""
    names = [""] * 8
    for d1, d2, d3 in product((0, 1), repeat=3):
        names[d1 * 4 + d2 * 2 + d3] = pair_cell_motif(d1, d2, d3).name
    return names


_PAIR_NAMES = _pair_motif_names()


def ex_pair_counts(
    graph: TemporalGraph,
    delta: float,
    slab: Slab = _FULL_SLAB,
) -> Dict[str, int]:
    """Exact counts of the four 2-node motifs (EX component).

    Runs the C=2 window counter over every pair timeline.  Directions
    are taken relative to the smaller internal node id, which the
    canonical motif table normalises away.
    """
    lo, hi = slab
    grid: Dict[str, int] = {}
    for a, b in graph.static_pairs():
        times, dirs, eids = graph.pair_timeline(a, b)
        if len(times) < 3 and lo is None and hi is None:
            continue
        events = _slice_events(times, eids, dirs, delta, lo, hi)
        if len(events) < 3:
            continue
        count3 = count_sequences(events, delta, 2, count_from=lo)
        for idx in range(8):
            value = count3[idx]
            if value:
                name = _PAIR_NAMES[idx]
                grid[name] = grid.get(name, 0) + value
    return grid


def _slice_events(
    times: Sequence[float],
    eids: Sequence[int],
    classes: Sequence[int],
    delta: float,
    lo: Optional[Tuple[float, int]],
    hi: Optional[Tuple[float, int]],
) -> List[Tuple[float, int, int]]:
    """Assemble (t, eid, class) events restricted to a slab + warm-up.

    Keeps every event with ``t >= lo.t - delta`` (warm-up) and
    ``(t, eid) < hi``.
    """
    n = len(times)
    start = 0
    if lo is not None:
        warm = lo[0] - delta
        import bisect

        start = bisect.bisect_left(times, warm)
    events = []
    for k in range(start, n):
        key = (times[k], eids[k])
        if hi is not None and key >= hi:
            break
        events.append((times[k], eids[k], classes[k]))
    return events


# ---------------------------------------------------------------------------
# Star motifs
# ---------------------------------------------------------------------------

def _star_cell_names() -> List[List[str]]:
    """``names[star_type][d1*4 + d2*2 + d3]`` -> motif name."""
    names = [[""] * 8 for _ in range(3)]
    for t in range(3):
        for d1, d2, d3 in product((0, 1), repeat=3):
            names[t][d1 * 4 + d2 * 2 + d3] = star_cell_motif(t, d1, d2, d3).name
    return names


_STAR_NAMES = _star_cell_names()


def _ex_star_center(
    times: Sequence[float],
    nbrs: Sequence[int],
    dirs: Sequence[int],
    eids: Sequence[int],
    delta: float,
    star: List[int],
    lo: Optional[Tuple[float, int]],
    hi: Optional[Tuple[float, int]],
) -> None:
    """Single-pass star counting for one center (EX machinery).

    ``star`` is a flat 24-cell list, layout
    ``star_type*8 + d1*4 + d2*2 + d3``.  For each event processed as
    the temporal **last** edge of a motif, the number of qualifying
    (first, second) edge pairs per direction combination is derived
    from snapshot sums:

    * ``A[d1][d2]`` — window pairs whose second edge goes to the
      current neighbour ``v`` (any first edge),
    * ``B[d1][d2]`` — window pairs entirely on ``v``,
    * ``F[d1][d2]`` — window pairs whose first edge goes to ``v``,
    * ``PS[d1][d2]`` — window pairs on a *same* neighbour, any one.

    yielding Star-I ``A−B``, Star-II ``F−B`` and Star-III ``PS−B``
    contributions.  Every structure updates in O(1) per event because
    events expire in FIFO order: an expired event is older than every
    surviving one, so its pair contributions are recoverable from the
    cumulative-arrival snapshots stored when it entered the window.
    """
    import bisect

    n = len(times)
    start_idx = 0
    if lo is not None:
        start_idx = bisect.bisect_left(times, lo[0] - delta)
    # Global state.
    C0 = C1 = 0          # cumulative arrivals by direction
    E0 = E1 = 0          # expired events by direction
    PS = [0, 0, 0, 0]    # sum over nbrs of per-nbr snapshot sums (d1*2+dy)
    G = [0, 0, 0, 0]     # sum over nbrs of Ev[d1]*cnt_v[d2]
    # Per-neighbour state vectors, layout:
    #  [0:2] cnt_v by dir, [2:4] cumulative Cv, [4:6] expired Ev,
    #  [6:10] Sv[d1][dy] snapshot sums of global C, [10:14] SV2[d1][dy]
    #  snapshot sums of per-neighbour Cv.
    per_nbr: Dict[int, List[int]] = {}
    queue: List[Tuple[float, int, int, int, int, int, int]] = []
    qhead = 0
    counting = lo is None

    for idx in range(start_idx, n):
        t = times[idx]
        eid = eids[idx]
        if hi is not None and (t, eid) >= hi:
            break
        # Expire.
        expire_before = t - delta
        while qhead < len(queue) and queue[qhead][0] < expire_before:
            _, w, dx, sC0, sC1, sCw0, sCw1 = queue[qhead]
            qhead += 1
            nw = per_nbr[w]
            nw[dx] -= 1
            nw[6 + dx] -= sC0
            nw[8 + dx] -= sC1
            nw[10 + dx] -= sCw0
            nw[12 + dx] -= sCw1
            PS[dx] -= sCw0
            PS[2 + dx] -= sCw1
            # cnt_w[dx] dropped: G[d1][dx] -= Ev_w[d1]
            G[dx] -= nw[4]
            G[2 + dx] -= nw[5]
            # Ev_w[dx] += 1: G[dx][d2] += cnt_w[d2]
            nw[4 + dx] += 1
            G[dx * 2] += nw[0]
            G[dx * 2 + 1] += nw[1]
            if dx:
                E1 += 1
            else:
                E0 += 1

        v = nbrs[idx]
        d3 = dirs[idx]
        nbr = per_nbr.get(v)
        if nbr is None:
            nbr = [0] * 14
            per_nbr[v] = nbr

        if not counting and (t, eid) >= lo:  # type: ignore[operator]
            counting = True
        if counting:
            cnt_v0 = nbr[0]
            cnt_v1 = nbr[1]
            ev0 = nbr[4]
            ev1 = nbr[5]
            E = (E0, E1)
            Cg = (C0, C1)
            cnt_v = (cnt_v0, cnt_v1)
            for d1 in (0, 1):
                ed1 = E[d1]
                evd1 = (ev0, ev1)[d1]
                row = 6 + d1 * 2
                row2 = 10 + d1 * 2
                g_row = d1 * 2
                for d2 in (0, 1):
                    cv2 = cnt_v[d2]
                    a_cnt = nbr[row + d2] - ed1 * cv2
                    b_cnt = nbr[row2 + d2] - evd1 * cv2
                    f_cnt = cnt_v[d1] * Cg[d2] - nbr[6 + d2 * 2 + d1]
                    if d1 == d2:
                        f_cnt -= cnt_v[d1]
                    ps_cnt = PS[g_row + d2] - G[g_row + d2]
                    cell = d1 * 4 + d2 * 2 + d3
                    star[cell] += a_cnt - b_cnt          # Star-I
                    star[8 + cell] += f_cnt - b_cnt      # Star-II
                    star[16 + cell] += ps_cnt - b_cnt    # Star-III

        # Add the current event.
        sCv0 = nbr[2]
        sCv1 = nbr[3]
        queue.append((t, v, d3, C0, C1, sCv0, sCv1))
        nbr[6 + d3] += C0
        nbr[8 + d3] += C1
        nbr[10 + d3] += sCv0
        nbr[12 + d3] += sCv1
        PS[d3] += sCv0
        PS[2 + d3] += sCv1
        G[d3] += nbr[4]
        G[2 + d3] += nbr[5]
        if d3:
            C1 += 1
        else:
            C0 += 1
        nbr[2 + d3] += 1
        nbr[d3] += 1


def ex_star_counts(
    graph: TemporalGraph,
    delta: float,
    slab: Slab = _FULL_SLAB,
) -> Dict[str, int]:
    """Exact counts of the 24 star motifs (EX component)."""
    lo, hi = slab
    star = [0] * 24
    for node in range(graph.num_nodes):
        seq = graph.node_sequence(node)
        if len(seq) < 3:
            continue
        _ex_star_center(seq.times, seq.nbrs, seq.dirs, seq.eids, delta, star, lo, hi)
    grid: Dict[str, int] = {}
    for t in range(3):
        for cell in range(8):
            value = star[t * 8 + cell]
            if value:
                name = _STAR_NAMES[t][cell]
                grid[name] = grid.get(name, 0) + value
    return grid


# ---------------------------------------------------------------------------
# Triangle motifs
# ---------------------------------------------------------------------------

def _triangle_decode_table() -> List[Optional[str]]:
    """Class-triple -> motif name for the merged-timeline counter.

    Classes are ``slot*2 + dir`` where slot 0/1/2 is the pair
    ``(a,b)/(a,c)/(b,c)`` of the static triangle ``a < b < c`` and dir
    0 means the edge goes from the smaller to the larger id.  Only
    triples whose slots are a permutation of (0, 1, 2) form triangles.
    """
    slot_edges = {
        (0, 0): (0, 1), (0, 1): (1, 0),
        (1, 0): (0, 2), (1, 1): (2, 0),
        (2, 0): (1, 2), (2, 1): (2, 1),
    }
    table: List[Optional[str]] = [None] * 216
    for c1, c2, c3 in product(range(6), repeat=3):
        slots = (c1 // 2, c2 // 2, c3 // 2)
        if sorted(slots) != [0, 1, 2]:
            continue
        edges = tuple(slot_edges[(c // 2, c % 2)] for c in (c1, c2, c3))
        motif = classify_triple(edges)
        assert motif is not None
        table[(c1 * 6 + c2) * 6 + c3] = motif.name
    return table


_TRI_DECODE = _triangle_decode_table()


def static_triangles(graph: TemporalGraph) -> List[Tuple[int, int, int]]:
    """Enumerate static triangles ``(a, b, c)`` with ``a < b < c``, sorted."""
    col = graph.columnar()
    nodes, _ = enumerate_static_triangles(col.num_nodes, col.pair_keys)
    return [tuple(row) for row in nodes.tolist()]


def ex_triangle_counts(
    graph: TemporalGraph,
    delta: float,
    slab: Slab = _FULL_SLAB,
) -> Dict[str, int]:
    """Exact counts of the 8 triangle motifs (EX component).

    Merges the three pair timelines of every static triangle and runs
    the C=6 window counter over the merged stream.
    """
    lo, hi = slab
    grid: Dict[str, int] = {}
    for a, b, c in static_triangles(graph):
        merged = _merged_timeline(graph, a, b, c)
        events = _slice_merged(merged, delta, lo, hi)
        if len(events) < 3:
            continue
        count3 = count_sequences(events, delta, 6, count_from=lo)
        for idx, value in enumerate(count3):
            if value:
                name = _TRI_DECODE[idx]
                if name is not None:
                    grid[name] = grid.get(name, 0) + value
    return grid


def _merged_timeline(
    graph: TemporalGraph, a: int, b: int, c: int
) -> List[Tuple[float, int, int]]:
    """Merge E(a,b), E(a,c), E(b,c) into one (t, eid, class) stream."""
    events: List[Tuple[float, int, int]] = []
    for slot, (x, y) in enumerate(((a, b), (a, c), (b, c))):
        times, dirs, eids = graph.pair_timeline(x, y)
        base = slot * 2
        events.extend(
            (times[k], eids[k], base + dirs[k]) for k in range(len(times))
        )
    events.sort(key=lambda e: e[1])  # eid order == canonical (t, id) order
    return events


def _slice_merged(
    events: List[Tuple[float, int, int]],
    delta: float,
    lo: Optional[Tuple[float, int]],
    hi: Optional[Tuple[float, int]],
) -> List[Tuple[float, int, int]]:
    if lo is None and hi is None:
        return events
    warm = None if lo is None else lo[0] - delta
    out = []
    for t, eid, cls in events:
        if warm is not None and t < warm:
            continue
        if hi is not None and (t, eid) >= hi:
            break
        out.append((t, eid, cls))
    return out


# ---------------------------------------------------------------------------
# Composition and time-slab parallelism
# ---------------------------------------------------------------------------

def _ex_partial(
    graph: TemporalGraph,
    delta: float,
    categories: str,
    slab: Slab,
) -> Dict[str, int]:
    grid: Dict[str, int] = {}
    if categories in ("all", "pair", "star_pair"):
        grid.update(ex_pair_counts(graph, delta, slab))
    if categories in ("all", "star", "star_pair"):
        for name, value in ex_star_counts(graph, delta, slab).items():
            grid[name] = grid.get(name, 0) + value
    if categories in ("all", "triangle"):
        for name, value in ex_triangle_counts(graph, delta, slab).items():
            grid[name] = grid.get(name, 0) + value
    return grid


def make_slabs(graph: TemporalGraph, workers: int) -> List[Slab]:
    """Cut the canonical edge order into ``workers`` equal slabs."""
    m = graph.num_edges
    times = graph.timestamps
    boundaries = [m * k // workers for k in range(workers + 1)]
    slabs: List[Slab] = []
    for k in range(workers):
        lo_idx, hi_idx = boundaries[k], boundaries[k + 1]
        lo = None if lo_idx == 0 else (float(times[lo_idx]), lo_idx)
        hi = None if hi_idx >= m else (float(times[hi_idx]), hi_idx)
        slabs.append((lo, hi))
    return slabs


def pool_map_slab(
    graph: TemporalGraph, delta: float, categories: str, slab: Slab
) -> Dict[str, int]:
    """:class:`~repro.parallel.pool.WorkerPool` map function (``"ex_slabs"``).

    Counts one time slab against the worker's attached zero-copy
    graph; the worker builds its own sequence views and pair index on
    first use.
    """
    return _ex_partial(graph, delta, categories, slab)


def ex_count(
    graph: TemporalGraph,
    delta: float,
    *,
    categories: str = "all",
    workers: int = 1,
    pool: Optional[object] = None,
) -> MotifCounts:
    """Count motifs with the EX baseline.

    ``workers > 1`` uses the time-slab parallel decomposition
    described in the module docstring: one slab per worker, farmed
    through :meth:`~repro.parallel.pool.WorkerPool.run_map` on ``pool``
    (or the process-wide shared pool) and summed in slab order —
    identical counts to the serial run.
    """
    check_delta(delta)
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    from repro.parallel.executor import runtime_pool

    pool = runtime_pool(pool, workers) if graph.num_edges else None
    if pool is None:
        grid = _ex_partial(graph, delta, categories, _FULL_SLAB)
        return MotifCounts.from_dict(grid, algorithm="ex", delta=delta)
    partials = pool.run_map(
        graph, "ex_slabs", make_slabs(graph, workers), args=categories, delta=delta
    )
    grid: Dict[str, int] = {}
    for partial in partials:
        for name, value in partial.items():
            grid[name] = grid.get(name, 0) + value
    return MotifCounts.from_dict(grid, algorithm="ex", delta=delta)
