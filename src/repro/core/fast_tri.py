"""FAST-Tri: exact counting of triangle temporal motifs.

This is Algorithm 2 of the paper.  For each center ``u``, every pair
of edges ``ei = S_u[i]``, ``ej = S_u[j]`` (``i < j``,
``ej.t - ei.t <= δ``, distinct far endpoints ``v != w``) nominates a
potential triangle; the pair timeline ``E(v, w)`` is then sliced by
binary search to the edges ``ek`` that satisfy the three-edge δ window,
and each ``ek`` is classified by where it falls relative to ``ei`` and
``ej``:

* before ``ei`` → **Triangle-I** (requires ``ej.t - ek.t <= δ``),
* between     → **Triangle-II**,
* after ``ej`` → **Triangle-III** (requires ``ek.t - ei.t <= δ``).

Each instance is discovered three times — once per corner, as one
Type-I, one Type-II and one Type-III cell (Fig. 8) — so the default,
dependency-free mode divides by three at projection time
(``multiplicity=3``).  ``remove_centers=True`` reproduces the paper's
single-threaded alternative (Algorithm 2, line 26): a processed center
is deleted from the graph so every instance is found exactly once
(``multiplicity=1``).  That mode is inherently sequential, which is
precisely why HARE does not use it.

Timestamp ties are resolved by canonical edge id, consistent with the
rest of the repository (see :mod:`repro.graph.temporal_graph`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.counters import TriangleCounter
from repro.errors import ValidationError, check_delta
from repro.graph.temporal_graph import TemporalGraph

#: An intra-node work unit: (center node, first-edge index range).
TriTask = Tuple[int, int, Optional[int]]


def scan_center(
    graph: TemporalGraph,
    node: int,
    delta: float,
    tri_data: List[int],
    i_lo: int = 0,
    i_hi: Optional[int] = None,
    removed: Optional[bytearray] = None,
) -> None:
    """Run Algorithm 2's inner loops for one center node.

    Counts every triangle whose ``ei`` index falls in ``[i_lo, i_hi)``
    into the flat counter list (layout
    ``Tri[type,di,dj,dk] -> type*8 + di*4 + dj*2 + dk``).  ``removed``
    marks already-processed centers for the single-threaded
    de-duplication mode.
    """
    seq = graph.node_sequence(node)
    times = seq.times
    nbrs = seq.nbrs
    dirs = seq.dirs
    eids = seq.eids
    s = len(times)
    limit = s - 1
    if i_hi is None or i_hi < 0 or i_hi > limit:
        i_hi = limit
    tri = tri_data
    pair_timeline = graph.pair_timeline
    for i in range(i_lo, i_hi):
        vi = nbrs[i]
        if removed is not None and removed[vi]:
            continue
        ti = times[i]
        eidi = eids[i]
        di4 = dirs[i] * 4
        tmax = ti + delta
        for j in range(i + 1, s):
            tj = times[j]
            if tj > tmax:
                break
            vj = nbrs[j]
            if vj == vi:
                continue
            if removed is not None and removed[vj]:
                continue
            p_times, p_dirs, p_eids = pair_timeline(vi, vj)
            if not p_times:
                continue
            eidj = eids[j]
            base = di4 + dirs[j] * 2
            # Pair-timeline directions are stored relative to the
            # smaller internal id; flip when vi is the larger one so
            # dk is relative to v (= vi), as Fig. 7 defines it.
            flip = 1 if vi > vj else 0
            lo = bisect_left(p_times, tj - delta)
            for k in range(lo, len(p_times)):
                tk = p_times[k]
                if tk > tmax:
                    break
                cell = base + (p_dirs[k] ^ flip)
                if tk < ti:
                    tri[cell] += 1  # Triangle-I
                elif tk > tj:
                    tri[16 + cell] += 1  # Triangle-III
                else:
                    eidk = p_eids[k]
                    if tk == ti and eidk < eidi:
                        tri[cell] += 1  # Triangle-I (tie on ei)
                    elif tk == tj and eidk > eidj:
                        tri[16 + cell] += 1  # Triangle-III (tie on ej)
                    else:
                        tri[8 + cell] += 1  # Triangle-II


def count_triangle_tasks(
    graph: TemporalGraph,
    delta: float,
    tasks: Iterable[TriTask],
) -> TriangleCounter:
    """Count triangles over explicit (node, i_lo, i_hi) tasks.

    ``tasks`` may be tuples or the scheduler's ``(k, 3)`` task array;
    ``i_hi`` of ``None`` or ``-1`` is the row end.

    HARE's worker entry point; exactness requires every (center,
    ``ei``-index) pair to be covered exactly once across all tasks.
    The result uses ``multiplicity=3``.
    """
    counter = TriangleCounter(multiplicity=3)
    data = counter.data
    for node, i_lo, i_hi in tasks:
        scan_center(graph, node, delta, data, i_lo, i_hi)
    return counter


def count_triangle(
    graph: TemporalGraph,
    delta: float,
    *,
    nodes: Optional[Sequence[int]] = None,
    remove_centers: bool = False,
) -> TriangleCounter:
    """Count all triangle temporal motifs (FAST-Tri, serial).

    The paper's Algorithm 2 as interpreted loops: the reference the
    vectorized :func:`repro.core.columnar_kernels.count_triangle_columnar`
    (what ``algorithm="fast"`` runs) is tested against.

    Parameters
    ----------
    graph:
        The input temporal graph.
    delta:
        The motif time constraint δ.
    nodes:
        Optional subset of centers (HARE inter-node decomposition).
    remove_centers:
        Use the paper's single-threaded de-duplication (line 26 of
        Algorithm 2): incompatible with ``nodes`` because correctness
        depends on processing every center in one sequence.

    Returns
    -------
    TriangleCounter
        ``multiplicity=3`` by default; ``multiplicity=1`` with
        ``remove_centers=True``.
    """
    check_delta(delta)
    if remove_centers:
        if nodes is not None:
            raise ValidationError("remove_centers requires processing all nodes")
        counter = TriangleCounter(multiplicity=1)
        data = counter.data
        removed = bytearray(graph.num_nodes)
        for node in range(graph.num_nodes):
            scan_center(graph, node, delta, data, removed=removed)
            removed[node] = 1
        return counter
    center_ids = range(graph.num_nodes) if nodes is None else nodes
    return count_triangle_tasks(graph, delta, ((u, 0, None) for u in center_ids))
