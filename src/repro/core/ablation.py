"""Ablation variants of the FAST algorithms.

Each variant removes one of the paper's design choices:

* :func:`count_star_pair_rescan` removes FAST-Star's ``min``/``mout``
  hash-map trick: for every (first, third) edge pair the middle edges
  are re-scanned explicitly.  This is the "traversing all edges
  between the first edge and the third edge" strawman §IV-A.3
  contrasts against, turning the per-center cost from O(d·d^δ) into
  O(d·(d^δ)²).
* :func:`count_triangle_no_window` removes FAST-Tri's pair-timeline
  bisection: each candidate (ei, ej) scans the *entire* ``E(v, w)``
  timeline and filters by timestamp, i.e. the "implementation tricks"
  of §IV-B.3 that reduce ξ to the in-window edge count are disabled.

Both produce bit-identical counters to their optimised counterparts
(property-tested), so benchmark deltas measure the optimisation alone.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.counters import PairCounter, StarCounter, TriangleCounter
from repro.errors import check_delta
from repro.graph.temporal_graph import TemporalGraph


def count_star_pair_rescan(
    graph: TemporalGraph,
    delta: float,
    *,
    nodes: Optional[Sequence[int]] = None,
) -> Tuple[StarCounter, PairCounter]:
    """FAST-Star with the middle-edge rescan instead of hash maps."""
    check_delta(delta)
    star_counter = StarCounter()
    pair_counter = PairCounter()
    star = star_counter.data
    pair = pair_counter.data
    center_ids = range(graph.num_nodes) if nodes is None else nodes
    for node in center_ids:
        seq = graph.node_sequence(node)
        times = seq.times
        nbrs = seq.nbrs
        dirs = seq.dirs
        s = len(times)
        for i in range(s - 2):
            ti = times[i]
            tmax = ti + delta
            if times[i + 2] > tmax:
                continue
            vi = nbrs[i]
            di4 = dirs[i] * 4
            for j in range(i + 2, s):
                if times[j] > tmax:
                    break
                vj = nbrs[j]
                dj = dirs[j]
                cell = di4 + dj
                if vj == vi:
                    for k in range(i + 1, j):
                        dk2 = dirs[k] * 2
                        if nbrs[k] == vi:
                            pair[cell + dk2] += 1
                        else:
                            star[8 + cell + dk2] += 1
                else:
                    for k in range(i + 1, j):
                        vk = nbrs[k]
                        dk2 = dirs[k] * 2
                        if vk == vj:
                            star[cell + dk2] += 1
                        elif vk == vi:
                            star[16 + cell + dk2] += 1
    return star_counter, pair_counter


def count_triangle_no_window(
    graph: TemporalGraph,
    delta: float,
    *,
    nodes: Optional[Sequence[int]] = None,
) -> TriangleCounter:
    """FAST-Tri scanning whole pair timelines (no bisect windows)."""
    check_delta(delta)
    counter = TriangleCounter(multiplicity=3)
    tri = counter.data
    pair_timeline = graph.pair_timeline
    center_ids = range(graph.num_nodes) if nodes is None else nodes
    for node in center_ids:
        seq = graph.node_sequence(node)
        times = seq.times
        nbrs = seq.nbrs
        dirs = seq.dirs
        eids = seq.eids
        s = len(times)
        for i in range(s - 1):
            ti = times[i]
            eidi = eids[i]
            vi = nbrs[i]
            di4 = dirs[i] * 4
            tmax = ti + delta
            for j in range(i + 1, s):
                tj = times[j]
                if tj > tmax:
                    break
                vj = nbrs[j]
                if vj == vi:
                    continue
                p_times, p_dirs, p_eids = pair_timeline(vi, vj)
                if not p_times:
                    continue
                eidj = eids[j]
                base = di4 + dirs[j] * 2
                flip = 1 if vi > vj else 0
                for k in range(len(p_times)):  # no bisect, no break: full scan
                    tk = p_times[k]
                    if tk < tj - delta or tk > tmax:
                        continue
                    cell = base + (p_dirs[k] ^ flip)
                    if tk < ti:
                        tri[cell] += 1
                    elif tk > tj:
                        tri[16 + cell] += 1
                    else:
                        eidk = p_eids[k]
                        if tk == ti and eidk < eidi:
                            tri[cell] += 1
                        elif tk == tj and eidk > eidj:
                            tri[16 + cell] += 1
                        else:
                            tri[8 + cell] += 1
    return counter
