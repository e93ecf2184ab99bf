"""FAST-Star: exact counting of star and pair temporal motifs.

This is Algorithm 1 of the paper.  Every node ``u`` is treated as a
center in turn.  For each choice of first edge ``e1 = S_u[i]`` the
third edge ``e3 = S_u[j]`` sweeps forward while ``e3.t - e1.t <= δ``;
two hash maps ``min``/``mout`` (inward/outward middle-edge counts per
neighbour) are maintained incrementally so that the number of valid
second edges for *every* motif kind is available in O(1) when ``e3``
is fixed:

* ``e3.v == e1.v`` — the three-edges-on-one-pair case: middles on the
  same neighbour are **pair** motifs, middles on other neighbours are
  **Star-II** (isolated second edge);
* ``e3.v != e1.v`` — middles on ``e3.v`` are **Star-I** (isolated first
  edge), middles on ``e1.v`` are **Star-III** (isolated third edge).

The scan is O(d_u · d^δ_u) per center and O(2·d^δ·|E|) overall — linear
in the number of temporal edges (§IV-A.4).

Work decomposition hooks: ``nodes`` restricts the set of centers
(HARE's inter-node parallelism) and a task's ``first_edge_range``
restricts the outer ``i`` loop (HARE's intra-node parallelism).  Both
decompositions are exact because every (center, first-edge) pair is
counted by exactly one task.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.counters import PairCounter, StarCounter
from repro.errors import check_delta
from repro.graph.temporal_graph import NodeSequence, TemporalGraph

#: An intra-node work unit: (center node, first-edge index range).
StarTask = Tuple[int, int, Optional[int]]


def scan_center(
    seq: NodeSequence,
    delta: float,
    star_data: List[int],
    pair_data: List[int],
    i_lo: int = 0,
    i_hi: Optional[int] = None,
) -> None:
    """Run Algorithm 1's inner loops for one center node.

    Counts every star/pair motif whose *first* edge index falls in
    ``[i_lo, i_hi)`` directly into the provided flat counter lists
    (layout: ``Star[type,d1,d2,d3] -> type*8 + d1*4 + d2*2 + d3`` and
    ``Pair[d1,d2,d3] -> d1*4 + d2*2 + d3``).
    """
    times = seq.times
    nbrs = seq.nbrs
    dirs = seq.dirs
    s = len(times)
    limit = s - 2
    if i_hi is None or i_hi < 0 or i_hi > limit:
        i_hi = limit
    star = star_data
    pair = pair_data
    for i in range(i_lo, i_hi):
        ti = times[i]
        tmax = ti + delta
        if times[i + 2] > tmax:
            # Not even two edges fit after e1 within δ: no motif here.
            continue
        vi = nbrs[i]
        di4 = dirs[i] * 4
        # Seed the middle-edge maps with S_u[i+1] (it can only ever be
        # a middle edge for this i).
        v1 = nbrs[i + 1]
        if dirs[i + 1]:
            min_map = {v1: 1}
            mout_map = {}
            n_in = 1
            n_out = 0
        else:
            min_map = {}
            mout_map = {v1: 1}
            n_in = 0
            n_out = 1
        for j in range(i + 2, s):
            if times[j] > tmax:
                break
            vj = nbrs[j]
            dj = dirs[j]
            k = di4 + dj
            if vj == vi:
                cin = min_map.get(vi, 0)
                cout = mout_map.get(vi, 0)
                # Middles on the same pair are pair motifs ...
                pair[k + 2] += cin
                pair[k] += cout
                # ... middles elsewhere are Star-II (isolated 2nd edge).
                star[8 + k + 2] += n_in - cin
                star[8 + k] += n_out - cout
            else:
                # Star-I: middle shares e3's neighbour (isolated 1st edge).
                star[k + 2] += min_map.get(vj, 0)
                star[k] += mout_map.get(vj, 0)
                # Star-III: middle shares e1's neighbour (isolated 3rd edge).
                star[16 + k + 2] += min_map.get(vi, 0)
                star[16 + k] += mout_map.get(vi, 0)
            if dj:
                min_map[vj] = min_map.get(vj, 0) + 1
                n_in += 1
            else:
                mout_map[vj] = mout_map.get(vj, 0) + 1
                n_out += 1


def count_star_pair_tasks(
    graph: TemporalGraph,
    delta: float,
    tasks: Iterable[StarTask],
) -> Tuple[StarCounter, PairCounter]:
    """Count star/pair motifs over explicit (node, i_lo, i_hi) tasks.

    ``tasks`` may be tuples or the scheduler's ``(k, 3)`` task array;
    ``i_hi`` of ``None`` or ``-1`` is the row end.

    This is the worker entry point HARE uses; the de-duplication
    argument only holds when, across all tasks executed by all
    workers, every (center, first-edge) pair appears exactly once.
    """
    star = StarCounter()
    pair = PairCounter()
    star_data = star.data
    pair_data = pair.data
    for node, i_lo, i_hi in tasks:
        scan_center(graph.node_sequence(node), delta, star_data, pair_data, i_lo, i_hi)
    return star, pair


def count_star_pair(
    graph: TemporalGraph,
    delta: float,
    *,
    nodes: Optional[Sequence[int]] = None,
) -> Tuple[StarCounter, PairCounter]:
    """Count all star and pair temporal motifs (FAST-Star, serial).

    The paper's Algorithm 1 as interpreted loops: the reference the
    vectorized :func:`repro.core.columnar_kernels.count_star_pair_columnar`
    (what ``algorithm="fast"`` runs) is tested against.

    Parameters
    ----------
    graph:
        The input temporal graph.
    delta:
        The motif time constraint δ (same unit as the timestamps).
    nodes:
        Optional subset of internal node ids to use as centers; the
        default is every node, which yields the complete exact counts.

    Returns
    -------
    (StarCounter, PairCounter)
        Star cells hold exact per-motif counts.  Pair cells hold the
        both-endpoints view (see :class:`~repro.core.counters.PairCounter`).
    """
    check_delta(delta)
    center_ids = range(graph.num_nodes) if nodes is None else nodes
    return count_star_pair_tasks(graph, delta, ((u, 0, None) for u in center_ids))
