"""EWS — edge/wedge sampling estimator for temporal motif counts.

The baseline of Wang et al. ("Efficient sampling algorithms for
approximate temporal motif counting", CIKM 2020): an **edge sampler**
(keep each temporal edge as an anchor with probability ``p``) hybridised
with a **wedge sampler** (explore each wedge-forming second edge with
probability ``q``) for 3-node, 3-edge motifs.

Here the anchor is the *first* edge of an instance (every instance has
exactly one, so reweighting by ``1/p`` is unbiased).  For each sampled
anchor the local neighbourhood is searched exactly: second-edge
candidates are the later edges incident to the anchor's endpoints
(every valid second edge shares a node with the first), and third-edge
candidates the later edges incident to any bound node.  Wedges —
second edges that open a third node — are subsampled with probability
``q`` and reweighted ``1/(p·q)``; pair-extending second edges stay at
``1/p``.  With ``p = q = 1`` the estimate is exact (tested against
FAST), which is the degeneracy argument for unbiasedness.

The paper's configuration is ``p = 0.01, q = 1``.

Two implementations, identical estimates bit for bit per seed:

* :func:`ews_count` runs the vectorized kernel
  (:func:`~repro.core.sampling_kernels.ews_columnar_counts`);
* :func:`_ews_python_counts`, its test reference, is the per-anchor
  generator walk below.  Each candidate triple is classified by the
  precomputed :data:`~repro.core.sampling_kernels.TRIPLE_CELL_TABLE`
  (an integer shape/direction code instead of a
  :func:`~repro.core.motifs.classify_triple` canonicalisation per
  instance), and occurrences are tallied as exact int64 counts per
  (cell, weight class) — the two weights ``1/p`` and ``1/(p·q)`` are
  applied once at the end (:func:`~repro.core.sampling_kernels.ews_grid`).

Both draw the same RNG stream and feed the same tally → grid
reduction.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Tuple

import numpy as np

from repro.core.counters import MotifCounts
from repro.core.sampling_kernels import (
    TRIPLE_CELL_TABLE,
    ews_columnar_counts,
    ews_grid,
    second_edge_code,
    third_edge_code,
    wedge_node,
)
from repro.errors import ValidationError, check_delta
from repro.graph.temporal_graph import OUT, TemporalGraph


def _later_incident_edges(
    graph: TemporalGraph,
    nodes: Tuple[int, ...],
    t_after: float,
    eid_after: int,
    t_limit: float,
) -> List[Tuple[float, int, int, int]]:
    """Edges incident to ``nodes`` strictly after (t_after, eid_after).

    Returns (t, eid, src, dst) tuples in canonical order, within the δ
    limit.  Edges touching two of the query nodes are reported once.
    """
    found: Dict[int, Tuple[float, int, int, int]] = {}
    for node in nodes:
        seq = graph.node_sequence(node)
        times = seq.times
        dirs = seq.dirs
        nbrs = seq.nbrs
        eids = seq.eids
        lo = bisect_left(times, t_after)
        for k in range(lo, len(times)):
            tk = times[k]
            if tk > t_limit:
                break
            eid = eids[k]
            if (tk, eid) <= (t_after, eid_after) or eid in found:
                continue
            if dirs[k] == OUT:
                found[eid] = (tk, eid, node, nbrs[k])
            else:
                found[eid] = (tk, eid, nbrs[k], node)
    return sorted(found.values(), key=lambda e: e[1])


def _ews_python_counts(
    graph: TemporalGraph,
    delta: float,
    p: float,
    q: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference tallies: int64 (pair, wedge) occurrence grids."""
    src = graph.sources.tolist()
    dst = graph.destinations.tolist()
    t = graph.timestamps.tolist()
    m = graph.num_edges
    pair_counts = np.zeros(36, dtype=np.int64)
    wedge_counts = np.zeros(36, dtype=np.int64)

    anchors = np.nonzero(rng.random(m) < p)[0] if p < 1 else np.arange(m)
    table = TRIPLE_CELL_TABLE
    for a in anchors.tolist():
        ta = t[a]
        limit = ta + delta
        ua, va = src[a], dst[a]
        seconds = _later_incident_edges(graph, (ua, va), ta, a, limit)
        for tb, b, ub, vb in seconds:
            code2 = second_edge_code(ua, va, ub, vb)
            is_wedge = code2 >= 2
            if is_wedge and q < 1 and rng.random() >= q:
                continue
            w = wedge_node(code2, ub, vb)
            bound = (ua, va) if w < 0 else (ua, va, w)
            counts = wedge_counts if is_wedge else pair_counts
            base = code2 * 16
            for _, _, uc, vc in _later_incident_edges(graph, bound, tb, b, limit):
                cell = table[base + third_edge_code(ua, va, w, uc, vc)]
                if cell >= 0:
                    counts[cell] += 1
    return pair_counts, wedge_counts


def ews_count(
    graph: TemporalGraph,
    delta: float,
    *,
    p: float = 0.01,
    q: float = 1.0,
    seed: int = 0,
) -> MotifCounts:
    """Estimate all 36 motif counts by edge/wedge sampling.

    Parameters
    ----------
    p:
        Anchor (first-edge) sampling probability in ``(0, 1]``.
    q:
        Wedge sampling probability in ``(0, 1]`` applied to second
        edges that introduce a third node.
    seed:
        RNG seed for both samplers.
    """
    for name, prob in (("p", p), ("q", q)):
        if not 0 < prob <= 1:
            raise ValidationError(f"{name} must be in (0, 1], got {prob}")
    check_delta(delta)
    if graph.num_edges == 0:
        return MotifCounts(np.zeros((6, 6)), algorithm="ews", delta=delta)
    pair_counts, wedge_counts = ews_columnar_counts(graph, delta, p=p, q=q, seed=seed)
    return MotifCounts(
        ews_grid(pair_counts, wedge_counts, p, q), algorithm="ews", delta=delta
    )
