"""Brute-force reference counter (ground truth for the test suite).

Enumerates every ordered triple of edges ``a < b < c`` (canonical
order) with ``t_c - t_a <= δ`` and classifies it against the canonical
motif table.  This is Θ(m · w²) where ``w`` is the δ-window size — far
too slow for the benchmark graphs, but unbeatable as an independent
oracle: it shares *no* code path with FAST beyond the motif table
itself.
"""

from __future__ import annotations

import numpy as np

from repro.core.counters import MotifCounts
from repro.core.motifs import classify_triple
from repro.errors import check_delta
from repro.graph.temporal_graph import TemporalGraph


def brute_force_counts(graph: TemporalGraph, delta: float) -> MotifCounts:
    """Count all 36 motifs by exhaustive triple enumeration.

    Intended for small graphs in tests; raises on negative ``delta``.
    """
    check_delta(delta)
    src, dst, t = graph.edge_lists()
    m = graph.num_edges
    grid = np.zeros((6, 6), dtype=np.int64)
    for a in range(m):
        ta = t[a]
        limit = ta + delta
        ea = (src[a], dst[a])
        for b in range(a + 1, m):
            if t[b] > limit:
                break
            eb = (src[b], dst[b])
            for c in range(b + 1, m):
                if t[c] > limit:
                    break
                motif = classify_triple((ea, eb, (src[c], dst[c])))
                if motif is not None:
                    grid[motif.row - 1, motif.col - 1] += 1
    return MotifCounts(grid, algorithm="bruteforce", delta=delta)
