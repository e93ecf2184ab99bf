"""2SCENT — enumeration of simple temporal cycles.

The baseline of Kumar & Calders (PVLDB 2018).  2SCENT enumerates every
*simple temporal cycle*: a sequence of edges with strictly increasing
times, each edge starting where the previous one ended, returning to
the root node, visiting no node twice, and spanning at most δ.  Within
the paper's evaluation it is used as **2SCENT-Tri**, counting only the
cyclic triangle motif ``M26`` — "2SCENT can only detect the triangle
motif M26" (§V-E).

Structure mirrors the original's two phases:

1. **Source detection** — the defining (and expensive) phase of
   2SCENT: a single *backward* pass over all edges maintains, per
   node, a bounded summary of which potential root nodes are reachable
   through time-increasing paths and by when (the original uses bloom
   filters; here a capped dict per node that saturates to a wildcard,
   keeping the filter conservative — false positives possible, false
   negatives never).  Every temporal edge pays the summary-merge cost
   whether or not any cycle exists, which is why 2SCENT's runtime on
   the paper's bipartite datasets (zero cycles possible) is still
   minutes — and why FAST-Tri beats it there by 84×.
2. **Constrained DFS** from each surviving root edge, extending along
   strictly increasing (t, edge-id) order, pruning on the δ budget and
   the simple-path property, and emitting a cycle whenever an edge
   closes back to the root.

Enumeration is Θ(#cycles + exploration): every instance is touched
individually, which is why FAST-Tri — whose counters batch instances —
dominates it on cycle-dense graphs (up to 164× in Table III).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import ValidationError, check_delta
from repro.graph.temporal_graph import OUT, TemporalGraph

#: Per-node summary capacity before the filter saturates to a wildcard
#: (the bloom-filter capacity analogue of the original).
SUMMARY_CAPACITY = 64

#: Wildcard marker: the node's summary overflowed; treat every root as
#: possibly reachable (conservative, like a saturated bloom filter).
_WILDCARD = None


def detect_sources(graph: TemporalGraph, delta: float) -> List[Set[int]]:
    """2SCENT Phase 1: per-edge root-candidate filters.

    Processes edges in reverse canonical order, maintaining for every
    node ``v`` a summary ``S(v)``: the set of nodes reachable from
    ``v`` along strictly time-increasing paths that start within the
    next δ — capped at :data:`SUMMARY_CAPACITY` entries, after which
    the summary saturates to a wildcard.

    Returns, for each edge id ``(u, v, t)``, the candidate-root filter
    for DFS seeds: the set of nodes reachable from ``v`` after ``t``
    (or ``None`` for saturated/wildcard).  An edge can only start a
    cycle rooted at ``u`` if ``u`` is in its filter.
    """
    # summary: node -> ({reachable node -> earliest usable time} | wildcard)
    summaries: List[Optional[Dict[int, float]]] = [
        {} for _ in range(graph.num_nodes)
    ]
    src, dst, times = graph.edge_lists()
    m = graph.num_edges
    filters: List[Optional[Set[int]]] = [None] * m
    for eid in range(m - 1, -1, -1):
        u, v, t = src[eid], dst[eid], times[eid]
        s_v = summaries[v]
        # The filter for this edge: whatever is currently reachable
        # from v using edges strictly after t (within t + delta).
        if s_v is _WILDCARD:
            filters[eid] = None
        else:
            reachable = {v}
            limit = t + delta
            for node, earliest in s_v.items():
                if earliest <= limit:
                    reachable.add(node)
            filters[eid] = reachable
        # Propagate v's summary (plus v itself) into u's: any combined
        # path through this edge starts at time t.  Whether the tail
        # actually continues after t is not tracked — that can only
        # create false positives, never false negatives, keeping the
        # filter sound.
        s_u = summaries[u]
        if s_u is not _WILDCARD:
            if t < s_u.get(v, t + 1):
                s_u[v] = t
            if s_v is _WILDCARD:
                summaries[u] = _WILDCARD
            else:
                for node in s_v:
                    if t < s_u.get(node, t + 1):
                        s_u[node] = t
                if len(s_u) > SUMMARY_CAPACITY:
                    summaries[u] = _WILDCARD
    return filters


def enumerate_cycles(
    graph: TemporalGraph,
    delta: float,
    max_length: Optional[int] = None,
    min_length: int = 2,
) -> Iterator[Tuple[int, ...]]:
    """Enumerate simple temporal cycles of ``min_length..max_length`` edges.

    ``max_length=None`` enumerates cycles of *every* length — the real
    2SCENT's behaviour, bounded only by the δ window and the
    simple-path property.  Yields tuples of canonical edge ids.  Each
    cycle is reported once, rooted at its first (canonically earliest)
    edge.
    """
    check_delta(delta)
    if min_length < 2:
        raise ValidationError("temporal cycles need at least 2 edges")
    if max_length is not None and max_length < min_length:
        raise ValidationError("max_length must be >= min_length")

    src, dst, t = graph.edge_lists()
    m = graph.num_edges

    # Phase 1: every edge pays the source-detection cost, cycles or not.
    filters = detect_sources(graph, delta)

    for eid in range(m):
        root = src[eid]
        node = dst[eid]
        t0 = t[eid]
        limit = t0 + delta
        candidate_roots = filters[eid]
        if candidate_roots is not None and root not in candidate_roots:
            continue
        yield from _dfs(
            graph, root, node, (eid,), t0, eid, limit,
            {root, node}, max_length, min_length,
        )


def _dfs(
    graph: TemporalGraph,
    root: int,
    node: int,
    path: Tuple[int, ...],
    t_prev: float,
    eid_prev: int,
    limit: float,
    visited: set,
    max_length: Optional[int],
    min_length: int,
) -> Iterator[Tuple[int, ...]]:
    seq = graph.node_sequence(node)
    times = seq.times
    nbrs = seq.nbrs
    dirs = seq.dirs
    eids = seq.eids
    depth = len(path)
    lo = bisect_left(times, t_prev)
    for k in range(lo, len(times)):
        tk = times[k]
        if tk > limit:
            break
        if dirs[k] != OUT:
            continue
        eid = eids[k]
        if (tk, eid) <= (t_prev, eid_prev):
            continue
        nbr = nbrs[k]
        if nbr == root:
            if depth + 1 >= min_length:
                yield path + (eid,)
            continue
        if (max_length is not None and depth + 1 >= max_length) or nbr in visited:
            continue
        visited.add(nbr)
        yield from _dfs(
            graph, root, nbr, path + (eid,), tk, eid, limit,
            visited, max_length, min_length,
        )
        visited.discard(nbr)


def twoscent_count_cycles(
    graph: TemporalGraph,
    delta: float,
    length: int = 3,
    enumerate_all_lengths: bool = False,
) -> int:
    """Count simple temporal cycles of exactly ``length`` edges.

    ``length=3`` (the default) is the paper's 2SCENT-Tri: the count of
    motif ``M26``.  With ``enumerate_all_lengths=True`` the run
    enumerates cycles of every length — as the original does — and
    filters to ``length`` afterwards; this is the configuration the
    benchmark harness times, because the paper ran the unmodified
    enumerator.
    """
    max_length = None if enumerate_all_lengths else length
    return sum(
        1
        for cycle in enumerate_cycles(graph, delta, max_length=max_length, min_length=length)
        if len(cycle) == length
    )


def twoscent_count(
    graph: TemporalGraph,
    delta: float,
    *,
    enumerate_all_lengths: bool = False,
) -> "MotifCounts":
    """2SCENT-Tri as a grid result: the M26 count in a ``MotifCounts``.

    2SCENT can only detect the cyclic triangle motif M26 (§V-E), so
    every other cell is zero; the registry adapter uses this wrapper so
    2SCENT is interchangeable with the full-grid algorithms.
    """
    from repro.core.counters import MotifCounts

    cycles = twoscent_count_cycles(
        graph, delta, length=3, enumerate_all_lengths=enumerate_all_lengths
    )
    return MotifCounts.from_dict(
        {"M26": cycles},
        algorithm="twoscent",
        delta=delta,
        meta={"coverage": "M26 only; all other cells are uncounted, not zero"},
    )
