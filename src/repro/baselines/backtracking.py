"""BT — chronological backtracking temporal subgraph isomorphism.

The baseline of Mackey et al. ("a chronological edge-driven approach
to temporal subgraph isomorphism", IEEE BigData 2018), used by the
paper both directly (BT-Pair) and as the exact subroutine inside the
BTS sampler.

The matcher is generic over the motif length ``l``: pattern edges are
matched strictly in time order; the first pattern edge ranges over all
graph edges and each further edge is drawn from the candidate set
implied by the already-bound pattern nodes, pruned by the δ window.
Because every prefix of a connected ≤3-node motif shares a node with
what came before (true for all 36 motifs, and checked at runtime for
custom patterns), candidates always come from a bound node's timeline
rather than the global edge list.

This is Θ(#instances) at best and ``O(|E| · (d^δ)^(l-1))`` at worst —
the exponential-in-``l`` behaviour the paper cites — which is exactly
why FAST-Pair dominates it in Table III.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.counters import MotifCounts
from repro.core.motifs import (
    ALL_MOTIFS,
    Motif,
    PAIR_MOTIFS,
)
from repro.errors import ValidationError, check_delta
from repro.graph.temporal_graph import IN, OUT, TemporalGraph


def _check_pattern(pattern: Sequence[Tuple[int, int]]) -> None:
    seen = set()
    for k, (ps, pd) in enumerate(pattern):
        if ps == pd:
            raise ValidationError(f"pattern edge {k} is a self-loop")
        if k > 0 and ps not in seen and pd not in seen:
            raise ValidationError(
                "pattern edges must each share a node with an earlier edge "
                f"(edge {k} does not)"
            )
        seen.add(ps)
        seen.add(pd)


def match_instances(
    graph: TemporalGraph,
    delta: float,
    pattern: Sequence[Tuple[int, int]],
    first_range: Optional[Tuple[int, int]] = None,
    t_cap: Optional[float] = None,
) -> Iterator[Tuple[int, ...]]:
    """Enumerate instances of an arbitrary l-edge temporal motif.

    ``pattern`` is a canonical edge sequence (appearance-labelled, as
    in :mod:`repro.core.motifs`, though any labels work).  Yields the
    tuple of canonical edge ids of each instance, in pattern order.
    Edges are matched in strict canonical order with the usual span
    constraint ``t_last - t_first <= delta``.

    ``first_range`` restricts the first edge to canonical ids
    ``[lo, hi)`` and ``t_cap`` caps every matched edge at timestamps
    strictly below it — together these let BTS match inside a sampled
    time block without materialising a subgraph.
    """
    check_delta(delta)
    _check_pattern(pattern)
    src, dst, t = graph.edge_lists()
    m = graph.num_edges

    lo, hi = (0, m) if first_range is None else first_range
    lo = max(lo, 0)
    hi = min(hi, m)
    p1s, p1d = pattern[0]
    for first in range(lo, hi):
        t_limit = t[first] + delta
        if t_cap is not None:
            if t[first] >= t_cap:
                break
            t_limit = min(t_limit, _previous_float(t_cap))
        binding = {p1s: src[first], p1d: dst[first]}
        bound_nodes = {src[first], dst[first]}
        yield from _extend(
            graph,
            pattern,
            1,
            binding,
            bound_nodes,
            (first,),
            t_limit,
            t[first],
            first,
        )


def _previous_float(value: float) -> float:
    """Largest float strictly below ``value`` (for half-open time caps)."""
    import math

    return math.nextafter(value, -math.inf)


def _extend(
    graph: TemporalGraph,
    pattern: Sequence[Tuple[int, int]],
    k: int,
    binding: dict,
    bound_nodes: set,
    matched: Tuple[int, ...],
    t_limit: float,
    t_prev: float,
    eid_prev: int,
) -> Iterator[Tuple[int, ...]]:
    if k == len(pattern):
        yield matched
        return
    ps, pd = pattern[k]
    s_bound = ps in binding
    d_bound = pd in binding
    if s_bound and d_bound:
        u, v = binding[ps], binding[pd]
        times, dirs, eids = graph.pair_timeline(u, v)
        # Direction relative to min(u, v): OUT means min -> max.
        want = OUT if u < v else IN
        lo = bisect_left(times, t_prev)
        for idx in range(lo, len(times)):
            tk = times[idx]
            if tk > t_limit:
                break
            eid = eids[idx]
            if dirs[idx] != want or (tk, eid) <= (t_prev, eid_prev):
                continue
            yield from _extend(
                graph, pattern, k + 1, binding, bound_nodes, matched + (eid,),
                t_limit, tk, eid,
            )
    else:
        # Exactly one endpoint bound; scan that node's timeline.
        if s_bound:
            center, want_dir, free_label = binding[ps], OUT, pd
        else:
            center, want_dir, free_label = binding[pd], IN, ps
        seq = graph.node_sequence(center)
        times = seq.times
        lo = bisect_left(times, t_prev)
        nbrs = seq.nbrs
        dirs = seq.dirs
        eids = seq.eids
        for idx in range(lo, len(times)):
            tk = times[idx]
            if tk > t_limit:
                break
            eid = eids[idx]
            if dirs[idx] != want_dir or (tk, eid) <= (t_prev, eid_prev):
                continue
            nbr = nbrs[idx]
            if nbr in bound_nodes:
                continue
            binding[free_label] = nbr
            bound_nodes.add(nbr)
            yield from _extend(
                graph, pattern, k + 1, binding, bound_nodes, matched + (eid,),
                t_limit, tk, eid,
            )
            del binding[free_label]
            bound_nodes.discard(nbr)


def count_pattern(
    graph: TemporalGraph,
    delta: float,
    pattern: Sequence[Tuple[int, int]],
) -> int:
    """Count instances of one motif pattern by full enumeration."""
    return sum(1 for _ in match_instances(graph, delta, pattern))


def bt_count(
    graph: TemporalGraph,
    delta: float,
    motifs: Optional[Iterable[Motif]] = None,
) -> MotifCounts:
    """Count motifs with BT, one enumeration pass per motif.

    This mirrors how the baseline is used in the paper: subgraph
    isomorphism is run per pattern, so counting all 36 motifs costs 36
    passes.
    """
    selected: List[Motif] = list(ALL_MOTIFS if motifs is None else motifs)
    grid = np.zeros((6, 6), dtype=np.int64)
    for motif in selected:
        grid[motif.row - 1, motif.col - 1] = count_pattern(graph, delta, motif.canonical)
    return MotifCounts(grid, algorithm="bt", delta=delta)


def bt_count_pairs(graph: TemporalGraph, delta: float) -> MotifCounts:
    """BT-Pair: count the four 2-node motifs (the paper's variant)."""
    return bt_count(graph, delta, PAIR_MOTIFS)
