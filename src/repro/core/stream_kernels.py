"""Incremental counting kernels: raw-counter diffs over dirty time slices.

The streaming engine never recounts the whole live window.  It relies
on one structural fact about δ-temporal motifs: **a motif instance
spans at most δ in time** (``t3 - t1 <= delta``).  Two consequences:

*Ingest.*  Let a batch of accepted arrivals have minimum timestamp
``a``.  Every triple involving a new edge lies entirely in
``[a - delta, +inf)`` — a new edge has ``t >= a``, so the triple's
earliest edge has ``t >= a - delta``.  Triples *not* involving a new
edge are counted identically before and after the append.  Hence::

    added = raw(live_after  ∩ [a - delta, +inf))
          - raw(live_before ∩ [a - delta, +inf))

*Expiry.*  Evicting edges with ``t < cutoff`` removes exactly the
triples containing one of them, and each such triple lies entirely in
``(-inf, cutoff + delta)`` (strictly: its latest edge has
``t <= t_expired + delta < cutoff + delta``).  Hence::

    removed = raw(live_before ∩ (-inf, cutoff + delta))
            - raw(live_after  ∩ (-inf, cutoff + delta))

Both identities hold for **raw flat counters** (the 24-cell star, the
8-cell both-endpoints pair, the 24-cell multiplicity-3 triangle
counter) because a triple's raw-cell contribution depends only on its
own edges' directions and relative canonical order — which time
slicing preserves (see :mod:`repro.graph.stream_store`).  Raw counters
are therefore additive over edge-multiset differences; projection to
the de-duplicated 6×6 grid happens only at checkpoint time.

The slice counts reuse the existing batch kernels unchanged — the
python loops for tiny slices, the vectorized columnar kernels above
:data:`AUTO_COLUMNAR_MIN_EDGES`, or, for large dirty ranges, one HARE
job on the shared worker pool (micro-batch execution).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.core.counters import (
    MotifCounts,
    PairCounter,
    StarCounter,
    TriangleCounter,
)
from repro.graph.temporal_graph import TemporalGraph

#: Raw flat counters: (star 24 cells, pair 8 cells, triangle 24 cells),
#: all int64, triangle in dependency-free multiplicity-3 form.
RawCounts = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: Below this many slice edges the interpreted loops beat the columnar
#: build cost, so :func:`count_slice_raw` switches on it per slice.  Measured
#: crossover on power-law session slices is ~250 edges (columnar wins
#: 2x by 512, 2.7x by 2048, including the slice-graph build).
AUTO_COLUMNAR_MIN_EDGES = 256

#: Minimum slice size before ``workers > 1`` runs a slice as
#: one HARE job on the worker pool (micro-batch execution); below it
#: publishing the slice and dispatching its batches cost more than
#: they save.
DEFAULT_PARALLEL_MIN_EDGES = 200_000


def zero_raw() -> RawCounts:
    """The additive identity: three zeroed raw counter arrays."""
    return (
        np.zeros(24, dtype=np.int64),
        np.zeros(8, dtype=np.int64),
        np.zeros(24, dtype=np.int64),
    )


def apply_diff(totals: RawCounts, plus: RawCounts, minus: RawCounts) -> None:
    """In-place ``totals += plus - minus`` over all three counter arrays."""
    for total, p, m in zip(totals, plus, minus):
        total += p
        total -= m


def count_slice_raw(
    graph: TemporalGraph,
    delta: float,
    *,
    star_pair: bool = True,
    triangle: bool = True,
    workers: int = 1,
    pool=None,
) -> RawCounts:
    """Raw flat counters of one immutable slice graph.

    Dispatches to the same kernels the batch path uses: the columnar
    kernels, or the python loops for slices under
    :data:`AUTO_COLUMNAR_MIN_EDGES` edges (streaming slices are often a
    micro-batch plus a δ tail, too small to amortize the O(k log k)
    columnar build), and — when ``workers > 1`` and the slice has at least
    :data:`DEFAULT_PARALLEL_MIN_EDGES` edges (read at call time) — the
    HARE runtime, so a large dirty range is counted as a micro-batch
    with full intra-node parallelism.  Such a slice runs on
    ``runtime_pool(pool, workers)`` (the caller's pool,
    else the process-wide shared pool) as one pool job covering every
    requested pass; slices below the threshold never touch a pool.
    Passes the engine does not need are skipped.
    """
    if graph.num_edges == 0 or not (star_pair or triangle):
        return zero_raw()
    if workers > 1 and graph.num_edges >= DEFAULT_PARALLEL_MIN_EDGES:
        from repro.parallel.executor import run_batches, runtime_pool

        pool = runtime_pool(pool, workers)
        counters = run_batches(
            graph, delta, pool.plan_batches(graph, workers), pool=pool,
            star_pair=star_pair, triangle=triangle,
        )
        cells = [None if c is None else c.data for c in counters]
    elif graph.num_edges < AUTO_COLUMNAR_MIN_EDGES:
        from repro.core.fast_star import count_star_pair
        from repro.core.fast_tri import count_triangle

        star, pair = count_star_pair(graph, delta) if star_pair else (None, None)
        tri = count_triangle(graph, delta) if triangle else None
        cells = [None if c is None else c.data for c in (star, pair, tri)]
    else:
        from repro.parallel.executor import execute_tasks

        cells = execute_tasks(graph, delta, None, star_pair=star_pair, triangle=triangle)
    return tuple(
        zero if data is None else np.array(data, dtype=np.int64)
        for zero, data in zip(zero_raw(), cells)
    )


def project_raw(
    totals: RawCounts,
    *,
    star_pair: bool = True,
    triangle: bool = True,
    **kwargs,
) -> MotifCounts:
    """Project running raw totals onto the de-duplicated 6×6 grid.

    The running totals equal the raw counters of a full batch pass
    over the live edge set (that is the diff identities' guarantee),
    so the standard projection rules apply: stars are exact, pairs use
    the OUT-rooted cells, triangles divide by multiplicity 3.
    """
    star, pair, tri = totals
    return MotifCounts.from_counters(
        StarCounter(star.tolist()) if star_pair else None,
        PairCounter(pair.tolist()) if star_pair else None,
        TriangleCounter(tri.tolist(), multiplicity=3) if triangle else None,
        **kwargs,
    )
