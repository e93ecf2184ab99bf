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
python loops, the vectorized columnar kernels, or the HARE process
pool for large dirty ranges (micro-batch execution) — so streaming
inherits every backend the batch path has.
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
#: build cost; ``backend="auto"`` switches on it per slice.  Measured
#: crossover on power-law session slices is ~250 edges (columnar wins
#: 2x by 512, 2.7x by 2048, including the slice-graph build).
AUTO_COLUMNAR_MIN_EDGES = 256

#: Default minimum slice size before ``workers > 1`` runs a slice on
#: the HARE worker pool (micro-batch execution); below it publishing
#: the slice and dispatching its batches cost more than they save.
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


def resolve_slice_backend(backend: str, num_edges: int) -> str:
    """Concrete backend for one slice: ``auto`` picks by slice size.

    Streaming slices are often tiny (a micro-batch plus a δ tail); the
    O(k log k) columnar build only pays off past
    :data:`AUTO_COLUMNAR_MIN_EDGES` edges.
    """
    if backend == "auto":
        return "columnar" if num_edges >= AUTO_COLUMNAR_MIN_EDGES else "python"
    return backend


def count_slice_raw(
    graph: TemporalGraph,
    delta: float,
    *,
    star_pair: bool = True,
    triangle: bool = True,
    backend: str = "auto",
    workers: int = 1,
    parallel_min_edges: int = DEFAULT_PARALLEL_MIN_EDGES,
    pool_factory=None,
) -> RawCounts:
    """Raw flat counters of one immutable slice graph.

    Dispatches to the same kernels the batch path uses: serial python
    loops or columnar kernels per :func:`resolve_slice_backend`, and —
    when ``workers > 1`` and the slice has at least
    ``parallel_min_edges`` edges — the HARE runtime, so a large dirty
    range is counted as a micro-batch with full intra-node
    parallelism.  ``pool_factory`` (a zero-argument callable returning
    a :class:`~repro.parallel.pool.WorkerPool`, e.g. the streaming
    engine's resident-pool accessor) is consulted *only* when this
    function decides to go parallel — the threshold decision lives
    here alone — so micro-batches reuse a resident pool, and no pool is
    ever created for slices that stay serial.  Passes the engine does not need are skipped.
    """
    star, pair, tri = zero_raw()
    if graph.num_edges == 0 or not (star_pair or triangle):
        return star, pair, tri
    concrete = resolve_slice_backend(backend, graph.num_edges)
    if workers > 1 and graph.num_edges >= parallel_min_edges:
        from repro.parallel.hare import hare_star_pair, hare_triangle

        pool = pool_factory() if pool_factory is not None else None
        if star_pair:
            star_counter, pair_counter = hare_star_pair(
                graph, delta, workers=workers, backend=concrete, pool=pool
            )
            star = np.array(star_counter.data, dtype=np.int64)
            pair = np.array(pair_counter.data, dtype=np.int64)
        if triangle:
            tri_counter = hare_triangle(
                graph, delta, workers=workers, backend=concrete, pool=pool
            )
            tri = np.array(tri_counter.data, dtype=np.int64)
        return star, pair, tri
    from repro.core.fast_star import count_star_pair
    from repro.core.fast_tri import count_triangle

    if star_pair:
        star_counter, pair_counter = count_star_pair(graph, delta, backend=concrete)
        star = np.array(star_counter.data, dtype=np.int64)
        pair = np.array(pair_counter.data, dtype=np.int64)
    if triangle:
        tri_counter = count_triangle(graph, delta, backend=concrete)
        tri = np.array(tri_counter.data, dtype=np.int64)
    return star, pair, tri


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
