"""BTS — interval sampling with BT as the exact subroutine.

The baseline of Liu, Benson & Charikar ("Sampling methods for counting
temporal motifs", WSDM 2019): a sampling *layer* on top of an exact
counter.  Time is partitioned — at a uniformly random offset — into
blocks of width ``c·δ``; each block is kept with probability ``q``;
the exact algorithm (BT here, as in the paper's BTS-Pair) enumerates
the instances lying entirely inside each kept block, and every found
instance is reweighted by the inverse probability that a random
partition of blocks covers it:

    P(covered and sampled) = q · (W - span) / W,   W = c·δ

which makes the estimator unbiased (Horvitz–Thompson over the random
offset and the block coin flips).  Instances that straddle a block
boundary in one draw are covered in others; no instance is ever
over-weighted.

Blocks are matched *in place* on the full graph (first-edge index
range + timestamp cap) rather than on materialised subgraphs, and are
independent — which is also the parallel decomposition: ``workers > 1``
farms sampled blocks out to workers, reproducing the BTS-Pair curves
of the paper's Fig. 11.

``q = 1`` keeps every block but the estimate still varies with the
offset; :func:`bts_count` therefore short-circuits ``q >= 1 and
exact_when_full`` to a plain exact BT run, matching how the original
is used as a sanity configuration.

Runtimes — same bits everywhere
-------------------------------

Block sampling (offset, coin flips, edge ranges) is the vectorized
draw below.  Each kept block's HT-weighted grid is evaluated by one
vectorized enumeration pass over the columnar CSR layouts
(:func:`repro.core.sampling_kernels.bts_columnar_block_grids`),
covering all selected motifs at once; pair-only selections stay on
the anchor's own pair timeline.  :func:`_block_grid` — per-motif
:func:`match_instances` generator walks, one BT pass per selected
motif — is its test reference.

Both reduce each (block, motif) instance group through the canonical
:func:`~repro.core.sampling_kernels.ht_weight_sum` (sorted spans), and
per-block grids always merge in sampling order
(:func:`_reduce_block_grids`), so the estimate is bit-identical across
worker counts and runtimes.  ``workers > 1`` farms block chunks
through the process-wide shared-memory
:class:`~repro.parallel.pool.WorkerPool`; an explicit ``pool=``
always wins.  Either way the workers read the published zero-copy
graph and its columnar store, and each builds its own per-δ
edge-window table.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.backtracking import bt_count, match_instances
from repro.core.counters import MotifCounts
from repro.core.motifs import ALL_MOTIFS, Motif, PAIR_MOTIFS, motif_cell
from repro.core.sampling_kernels import bts_columnar_block_grids, ht_weight_sum
from repro.errors import ValidationError, check_delta
from repro.graph.temporal_graph import TemporalGraph

#: A sampled block: (first-edge index lo, hi, block end time).
_Block = Tuple[int, int, float]


def _block_grid(
    graph: TemporalGraph,
    delta: float,
    motifs: List[Motif],
    block: _Block,
    W: float,
    q: float,
) -> np.ndarray:
    """HT-weighted counts of one sampled block (python reference)."""
    t = graph.edge_lists()[2]
    grid = np.zeros((6, 6), dtype=np.float64)
    lo, hi, b_hi = block
    for motif in motifs:
        spans = [
            t[matched[-1]] - t[matched[0]]
            for matched in match_instances(
                graph, delta, motif.canonical, first_range=(lo, hi), t_cap=b_hi
            )
        ]
        if spans:
            grid[motif.row - 1, motif.col - 1] += ht_weight_sum(spans, W, q)
    return grid


def _sample_blocks(graph: TemporalGraph, W: float, q: float, seed: int) -> List[_Block]:
    """Draw the kept blocks of one BTS sample (random offset, coin flips).

    Vectorised: coin flips and edge ranges in bulk.  Blocks holding
    fewer than three edges cannot contain an instance and are dropped.
    """
    rng = np.random.default_rng(seed)
    offset = float(rng.uniform(0, W))
    times = graph.timestamps
    first_block = int(np.floor((float(times[0]) - offset) / W))
    last_block = int(np.floor((float(times[-1]) - offset) / W))
    block_ids = np.arange(first_block, last_block + 1)
    kept = block_ids[rng.random(block_ids.size) < q]
    b_los = offset + kept * W
    los = np.searchsorted(times, b_los, side="left")
    his = np.searchsorted(times, b_los + W, side="left")
    mask = (his - los) >= 3
    return [
        (int(lo), int(hi), float(b_lo + W))
        for lo, hi, b_lo in zip(los[mask], his[mask], b_los[mask])
    ]


def _reduce_block_grids(indexed_grids: List[Tuple[int, np.ndarray]]) -> np.ndarray:
    """Sum per-block grids in global block order.

    Floating-point addition is not associative, so the reduction tree
    must not depend on how blocks were chunked across workers: summing
    one block at a time, in sampling order, makes the estimate
    bit-identical for any worker count (and for the serial path).
    """
    grid = np.zeros((6, 6), dtype=np.float64)
    for _, block_grid in sorted(indexed_grids, key=lambda item: item[0]):
        grid += block_grid
    return grid


def _chunk_grids(
    graph: TemporalGraph,
    delta: float,
    args: Tuple,
    chunk: Sequence[Tuple[int, _Block]],
) -> List[Tuple[int, np.ndarray]]:
    """Per-block grids of one chunk, tagged with their sampling index.

    The single evaluation point shared by the serial path and the
    pool workers: each block's grid is a pure function of that block
    alone, so results never depend on the chunking.  ``args`` is
    ``(W, q, cells)``.
    """
    W, q, cells = args
    blocks = [block for _, block in chunk]
    grids = bts_columnar_block_grids(graph, delta, blocks, W, q, cells)
    return [(index, grid) for (index, _), grid in zip(chunk, grids)]


def pool_map_block_grids(
    graph: TemporalGraph, delta: float, args: Tuple, chunk
) -> List[Tuple[int, List[List[float]]]]:
    """:class:`~repro.parallel.pool.WorkerPool` map function (``"bts_blocks"``).

    Runs :func:`_chunk_grids` against the worker's attached zero-copy
    graph; grids ship back as nested lists (bit-exact float64
    round-trip) tagged with their sampling index for the canonical
    owner-side reduction.
    """
    return [
        (index, grid.tolist())
        for index, grid in _chunk_grids(graph, delta, args, chunk)
    ]


def _split_chunks(
    indexed: List[Tuple[int, _Block]], workers: int
) -> List[List[Tuple[int, _Block]]]:
    """Strided block chunks: IPC per chunk, order-independent results."""
    n = max(1, workers) * 4
    chunks = [indexed[k::n] for k in range(n)]
    return [chunk for chunk in chunks if chunk]


def bts_count(
    graph: TemporalGraph,
    delta: float,
    *,
    q: float = 0.3,
    window_factor: float = 5.0,
    seed: int = 0,
    motifs: Optional[Iterable[Motif]] = None,
    exact_when_full: bool = True,
    workers: int = 1,
    pool: Optional[object] = None,
) -> MotifCounts:
    """Estimate motif counts by interval sampling.

    Parameters
    ----------
    q:
        Block sampling probability in ``(0, 1]``.
    window_factor:
        Block width as a multiple ``c`` of δ; must be > 1 so that any
        instance (span ≤ δ) fits inside a block with positive
        probability.
    seed:
        Seed for the random offset and the block coin flips.
    motifs:
        Motifs to estimate (default: all 36).
    exact_when_full:
        With ``q >= 1``, fall back to the exact BT run.
    workers:
        Number of processes to spread sampled blocks over, on the
        process-wide shared-memory
        :func:`~repro.parallel.pool.shared_pool`.  The estimate is
        bit-identical in every case (per-block grids reduce in
        canonical order).
    pool:
        A persistent :class:`~repro.parallel.pool.WorkerPool` to farm
        block chunks to (wins over ``workers``); its
        workers count against the published zero-copy graph.
    """
    if not 0 < q <= 1:
        raise ValidationError(f"q must be in (0, 1], got {q}")
    if window_factor <= 1:
        raise ValidationError(f"window_factor must be > 1, got {window_factor}")
    check_delta(delta)
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    selected: List[Motif] = list(ALL_MOTIFS if motifs is None else motifs)
    if q >= 1 and exact_when_full:
        result = bt_count(graph, delta, selected)
        result.algorithm = "bts"
        return result

    W = window_factor * max(delta, 1)
    grid = np.zeros((6, 6), dtype=np.float64)
    if graph.num_edges == 0:
        return MotifCounts(grid, algorithm="bts", delta=delta)
    blocks = _sample_blocks(graph, W, q, seed)
    args = (W, q, tuple(motif_cell(m) for m in selected))
    indexed = list(enumerate(blocks))
    if pool is None and len(blocks) > 1:
        from repro.parallel.executor import runtime_pool

        pool = runtime_pool(None, workers)
    if pool is not None and indexed:
        grid += _run_on_pool(pool, graph, delta, args, indexed, workers)
    else:
        grid += _reduce_block_grids(_chunk_grids(graph, delta, args, indexed))
    return MotifCounts(grid, algorithm="bts", delta=delta)


def _run_on_pool(pool, graph, delta, args, indexed, workers: int) -> np.ndarray:
    """Farm block chunks to a persistent pool; reduce canonically."""
    chunks = _split_chunks(indexed, max(workers, getattr(pool, "workers", 1)))
    payloads = pool.run_map(graph, "bts_blocks", chunks, args=args, delta=delta)
    collected = [
        (index, np.asarray(grid, dtype=np.float64))
        for payload in payloads
        for index, grid in payload
    ]
    return _reduce_block_grids(collected)


def bts_count_pairs(
    graph: TemporalGraph,
    delta: float,
    *,
    q: float = 0.3,
    window_factor: float = 5.0,
    seed: int = 0,
    exact_when_full: bool = True,
    workers: int = 1,
    pool: Optional[object] = None,
) -> MotifCounts:
    """BTS-Pair: interval-sampled estimate of the four 2-node motifs."""
    return bts_count(
        graph,
        delta,
        q=q,
        window_factor=window_factor,
        seed=seed,
        motifs=PAIR_MOTIFS,
        exact_when_full=exact_when_full,
        workers=workers,
        pool=pool,
    )
