"""HARE: the hierarchical parallel counting entry point.

``hare_count`` is the parallel equivalent of
:func:`repro.core.api.count_motifs` with ``algorithm="fast"``: same
exact results (tested), produced by the two-level decomposition of
§IV-C.  It is the one parallel FAST path: :func:`_prepare_batches`
picks the pool and the batch plan, :func:`~repro.parallel.executor.run_batches`
runs the plan as one job on that pool (or serially without one), and
:func:`~repro.parallel.executor.reduce_results` sums the batches.
``categories`` restricts the passes it runs, so
``hare_count(categories="star_pair")`` is the paper's HARE-Pair
workload (Fig. 11).

``thrd`` and ``schedule`` — the knobs of the Fig. 12(b) ablation —
are caller-settable only here: a parallel ``fast`` count through the
registry calls :func:`hare_count` with the paper's defaults (top-20
threshold, dynamic schedule), because neither knob changes a count.

A call runs on a persistent :class:`~repro.parallel.pool.WorkerPool`:
the one passed as ``pool=``, or for ``workers > 1`` the process-wide
shared pool (see :func:`repro.parallel.executor.runtime_pool`).
Repeated calls against the same graph then reuse the published
shared-memory arrays, the memoized batch plan, and — for identical
requests — the raw-counter cache.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.core.counters import MotifCounts
from repro.errors import ValidationError, check_delta
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.executor import run_batches, runtime_pool
from repro.parallel.scheduler import WorkBatch, build_batches, partition_static

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.pool import WorkerPool


def _prepare_batches(
    graph: TemporalGraph,
    workers: int,
    thrd: Optional[float],
    schedule: str,
    pool: Optional["WorkerPool"],
) -> Tuple[Optional["WorkerPool"], List[WorkBatch]]:
    """The pool a call runs on (``None``: serial) and its batch plan."""
    if schedule not in ("dynamic", "static"):
        raise ValidationError(f"schedule must be 'dynamic' or 'static', got {schedule!r}")
    pool = runtime_pool(pool, workers)
    # The pool memoizes the decomposition per published graph, so
    # repeated requests skip the planning pass entirely.
    if pool is not None:
        batches = pool.plan_batches(graph, workers, thrd=thrd)
    else:
        batches = build_batches(graph, workers, thrd=thrd)
    if schedule == "static":
        batches = partition_static(batches, workers)
    # An empty task cover has nothing to ship: count it serially.
    return (pool if batches else None), batches


def hare_count(
    graph: TemporalGraph,
    delta: float,
    *,
    workers: int = 2,
    thrd: Optional[float] = None,
    schedule: str = "dynamic",
    categories: str = "all",
    pool: Optional["WorkerPool"] = None,
    deadline: Optional[float] = None,
) -> MotifCounts:
    """Count all motifs with the HARE parallel framework.

    Parameters mirror :func:`repro.core.api.count_motifs`, plus the
    two HARE knobs of §IV-C.  Nodes with degree above ``thrd``
    (``None``: the paper's default, the minimum degree among the top-20
    nodes) are split into consecutive first-edge pieces and the task
    cover is cut into weight-balanced batches, both a fixed number per
    worker (see :func:`repro.parallel.scheduler.build_batches`).
    ``schedule="static"`` pre-assigns the batches round-robin, one
    block per worker (:func:`~repro.parallel.scheduler.partition_static`);
    ``"dynamic"`` (default) lets workers pull them.  Every batch runs
    the columnar kernels; ``pool`` reuses a persistent shared-memory
    worker pool.  ``meta["runtime"]`` is ``"pool"`` when the batches ran on a pool,
    ``"serial"`` otherwise.  Results are bit-identical to the serial
    FAST pass in every configuration.
    """
    check_delta(delta)
    star_pair = categories in ("all", "star", "pair", "star_pair")
    triangle = categories in ("all", "triangle")
    pool, batches = _prepare_batches(graph, workers, thrd, schedule, pool)
    star, pair, tri = run_batches(
        graph, delta, batches, pool=pool,
        star_pair=star_pair, triangle=triangle, deadline=deadline,
    )
    result = MotifCounts.from_counters(
        star, pair, tri, algorithm=f"hare[{workers}]", delta=delta,
        meta={
            "workers": workers,
            "schedule": schedule,
            "runtime": "serial" if pool is None else "pool",
        },
    )
    return result.masked(categories)

