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

A call runs on a persistent :class:`~repro.parallel.pool.WorkerPool`:
the one passed as ``pool=``, or for ``workers > 1`` the process-wide
shared pool, started with ``start_method=`` (see
:func:`repro.parallel.executor.runtime_pool`).  Repeated calls against
the same graph then reuse the published shared-memory arrays, the
memoized batch plan, and — for identical requests — the raw-counter
cache.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.core.counters import MotifCounts
from repro.errors import ValidationError, check_delta
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.executor import run_batches, runtime_pool
from repro.parallel.scheduler import WorkBatch, build_batches, partition_static

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.registry import CountRequest
    from repro.parallel.pool import WorkerPool


def _prepare_batches(
    graph: TemporalGraph,
    workers: int,
    thrd: Optional[float],
    schedule: str,
    pool: Optional["WorkerPool"],
    start_method: Optional[str],
) -> Tuple[Optional["WorkerPool"], List[WorkBatch]]:
    """The pool a call runs on (``None``: serial) and its batch plan."""
    if schedule not in ("dynamic", "static"):
        raise ValidationError(f"schedule must be 'dynamic' or 'static', got {schedule!r}")
    pool = runtime_pool(pool, workers, start_method)
    if pool is not None:
        # The pool memoizes the decomposition per published graph, so
        # repeated requests skip the planning pass entirely.
        batches = pool.plan_batches(graph, workers, thrd=thrd, schedule=schedule)
        # An empty task cover has nothing to ship: count it serially.
        return (pool if batches else None), batches
    batches = build_batches(graph, workers, thrd=thrd)
    if schedule == "static":
        batches = partition_static(batches, workers)
    return None, batches


def hare_count(
    graph: TemporalGraph,
    delta: float,
    *,
    workers: int = 2,
    thrd: Optional[float] = None,
    schedule: str = "dynamic",
    categories: str = "all",
    pool: Optional["WorkerPool"] = None,
    start_method: Optional[str] = None,
    deadline: Optional[float] = None,
) -> MotifCounts:
    """Count all motifs with the HARE parallel framework.

    Parameters mirror :func:`repro.core.api.count_motifs`.  Nodes
    with degree above ``thrd`` are split into consecutive first-edge
    pieces and the task cover is cut into weight-balanced batches,
    both a fixed number per worker (see
    :func:`repro.parallel.scheduler.build_batches`).  Every batch runs
    the columnar kernels; ``pool`` reuses a persistent shared-memory
    worker pool.  ``meta["runtime"]`` is ``"pool"`` when the batches ran on a pool,
    ``"serial"`` otherwise.  Results are bit-identical to the serial
    FAST pass in every configuration.
    """
    check_delta(delta)
    star_pair = categories in ("all", "star", "pair", "star_pair")
    triangle = categories in ("all", "triangle")
    pool, batches = _prepare_batches(graph, workers, thrd, schedule, pool, start_method)
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


def hare_count_request(request: "CountRequest") -> MotifCounts:
    """Registry adapter entry: run HARE from a resolved CountRequest."""
    return hare_count(
        request.graph,
        request.delta,
        workers=request.workers,
        thrd=request.thrd,
        schedule=request.schedule,
        categories=request.categories,
        pool=request.pool,
        start_method=request.start_method,
        deadline=request.deadline,
    )
