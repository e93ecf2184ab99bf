"""HARE: the hierarchical parallel counting entry points.

``hare_count`` is the parallel equivalent of
:func:`repro.core.api.count_motifs` with ``algorithm="fast"``: same
exact results (tested), produced by the two-level decomposition of
§IV-C.  ``hare_star_pair`` / ``hare_triangle`` expose the individual
passes for the paper's per-category benchmarks (HARE-Pair in Fig. 11).

Every entry point runs on a persistent
:class:`~repro.parallel.pool.WorkerPool`: the one passed as ``pool=``,
or for ``workers > 1`` the process-wide shared pool, started with
``start_method=`` (see :func:`repro.parallel.executor.runtime_pool`).
Repeated calls against the same graph then reuse the published
shared-memory arrays, the memoized batch plan, and — for identical
requests — the raw-counter cache.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.core.counters import MotifCounts, PairCounter, StarCounter, TriangleCounter
from repro.errors import ValidationError
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.executor import resolved_runtime, run_batches, runtime_pool
from repro.parallel.scheduler import WorkBatch, build_batches, partition_static

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.registry import CountRequest
    from repro.parallel.pool import WorkerPool


def _prepare_batches(
    graph: TemporalGraph,
    workers: int,
    thrd: Optional[float],
    schedule: str,
    split_factor: int,
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
        return pool, pool.plan_batches(
            graph, workers, thrd=thrd, schedule=schedule, split_factor=split_factor
        )
    batches = build_batches(graph, workers, thrd=thrd, split_factor=split_factor)
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
    split_factor: int = 4,
    backend: str = "python",
    pool: Optional["WorkerPool"] = None,
    start_method: Optional[str] = None,
    deadline: Optional[float] = None,
) -> MotifCounts:
    """Count all motifs with the HARE parallel framework.

    Parameters mirror :func:`repro.core.api.count_motifs`.  Nodes
    with degree above ``thrd`` are split into ``workers *
    split_factor`` consecutive pieces, which sets how finely one hub
    can be shared between batches; the batches themselves are cut
    from the whole task cover by weight, about four per worker (see
    :func:`repro.parallel.scheduler.build_batches`).  ``backend``
    selects the per-worker kernels (python loops or vectorized
    columnar); ``pool`` reuses a persistent shared-memory worker pool.
    Results are bit-identical to the serial FAST pass in every
    configuration.
    """
    if delta < 0:
        raise ValidationError(f"delta must be non-negative, got {delta}")
    star_pair = categories in ("all", "star", "pair", "star_pair")
    triangle = categories in ("all", "triangle")
    pool, batches = _prepare_batches(
        graph, workers, thrd, schedule, split_factor, pool, start_method
    )
    star, pair, tri = run_batches(
        graph, delta, batches, workers,
        star_pair=star_pair, triangle=triangle, backend=backend,
        pool=pool, deadline=deadline,
    )
    result = MotifCounts.from_counters(
        star, pair, tri, algorithm=f"hare[{workers}]", delta=delta,
        meta={
            "workers": workers,
            "schedule": schedule,
            "backend": backend,
            # The same decision run_batches routed on.
            "runtime": resolved_runtime(pool, workers, has_work=bool(batches)),
        },
    )
    return result.masked(categories)


def hare_count_request(request: "CountRequest") -> MotifCounts:
    """Registry adapter entry: run HARE from a resolved CountRequest."""
    backend = request.backend if request.backend in ("python", "columnar") else "python"
    return hare_count(
        request.graph,
        request.delta,
        workers=request.workers,
        thrd=request.thrd,
        schedule=request.schedule,
        categories=request.categories,
        backend=backend,
        pool=request.pool,
        start_method=request.start_method,
        deadline=request.deadline,
    )


def hare_star_pair(
    graph: TemporalGraph,
    delta: float,
    *,
    workers: int = 2,
    thrd: Optional[float] = None,
    schedule: str = "dynamic",
    split_factor: int = 4,
    backend: str = "python",
    pool: Optional["WorkerPool"] = None,
    start_method: Optional[str] = None,
) -> Tuple[StarCounter, PairCounter]:
    """Parallel FAST-Star pass (the paper's HARE-Pair workload)."""
    pool, batches = _prepare_batches(
        graph, workers, thrd, schedule, split_factor, pool, start_method
    )
    star, pair, _ = run_batches(
        graph, delta, batches, workers,
        star_pair=True, triangle=False, backend=backend,
        pool=pool,
    )
    assert star is not None and pair is not None
    return star, pair


def hare_triangle(
    graph: TemporalGraph,
    delta: float,
    *,
    workers: int = 2,
    thrd: Optional[float] = None,
    schedule: str = "dynamic",
    split_factor: int = 4,
    backend: str = "python",
    pool: Optional["WorkerPool"] = None,
    start_method: Optional[str] = None,
) -> TriangleCounter:
    """Parallel FAST-Tri pass."""
    pool, batches = _prepare_batches(
        graph, workers, thrd, schedule, split_factor, pool, start_method
    )
    _, _, tri = run_batches(
        graph, delta, batches, workers,
        star_pair=False, triangle=True, backend=backend,
        pool=pool,
    )
    assert tri is not None
    return tri
