"""Execution of HARE work batches on the persistent worker pool.

The paper's HARE framework runs "OpenMP threads over one shared graph"
(§IV-C).  Its one process runtime here is the persistent
shared-memory pool (:class:`repro.parallel.pool.WorkerPool`):
long-lived workers attach the graph's arrays from
:mod:`multiprocessing.shared_memory` once and then run batches as a
map job (:func:`pool_map_tasks`), so the startup cost is paid once per
graph instead of once per request.  Each batch returns raw cell lists
and :func:`reduce_results` sums them in batch order — the paper's
``reduction`` step ("each thread keeps the backup of these variables,
and then reduce and output the final result"), shared by the serial
and pool paths and exact at any magnitude.

Routing is decided once, by :func:`runtime_pool`: an explicit
``pool=`` wins; otherwise ``workers > 1`` runs on the process-wide
:func:`~repro.parallel.pool.shared_pool`.  How a pool starts its
workers is no per-call choice: :func:`resolve_start_method` takes the
``WorkerPool`` constructor's argument, then the ``REPRO_START_METHOD``
environment variable, then the platform default.  :func:`run_batches`
then runs on the pool it is handed, or serially in-process when it
gets none.  Results are bit-identical either way.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.core.columnar_kernels import count_star_pair_columnar, count_triangle_columnar
from repro.core.counters import PairCounter, StarCounter, TriangleCounter
from repro.errors import DeadlineExceededError, ValidationError, check_delta
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.scheduler import WorkBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.pool import WorkerPool

#: What one batch returns: raw counter cell lists (cheap to pickle).
_WorkerResult = Tuple[Optional[List[int]], Optional[List[int]], Optional[List[int]]]

#: Environment override for the pool's start method ("fork"/"spawn");
#: CI runs the suite under both.
START_METHOD_ENV = "REPRO_START_METHOD"


def execute_tasks(
    graph: TemporalGraph,
    delta: float,
    tasks: Iterable,
    *,
    star_pair: bool = True,
    triangle: bool = True,
) -> _WorkerResult:
    """Run one batch's tasks against a graph; return raw cell lists.

    The single kernel-dispatch point shared by the serial path and the
    pool workers: the vectorized columnar kernels over the (local or
    attached) columnar arrays.  The python task loops
    (:func:`~repro.core.fast_star.count_star_pair_tasks`,
    :func:`~repro.core.fast_tri.count_triangle_tasks`) are their test
    references.
    """
    star_data = pair_data = tri_data = None
    if star_pair:
        star_arr, pair_arr = count_star_pair_columnar(graph, delta, tasks)
        star_data, pair_data = star_arr.tolist(), pair_arr.tolist()
    if triangle:
        tri_data = count_triangle_columnar(graph, delta, tasks).tolist()
    return (star_data, pair_data, tri_data)


def pool_map_tasks(graph: TemporalGraph, delta: float, args: Tuple, tasks) -> _WorkerResult:
    """:class:`~repro.parallel.pool.WorkerPool` map function (``"hare_tasks"``).

    Runs one HARE batch against the worker's attached zero-copy graph;
    ``args`` is ``(star_pair, triangle)``.
    """
    star_pair, triangle = args
    return execute_tasks(graph, delta, tasks, star_pair=star_pair, triangle=triangle)


def reduce_results(
    results: Iterable[_WorkerResult], star_pair: bool, triangle: bool
) -> Tuple[Optional[StarCounter], Optional[PairCounter], Optional[TriangleCounter]]:
    """Sum per-batch cell lists, in batch order, into the requested counters.

    The one HARE reducer of the serial and pool paths; the counters'
    Python-int ``merge`` keeps it exact at any magnitude.
    """
    star = StarCounter() if star_pair else None
    pair = PairCounter() if star_pair else None
    tri = TriangleCounter(multiplicity=3) if triangle else None
    for star_data, pair_data, tri_data in results:
        if star is not None:
            star.merge(StarCounter(star_data))
        if pair is not None:
            pair.merge(PairCounter(pair_data))
        if tri is not None:
            tri.merge(TriangleCounter(tri_data))
    return star, pair, tri


def resolve_start_method(start_method: Optional[str] = None) -> str:
    """Concrete start method: pool argument, then env, then platform.

    ``"fork"`` where available (POSIX), ``"spawn"`` otherwise.  An
    explicit/env request for an unsupported method raises
    :class:`~repro.errors.ValidationError`.
    """
    method = start_method or os.environ.get(START_METHOD_ENV) or None
    available = mp.get_all_start_methods()
    if method is None:
        return "fork" if "fork" in available else "spawn"
    if method not in available:
        raise ValidationError(
            f"start method {method!r} is not available here (choose from {available})"
        )
    return method


def runtime_pool(pool: Optional["WorkerPool"], workers: int) -> Optional["WorkerPool"]:
    """The pool a call runs on: ``pool``, else the shared pool, else ``None``.

    ``workers > 1`` without an explicit pool gets the process-wide
    :func:`~repro.parallel.pool.shared_pool`; a single worker without a
    pool runs serially (``None``).
    The one routing decision shared by HARE (batch and stream), EX and
    BTS.
    """
    if pool is not None or workers == 1:
        return pool
    from repro.parallel.pool import shared_pool

    return shared_pool(workers)


def run_batches(
    graph: TemporalGraph,
    delta: float,
    batches: List[WorkBatch],
    *,
    pool: Optional["WorkerPool"] = None,
    star_pair: bool = True,
    triangle: bool = True,
    deadline: Optional[float] = None,
) -> Tuple[Optional[StarCounter], Optional[PairCounter], Optional[TriangleCounter]]:
    """Execute work batches and reduce their counters.

    Runs on ``pool`` (see :func:`runtime_pool`) as one pool job, or
    serially in-process when ``pool`` is ``None``.  The static/dynamic
    choice lives in the plan
    (:func:`~repro.parallel.scheduler.partition_static`); pool workers
    pull whatever batches they are given as they finish.  ``deadline``
    (a :func:`time.monotonic` instant) bounds the call: an
    expired-on-entry request raises
    :class:`~repro.errors.DeadlineExceededError`, and a pool job is
    also cancelled mid-flight.  Results are bit-identical across
    runtimes.
    """
    check_delta(delta)
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExceededError("run_batches deadline expired before execution")
    if pool is not None:
        return pool.run_batches(
            graph, delta, batches, star_pair=star_pair, triangle=triangle,
            deadline=deadline,
        )
    return reduce_results(
        (
            execute_tasks(graph, delta, batch.tasks, star_pair=star_pair, triangle=triangle)
            for batch in batches
        ),
        star_pair, triangle,
    )
