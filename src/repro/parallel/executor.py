"""Execution of HARE work batches on the persistent worker pool.

The paper's HARE framework runs "OpenMP threads over one shared graph"
(§IV-C).  Its one process runtime here is the persistent
shared-memory pool (:class:`repro.parallel.pool.WorkerPool`):
long-lived workers attach the graph's arrays from
:mod:`multiprocessing.shared_memory` once and then execute batches by
id, so the startup cost is paid once per graph instead of once per
request.  Each worker accumulates into private counters and the owner
merges them afterwards — exactly the OpenMP ``reduction`` clause the
paper relies on for intra-node parallelism ("each thread keeps the
backup of these variables, and then reduce and output the final
result").

Routing: an explicit ``pool=`` wins; otherwise ``workers > 1`` runs on
the process-wide :func:`~repro.parallel.pool.shared_pool` for the
resolved start method (explicit argument, then the
``REPRO_START_METHOD`` environment variable, then the platform
default), which only decides how that pool starts its workers.  A
single worker without a pool (or an empty task cover) runs the
batches serially in-process.  Results are bit-identical either way.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.core.counters import PairCounter, StarCounter, TriangleCounter
from repro.core.fast_star import count_star_pair_tasks
from repro.core.fast_tri import count_triangle_tasks
from repro.errors import DeadlineExceededError, ValidationError
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.scheduler import WorkBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.pool import WorkerPool

#: What a worker returns: raw counter cell lists (cheap to pickle).
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
    backend: str = "python",
) -> _WorkerResult:
    """Run one batch's tasks against a graph; return raw cell lists.

    The single kernel-dispatch point shared by the serial path and the
    pool workers.  Raw cell lists keep the IPC payload identical
    across backends.
    """
    star_data = pair_data = tri_data = None
    if backend == "columnar":
        # Vectorized kernels over the (local or attached) columnar
        # arrays.
        from repro.core.columnar_kernels import (
            count_star_pair_columnar,
            count_triangle_columnar,
        )

        if star_pair:
            star_arr, pair_arr = count_star_pair_columnar(graph, delta, tasks)
            star_data, pair_data = star_arr.tolist(), pair_arr.tolist()
        if triangle:
            tri_data = count_triangle_columnar(graph, delta, tasks).tolist()
        return (star_data, pair_data, tri_data)
    if star_pair:
        star, pair = count_star_pair_tasks(graph, delta, tasks)
        star_data, pair_data = star.data, pair.data
    if triangle:
        tri = count_triangle_tasks(graph, delta, tasks)
        tri_data = tri.data
    return (star_data, pair_data, tri_data)


def resolve_start_method(start_method: Optional[str] = None) -> str:
    """Concrete start method: explicit arg, then env, then platform.

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


def runtime_pool(
    pool: Optional["WorkerPool"], workers: int, start_method: Optional[str] = None
) -> Optional["WorkerPool"]:
    """The pool a call runs on: ``pool``, else the shared pool, else ``None``.

    ``workers > 1`` without an explicit pool gets the process-wide
    :func:`~repro.parallel.pool.shared_pool` for the resolved start
    method; a single worker without a pool runs serially (``None``).
    The one routing decision shared by HARE, EX and BTS.
    """
    if pool is not None or workers == 1:
        return pool
    from repro.parallel.pool import shared_pool

    return shared_pool(workers, start_method)


def resolved_runtime(pool=None, workers: int = 1, has_work: bool = True) -> str:
    """Which runtime :func:`run_batches` executes on: ``"pool"`` or ``"serial"``.

    ``"pool"`` for an explicit pool or ``workers > 1`` (the shared
    pool), ``"serial"`` otherwise or when there is no work.  Callers
    that label results (``hare_count``'s ``meta["runtime"]``) ask here
    instead of re-deriving it, so provenance can never drift from
    routing.
    """
    return "pool" if has_work and (pool is not None or workers > 1) else "serial"


def run_batches(
    graph: TemporalGraph,
    delta: float,
    batches: List[WorkBatch],
    workers: int,
    star_pair: bool = True,
    triangle: bool = True,
    backend: str = "python",
    pool: Optional["WorkerPool"] = None,
    start_method: Optional[str] = None,
    deadline: Optional[float] = None,
) -> Tuple[Optional[StarCounter], Optional[PairCounter], Optional[TriangleCounter]]:
    """Execute work batches and reduce the per-worker counters.

    The static/dynamic choice lives in the plan
    (:func:`~repro.parallel.scheduler.partition_static`); pool workers
    pull whatever batches they are given as they finish.  ``backend``
    selects the kernels (``"python"`` loops or ``"columnar"``
    vectorized).  ``pool`` and ``start_method`` route as in the module
    docstring.  ``deadline`` (a :func:`time.monotonic` instant) bounds
    the call: an expired-on-entry request raises
    :class:`~repro.errors.DeadlineExceededError`, and a pool job is
    also cancelled mid-flight.  Results are bit-identical across
    runtimes.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    if backend not in ("python", "columnar"):
        raise ValidationError(
            f"backend must be 'python' or 'columnar', got {backend!r}"
        )
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExceededError("run_batches deadline expired before execution")

    if resolved_runtime(pool, workers, has_work=bool(batches)) == "pool":
        # An explicit pool always wins — even for workers == 1, so a
        # single-worker pool exercises the full resident runtime rather
        # than silently collapsing to in-process execution.
        return runtime_pool(pool, workers, start_method).run_batches(
            graph, delta, batches, star_pair=star_pair, triangle=triangle,
            backend=backend, deadline=deadline,
        )

    star = StarCounter() if star_pair else None
    pair = PairCounter() if star_pair else None
    tri = TriangleCounter(multiplicity=3) if triangle else None
    for batch in batches:
        star_data, pair_data, tri_data = execute_tasks(
            graph, delta, batch.tasks,
            star_pair=star_pair, triangle=triangle, backend=backend,
        )
        if star is not None:
            star.merge(StarCounter(star_data))
        if pair is not None:
            pair.merge(PairCounter(pair_data))
        if tri is not None:
            tri.merge(TriangleCounter(tri_data))
    return star, pair, tri
