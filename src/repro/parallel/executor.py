"""Process-pool execution of HARE work batches.

Two parallel runtimes implement the paper's "OpenMP threads over one
shared graph" model:

* **fork-per-call** (the historical path): workers are forked so they
  share the parent's graph (and its pair index / columnar store)
  copy-on-write.  Cheap on POSIX, impossible on spawn-only platforms.
* **persistent shared-memory pool**
  (:class:`repro.parallel.pool.WorkerPool`): long-lived workers attach
  the graph's arrays from :mod:`multiprocessing.shared_memory` once
  and then execute batches by id — spawn-safe, and the startup cost is
  paid once per graph instead of once per request.

Either way each worker accumulates into private counters and the
parent merges them afterwards — exactly the OpenMP ``reduction``
clause the paper relies on for intra-node parallelism ("each thread
keeps the backup of these variables, and then reduce and output the
final result").

Routing: an explicit ``pool=`` wins; otherwise the start method
(explicit argument, then the ``REPRO_START_METHOD`` environment
variable, then the platform default) decides — ``fork`` runs the
copy-on-write path, anything else goes through a process-wide shared
:class:`~repro.parallel.pool.WorkerPool` so spawn platforms get real
parallelism instead of the historical silent serial fallback.  If the
platform cannot fork (or a single worker is requested) with no pool
available, the batches run serially in-process, preserving results
exactly.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.core.counters import PairCounter, StarCounter, TriangleCounter
from repro.core.fast_star import count_star_pair_tasks
from repro.core.fast_tri import count_triangle_tasks
from repro.errors import DeadlineExceededError, ParallelExecutionError, ValidationError
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.scheduler import WorkBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.pool import WorkerPool

#: What a worker returns: raw counter cell lists (cheap to pickle).
_WorkerResult = Tuple[Optional[List[int]], Optional[List[int]], Optional[List[int]]]

#: Environment override for the parallel start method ("fork"/"spawn");
#: CI runs the suite under both to keep the spawn path honest.
START_METHOD_ENV = "REPRO_START_METHOD"

#: A forked worker's ``(graph, delta, star_pair, triangle, backend)``.
#: Set only inside fork-per-call children, by :func:`_init_forked`;
#: the parent hands the arguments over as pool ``initargs``, which
#: fork inherits without pickling, so concurrent calls on different
#: graphs cannot see each other's arguments.
_FORKED_CALL: Optional[tuple] = None


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

    The single kernel-dispatch point shared by every runtime: the
    serial path, forked workers (via their pool initializer) and the
    shared-memory pool workers all call this.  Raw cell lists keep the
    IPC payload identical across backends.
    """
    star_data = pair_data = tri_data = None
    if backend == "columnar":
        # Vectorized kernels over the (forked or attached) columnar
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


def _init_forked(
    graph: TemporalGraph, delta: float, star_pair: bool, triangle: bool, backend: str
) -> None:
    global _FORKED_CALL
    _FORKED_CALL = (graph, delta, star_pair, triangle, backend)


def _run_batch(batch: WorkBatch) -> _WorkerResult:
    assert _FORKED_CALL is not None
    graph, delta, star_pair, triangle, backend = _FORKED_CALL
    return execute_tasks(
        graph, delta, batch.tasks,
        star_pair=star_pair, triangle=triangle, backend=backend,
    )


def _check_deadline(deadline: Optional[float]) -> None:
    """Refuse to start work whose deadline has already passed.

    The pool runtimes additionally abort *in-flight* result collection
    (see :meth:`repro.parallel.pool.WorkerPool.run_batches`); the
    serial and fork-per-call paths only gate at entry — once a fork
    pool is up, it runs to completion.
    """
    if deadline is not None and time.monotonic() >= deadline:
        raise DeadlineExceededError("run_batches deadline expired before execution")


def _fork_context() -> Optional[mp.context.BaseContext]:
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


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


def resolved_runtime(
    pool=None,
    workers: int = 1,
    start_method: Optional[str] = None,
    has_work: bool = True,
) -> str:
    """Which runtime :func:`run_batches` will execute on.

    One of ``"pool"`` (explicit persistent pool), ``"serial"``
    (in-process), ``"fork-per-call"`` (the transient fork pool) or
    ``"shared-pool"`` (the process-wide pool that serves non-fork
    start methods).  The single decision point — callers that label
    results (``hare_count``'s ``meta["runtime"]``) ask here instead of
    re-deriving it, so provenance can never drift from routing.
    """
    if not has_work:
        return "serial"
    if pool is not None:
        return "pool"
    if workers == 1:
        return "serial"
    if resolve_start_method(start_method) == "fork" and _fork_context() is not None:
        return "fork-per-call"
    return "shared-pool"


def run_batches(
    graph: TemporalGraph,
    delta: float,
    batches: List[WorkBatch],
    workers: int,
    schedule: str = "dynamic",
    star_pair: bool = True,
    triangle: bool = True,
    backend: str = "python",
    pool: Optional["WorkerPool"] = None,
    start_method: Optional[str] = None,
    deadline: Optional[float] = None,
) -> Tuple[Optional[StarCounter], Optional[PairCounter], Optional[TriangleCounter]]:
    """Execute work batches and reduce the per-worker counters.

    ``schedule`` is ``"dynamic"`` (workers pull batches as they
    finish) or ``"static"`` (batches must already be pre-assigned via
    :func:`~repro.parallel.scheduler.partition_static`; they are
    mapped one-to-one onto workers).  ``backend`` selects the kernels
    workers run (``"python"`` loops or ``"columnar"`` vectorized).
    ``pool`` routes execution to a persistent
    :class:`~repro.parallel.pool.WorkerPool`; without one,
    ``start_method`` (or ``REPRO_START_METHOD``) picks between the
    fork copy-on-write path and a process-wide shared pool (see the
    module docstring).  ``deadline`` (a :func:`time.monotonic`
    instant) bounds the call: expired-on-entry requests raise
    :class:`~repro.errors.DeadlineExceededError` on every runtime, and
    the pool runtimes also cancel mid-flight.  Results are
    bit-identical across every runtime.
    """
    if schedule not in ("dynamic", "static"):
        raise ValidationError(f"schedule must be 'dynamic' or 'static', got {schedule!r}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    if backend not in ("python", "columnar"):
        raise ValidationError(
            f"backend must be 'python' or 'columnar', got {backend!r}"
        )

    _check_deadline(deadline)
    runtime = resolved_runtime(pool, workers, start_method, has_work=bool(batches))
    # Both pool runtimes dispatch before any local preparation: their
    # workers attach shared-memory arrays and build (or install) their
    # own derived views, so owner-side prep would be pure waste.  An
    # explicit pool always wins — even for workers == 1, so a
    # single-worker pool measures/exercises the full resident runtime
    # rather than silently collapsing to in-process execution.
    if runtime == "pool":
        assert pool is not None
        return pool.run_batches(
            graph, delta, batches, star_pair=star_pair, triangle=triangle,
            backend=backend, deadline=deadline,
        )
    if runtime == "shared-pool":
        # Spawn (or other non-fork) start method: the copy-on-write
        # trick cannot work, so route through the process-wide shared
        # pool — real parallelism where the old path silently degraded
        # to serial.
        from repro.parallel.pool import shared_pool

        return shared_pool(
            workers, start_method=resolve_start_method(start_method)
        ).run_batches(
            graph, delta, batches, star_pair=star_pair, triangle=triangle,
            backend=backend, deadline=deadline,
        )

    if backend == "columnar":
        from repro.core.columnar_kernels import warm_delta_cache

        # Build the store AND the per-δ kernel tables before forking:
        # every worker then reads them copy-on-write instead of
        # repeating the O(m log m) setup per batch.
        warm_delta_cache(
            graph.columnar(), delta, star_pair=star_pair, triangle=triangle
        )
    else:
        # Python kernels read the lazily-built sequence views (and the
        # pair index for triangles); force them pre-fork so children
        # inherit one copy instead of each rebuilding their own.
        graph.sequences()
        if triangle:
            graph.ensure_pair_index()

    star = StarCounter() if star_pair else None
    pair = PairCounter() if star_pair else None
    tri = TriangleCounter(multiplicity=3) if triangle else None

    def reduce_result(result: _WorkerResult) -> None:
        star_data, pair_data, tri_data = result
        if star is not None and star_data is not None:
            star.merge(StarCounter(star_data))
        if pair is not None and pair_data is not None:
            pair.merge(PairCounter(pair_data))
        if tri is not None and tri_data is not None:
            tri.merge(TriangleCounter(tri_data))

    if runtime == "serial":
        for batch in batches:
            reduce_result(execute_tasks(
                graph, delta, batch.tasks,
                star_pair=star_pair, triangle=triangle, backend=backend,
            ))
        return star, pair, tri

    ctx = _fork_context()
    assert runtime == "fork-per-call" and ctx is not None
    try:
        with ctx.Pool(
            processes=workers,
            initializer=_init_forked,
            initargs=(graph, delta, star_pair, triangle, backend),
        ) as proc_pool:
            if schedule == "dynamic":
                results: Iterable[_WorkerResult] = proc_pool.imap_unordered(
                    _run_batch, batches, chunksize=1
                )
            else:
                results = proc_pool.map(_run_batch, batches)
            for result in results:
                reduce_result(result)
    except ParallelExecutionError:
        raise
    except Exception as exc:  # pragma: no cover - worker crash path
        raise ParallelExecutionError(f"HARE worker failed: {exc}") from exc
    return star, pair, tri
