"""The persistent, shared-memory worker pool: the one process runtime.

Every parallel count runs here — HARE batches, EX time slabs and BTS
block chunks.  :class:`WorkerPool` is the Python analogue of the
paper's long-lived OpenMP thread team reading one shared graph
(§IV-C); callers either pass one explicitly or get the process-wide
:func:`shared_pool` for their worker count and start method:

* **Workers are long-lived processes** (fork- and spawn-safe), started
  once and fed chunks of one job kind, a registered map function
  (:data:`MAP_FUNCTIONS`), through one shared queue — pulling the next
  chunk as they finish is the dynamic work-stealing schedule.  A HARE
  :class:`~repro.parallel.scheduler.WorkBatch` is one chunk of the
  ``"hare_tasks"`` function.
* **Graphs are published once** into
  :mod:`multiprocessing.shared_memory`
  (:func:`repro.graph.shared.publish_graph`) and attached zero-copy by
  every worker; repeated requests against the same graph pay no
  per-request pickling, forking, or columnar rebuild.  Only the graph
  travels: each worker builds the per-δ kernel tables it needs lazily
  in its attached graph's ``delta_cache``, exactly as a serial count
  does, and keeps them while the δ stays the same.
* **Reduction is owner-side and canonical**: every chunk ships its
  payload back and the owner reduces them in chunk order
  (:func:`repro.parallel.executor.reduce_results` for HARE), exactly
  as the serial path does.  A HARE job has only a few batches per
  worker, so one message per batch costs little.
* **Plans and results are cached**: the HARE batch decomposition is
  memoized per (graph, workers, thrd, schedule), and — because counts
  are a pure function of the immutable, version-stamped graph —
  identical repeated requests are answered from a small LRU of raw
  counters without touching the workers at all.  Both caches are keyed
  through :attr:`TemporalGraph.version
  <repro.graph.temporal_graph.TemporalGraph.version>`, so sanctioned
  in-place mutation republishes instead of serving stale counts.
  Pass ``result_cache=False`` (or ``reuse=False`` per call) to force
  kernel execution, e.g. when benchmarking or conformance-testing the
  execution paths themselves.

Lifecycle: create → (:meth:`WorkerPool.publish` |
:meth:`WorkerPool.run_batches`)* → :meth:`WorkerPool.close`.  The pool
is also a context manager, and a garbage-collected pool shuts its
workers down and unlinks every segment it published — but explicit
``close()`` is kinder to ``/dev/shm``.  :func:`shared_pool` hands out
process-wide pools keyed by (start method, worker count) so repeated
API calls amortize startup without coordinating pool objects.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import queue
import threading
import time
import traceback
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import multiprocessing as mp

from repro.core.counters import PairCounter, StarCounter, TriangleCounter
from repro.errors import (
    DeadlineExceededError,
    ParallelExecutionError,
    ValidationError,
    check_delta,
)
from repro.graph.shared import AttachedGraph, SharedGraph, attach_graph, publish_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.scheduler import WorkBatch

#: Worker-side cap on concurrently attached graphs (LRU evicted).
WORKER_GRAPH_CACHE = 4

#: Owner-side cap on auto-published (unpinned) graphs kept resident.
AUTO_GRAPH_CACHE = 4

#: Entries kept in the repeated-request raw-counter cache.
RESULT_CACHE = 32

#: Seconds between liveness checks while the owner waits on results.
_POLL_SECONDS = 1.0

#: Slots in the shared aborted-job ring: workers skip queued tasks of
#: the last this-many cancelled jobs (deadline aborts), so cancelled
#: work stops consuming workers instead of running to completion with
#: its results discarded.
_ABORT_RING = 16

#: Map functions runnable on pool workers via :meth:`WorkerPool.run_map`
#: (name -> "module:attr", resolved worker-side by import so spawn
#: workers never need the function object pickled).  Every parallel
#: algorithm registers its per-chunk evaluator here: HARE batches, BTS
#: block chunks and EX time slabs.
MAP_FUNCTIONS: Dict[str, str] = {
    "hare_tasks": "repro.parallel.executor:pool_map_tasks",
    "bts_blocks": "repro.baselines.sampling_bts:pool_map_block_grids",
    "ex_slabs": "repro.baselines.exact_ex:pool_map_slab",
}


def _resolve_map_fn(name: str):
    """Import the worker-side callable behind a registered map name."""
    import importlib

    module_name, attr = MAP_FUNCTIONS[name].split(":")
    return getattr(importlib.import_module(module_name), attr)


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------

def _job_aborted(aborted, job_id: int) -> bool:
    """Whether the owner cancelled ``job_id`` (shared abort ring)."""
    if aborted is None:
        return False
    with aborted.get_lock():
        return job_id in list(aborted)


def _worker_main(
    task_q, result_q, aborted=None, graph_cache_limit: int = WORKER_GRAPH_CACHE
) -> None:
    """Worker loop: attach graphs by manifest, run map chunks.

    Top-level (spawn-picklable).  Protocol: ``("map", job_id, gid,
    graph_blob, delta, fn, args_blob, index, chunk)`` messages (the
    graph manifest ships pre-pickled, decoded only on a cache miss)
    plus ``("stop",)`` sentinels on ``task_q``; ``("ok", job_id,
    index, payload)`` and ``("err", job_id, text)`` on ``result_q``,
    one reply per chunk.  ``aborted`` is the shared cancelled-job ring:
    queued chunks of an aborted job are skipped, not executed (the
    owner stopped listening).
    """
    graphs: "OrderedDict[int, AttachedGraph]" = OrderedDict()

    def lookup(gid: int, graph_blob: bytes) -> TemporalGraph:
        entry = graphs.get(gid)
        if entry is None:
            entry = attach_graph(pickle.loads(graph_blob))
            graphs[gid] = entry
            while len(graphs) > graph_cache_limit:
                graphs.popitem(last=False)[1].close()
        else:
            graphs.move_to_end(gid)
        return entry.graph

    while True:
        message = task_q.get()
        if message[0] == "stop":
            break
        (_, job_id, gid, graph_blob, delta, fn, args_blob, index, chunk) = message
        if _job_aborted(aborted, job_id):
            continue
        try:
            payload = _resolve_map_fn(fn)(
                lookup(gid, graph_blob), delta, pickle.loads(args_blob), chunk
            )
        except BaseException:
            result_q.put(("err", job_id, traceback.format_exc()))
            continue
        result_q.put(("ok", job_id, index, payload))

    for entry in graphs.values():
        entry.close()


# ----------------------------------------------------------------------
# owner-side bookkeeping
# ----------------------------------------------------------------------

@dataclass
class _GraphState:
    """Owner record of one known graph (published or not).

    Keyed by ``id(graph)`` with a weak reference for liveness: object
    identity is the lookup (never ``TemporalGraph.__eq__``, which is
    O(m)), the weakref guards against id reuse after collection, and
    the version stamp guards against sanctioned in-place mutation.
    Segments are published lazily (``gid``/``handle`` are ``None``
    until the first worker run needs them) and a graph's plan cache
    survives republication.
    """

    ref: "weakref.ref[TemporalGraph]"
    version: int
    pinned: bool = False
    gid: Optional[int] = None
    handle: Optional[SharedGraph] = None
    manifest_blob: Optional[bytes] = None
    #: (workers, thrd, schedule) -> List[WorkBatch]
    plans: Dict[Tuple, List[WorkBatch]] = field(default_factory=dict)

    def release_segments(self) -> None:
        if self.handle is not None:
            self.handle.close()
        self.handle = None
        self.manifest_blob = None
        self.gid = None


#: Every live pool, weakly held: :func:`close_all_pools` (and the
#: installed signal handlers) walk it so a daemon dying on SIGTERM
#: unlinks its shm segments instead of leaking them until the resource
#: tracker's at-exit sweep (which a signal death skips entirely).
_LIVE_POOLS: "weakref.WeakSet" = weakref.WeakSet()


def _idle_reaper(pool_ref, idle_timeout: float) -> None:
    """Daemon loop behind ``WorkerPool(idle_timeout=...)``.

    Holds only a weak reference between ticks so the reaper never keeps
    its pool alive, and only ever *tries* the pool lock — a held lock
    means a job is in flight, which itself refreshes the activity
    stamp.  Exits when the pool is collected or closed.
    """
    interval = min(1.0, max(0.05, idle_timeout / 4.0))
    while True:
        time.sleep(interval)
        pool = pool_ref()
        if pool is None or pool._closed:
            return
        lock = pool._lock
        if lock.acquire(blocking=False):
            try:
                if (
                    not pool._suspended
                    and pool._procs
                    and time.monotonic() - pool._last_active >= idle_timeout
                ):
                    pool._suspend_workers()
            finally:
                lock.release()
        del pool


def _shutdown(procs, task_q, states: Dict[int, _GraphState]) -> None:
    """Finalizer body: stop workers, then unlink every published segment."""
    for _ in procs:
        try:
            task_q.put(("stop",))
        except Exception:  # pragma: no cover - queue already torn down
            break
    for proc in procs:
        proc.join(timeout=5)
    for proc in procs:
        if proc.is_alive():  # pragma: no cover - hung worker
            proc.terminate()
            proc.join(timeout=1)
    for state in list(states.values()):
        state.release_segments()
    states.clear()


class WorkerPool:
    """A long-lived team of counting workers over shared-memory graphs.

    Parameters
    ----------
    workers:
        Number of worker processes (fixed for the pool's lifetime).
    start_method:
        ``"fork"``/``"spawn"``/``"forkserver"``; default per
        :func:`repro.parallel.executor.resolve_start_method` (the
        ``REPRO_START_METHOD`` environment variable, then the platform
        default).  Results are bit-identical across methods.
    result_cache:
        Answer identical repeated requests from the raw-counter LRU
        (see the module docstring).  ``reuse=`` on
        :meth:`run_batches` overrides per call.
    idle_timeout:
        Seconds of inactivity after which the worker processes are
        *suspended* (joined, freeing their memory and mappings) while
        published segments, plans, and the result cache stay resident.
        The next run transparently restarts workers — they are
        stateless caches; every message carries its graph manifest.  For
        long-running daemons that see bursty traffic.  ``None``
        (default) keeps workers forever.

    Use via :func:`repro.core.api.count_motifs` /
    :class:`~repro.core.registry.CountRequest` (``pool=``) or hand
    batches over directly with :meth:`run_batches`.
    """

    def __init__(
        self,
        workers: int,
        start_method: Optional[str] = None,
        *,
        result_cache: bool = True,
        idle_timeout: Optional[float] = None,
    ) -> None:
        from repro.parallel.executor import resolve_start_method

        if workers < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValidationError(
                f"idle_timeout must be positive (or None), got {idle_timeout}"
            )
        self.workers = workers
        self.start_method = resolve_start_method(start_method)
        # Start the resource tracker *before* forking workers: children
        # forked earlier would each lazily spawn their own tracker on
        # first shared-memory attach, and those trackers would then
        # complain about (and try to re-unlink) segments the owner
        # already cleaned up.  Sharing the parent's tracker makes the
        # workers' attach registrations collapse into the owner's.
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - platform-specific tracker quirks
            pass
        self._ctx = mp.get_context(self.start_method)
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        #: Shared cancelled-job ring (see :data:`_ABORT_RING`): written
        #: by the owner on deadline aborts, read by every worker before
        #: executing a queued task.
        self._aborted = self._ctx.Array("q", [-1] * _ABORT_RING)
        self._abort_slot = 0
        #: Kept the same list object for the pool's lifetime (the
        #: finalizer captured it); worker restarts mutate it in place.
        self._procs: List = []
        #: id(graph) -> _GraphState (weakref-guarded against id reuse).
        self._states: Dict[int, _GraphState] = {}
        #: unpinned published keys, LRU order (evicted beyond the cap).
        self._auto: "OrderedDict[int, None]" = OrderedDict()
        self._gid_counter = itertools.count()
        self._job_counter = itertools.count()
        self._result_cache_enabled = result_cache
        self._results: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        # Reentrant: the public entry points hold it across publication
        # + dispatch + collection, while helpers like plan_batches and
        # publish take it on their own for direct callers (the serve
        # daemon drives one pool from many threads).
        self._lock = threading.RLock()
        self.stats: Dict[str, int] = {
            "jobs": 0,
            "batches": 0,
            "cache_hits": 0,
            "graphs_published": 0,
            "jobs_aborted": 0,
            "worker_restarts": 0,
        }
        self._closed = False
        self._suspended = False
        self.idle_timeout = idle_timeout
        self._last_active = time.monotonic()
        self._finalizer = weakref.finalize(
            self, _shutdown, self._procs, self._task_q, self._states
        )
        self._start_workers()
        _LIVE_POOLS.add(self)
        if idle_timeout is not None:
            reaper = threading.Thread(
                target=_idle_reaper,
                args=(weakref.ref(self), idle_timeout),
                daemon=True,
                name="repro-pool-idle-reaper",
            )
            reaper.start()

    def _start_workers(self) -> None:
        """(Re)start the worker team; mutates ``_procs`` in place."""
        self._procs[:] = [
            self._ctx.Process(
                target=_worker_main,
                args=(self._task_q, self._result_q, self._aborted),
                daemon=True,
                name=f"repro-pool-{i}",
            )
            for i in range(self.workers)
        ]
        for proc in self._procs:
            proc.start()
        self._suspended = False

    def _ensure_workers(self) -> None:
        """Revive a suspended worker team (idle-timeout wake-up)."""
        if self._closed:
            raise ParallelExecutionError("worker pool is closed")
        if self._suspended or not self._procs:
            self._start_workers()
            self.stats["worker_restarts"] += 1

    def _suspend_workers(self) -> None:
        """Join the workers, keeping segments/plans/caches resident.

        Called with the lock held (so no job is in flight).  The
        workers drain any leftover queue content before seeing their
        stop sentinels; owner-side state is untouched, so the next run
        restarts them against the same published segments.
        """
        if self._closed or self._suspended or not self._procs:
            return
        for _ in self._procs:
            self._task_q.put(("stop",))
        for proc in self._procs:
            proc.join(timeout=10)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=1)
        self._procs[:] = []
        self._suspended = True

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and unlink every published segment.

        Idempotent; the pool is unusable afterwards.
        """
        self._closed = True
        self._finalizer()

    @property
    def closed(self) -> bool:
        """Explicitly closed, or a worker died (crash detection).

        A pool suspended by its idle timeout is *not* closed — the
        next run revives its workers.
        """
        if self._closed:
            return True
        if self._suspended:
            return False
        return not all(p.is_alive() for p in self._procs)

    @property
    def suspended(self) -> bool:
        """Whether the idle timeout has parked the worker team."""
        return self._suspended

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "closed" if self.closed else "live"
        return (
            f"WorkerPool(workers={self.workers}, start_method={self.start_method!r}, "
            f"graphs={len(self._states)}, {status})"
        )

    # -- graph bookkeeping ---------------------------------------------
    def _state(self, graph: TemporalGraph) -> _GraphState:
        """The (possibly fresh) state record for a graph object.

        Lookup is by object identity — O(1), never the O(m)
        ``TemporalGraph.__eq__`` — with a weakref guarding against id
        reuse and the version stamp guarding against sanctioned
        in-place mutation (either invalidates segments, plans, and the
        result cache entries hanging off the old generation).
        """
        key = id(graph)
        state = self._states.get(key)
        if state is not None:
            if state.ref() is graph and state.version == graph.version:
                return state
            state.release_segments()
            self._auto.pop(key, None)
            del self._states[key]
        state = _GraphState(
            ref=weakref.ref(graph, self._make_reaper(key)),
            version=graph.version,
        )
        self._states[key] = state
        return state

    def _make_reaper(self, key: int):
        """Weakref callback: drop a dead graph's state and segments."""
        pool_ref = weakref.ref(self)

        def reap(_ref) -> None:
            pool = pool_ref()
            if pool is None:
                return
            state = pool._states.pop(key, None)
            pool._auto.pop(key, None)
            if state is not None:
                try:
                    state.release_segments()
                except Exception:  # pragma: no cover - GC-time best effort
                    pass

        return reap

    def publish(self, graph: TemporalGraph) -> int:
        """Pin a graph into the pool's shared memory; return its id.

        Pinned graphs stay resident until :meth:`release` or
        :meth:`close` — use for the long-lived graph a service keeps
        answering queries about.  :meth:`run_batches` auto-publishes
        unpinned graphs through a small LRU, which suits one-off and
        streaming-slice graphs.
        """
        with self._lock:
            state = self._ensure_published(graph)
            state.pinned = True
            self._auto.pop(id(graph), None)
            assert state.gid is not None
            return state.gid

    def release(self, graph: TemporalGraph) -> None:
        """Drop a graph's published segments and cached state."""
        with self._lock:
            key = id(graph)
            state = self._states.pop(key, None)
            self._auto.pop(key, None)
            if state is not None:
                state.release_segments()

    def _ensure_published(self, graph: TemporalGraph) -> _GraphState:
        state = self._state(graph)
        if state.handle is None:
            handle = publish_graph(graph)
            state.gid = next(self._gid_counter)
            state.handle = handle
            state.manifest_blob = pickle.dumps(handle.manifest)
            self.stats["graphs_published"] += 1
        key = id(graph)
        if not state.pinned:
            self._auto[key] = None
            self._auto.move_to_end(key)
            while len(self._auto) > AUTO_GRAPH_CACHE:
                evicted, _ = self._auto.popitem(last=False)
                evicted_state = self._states.get(evicted)
                if evicted_state is not None:
                    evicted_state.release_segments()
        return state

    # -- planning -------------------------------------------------------
    def plan_batches(
        self,
        graph: TemporalGraph,
        workers: Optional[int] = None,
        thrd: Optional[float] = None,
        schedule: str = "dynamic",
    ) -> List[WorkBatch]:
        """The HARE work decomposition, memoized per graph.

        Identical inputs return the cached plan, so repeated requests
        skip the per-call :func:`~repro.parallel.scheduler.build_batches`
        pass.  Invalidated with the graph's version like everything
        else; needs no shared memory, so planning never publishes.
        """
        from repro.parallel.scheduler import build_batches, partition_static

        workers = self.workers if workers is None else workers
        with self._lock:
            state = self._state(graph)
            key = (workers, thrd, schedule)
            plan = state.plans.get(key)
            if plan is None:
                plan = build_batches(graph, workers, thrd=thrd)
                if schedule == "static":
                    plan = partition_static(plan, workers)
                state.plans[key] = plan
            return plan

    # -- execution ------------------------------------------------------
    def run_batches(
        self,
        graph: TemporalGraph,
        delta: float,
        batches: List[WorkBatch],
        *,
        star_pair: bool = True,
        triangle: bool = True,
        reuse: Optional[bool] = None,
        deadline: Optional[float] = None,
    ) -> Tuple[Optional[StarCounter], Optional[PairCounter], Optional[TriangleCounter]]:
        """Execute batches on the resident workers; reduce the counters.

        Same contract (and bit-identical results) as
        :func:`repro.parallel.executor.run_batches`: returns
        ``(star, pair, tri)`` counters for the requested passes.  The
        batches run as one ``"hare_tasks"`` :meth:`run_map` job and
        their cell lists reduce through
        :func:`~repro.parallel.executor.reduce_results`, as on the
        serial path.  ``reuse`` overrides the pool-level result cache
        for this call.  ``deadline`` (a :func:`time.monotonic` instant)
        cancels the job when it expires, as in :meth:`run_map`.  Cache
        hits ignore the deadline (they are instantaneous and deadline
        never keys a cache).
        """
        from repro.parallel.executor import reduce_results

        check_delta(delta)
        if self.closed:
            raise ParallelExecutionError("worker pool is closed")
        use_cache = self._result_cache_enabled if reuse is None else reuse
        with self._lock:
            if use_cache:
                state = self._ensure_published(graph)
                cache_key = (
                    state.gid, float(delta), star_pair, triangle,
                    self._fingerprint_batches(batches),
                )
                cached = self._results.get(cache_key)
                if cached is not None:
                    self._results.move_to_end(cache_key)
                    self.stats["cache_hits"] += 1
                    return reduce_results(cached, star_pair, triangle)
            results = self.run_map(
                graph, "hare_tasks", [batch.tasks for batch in batches],
                (star_pair, triangle),
                delta=delta, deadline=deadline,
            )
            if use_cache:
                self._results[cache_key] = results
                while len(self._results) > RESULT_CACHE:
                    self._results.popitem(last=False)
        return reduce_results(results, star_pair, triangle)

    @staticmethod
    def _fingerprint_batches(batches: List[WorkBatch]) -> bytes:
        """Content digest of a batch list's task cover.

        The result cache must key on *what* is being counted: the same
        graph and δ with a different (e.g. partial) task cover is a
        different computation.  A collision-resistant digest (not
        Python's modular ``hash``) keeps "wrong cached counts" out of
        the failure space entirely; pickling + hashing the task
        tuples costs a few ms even at 10⁶-edge plan sizes, and also
        protects against callers mutating a plan list in place.
        """
        return hashlib.sha256(
            pickle.dumps([batch.tasks for batch in batches], protocol=4)
        ).digest()

    # -- generic map jobs -------------------------------------------------
    def run_map(
        self,
        graph: TemporalGraph,
        fn: str,
        chunks: List,
        args: Tuple = (),
        *,
        delta: float = 0.0,
        deadline: Optional[float] = None,
    ) -> List:
        """Run a registered map function over ``chunks`` on the workers.

        The pool's one job kind: HARE batches (via :meth:`run_batches`),
        BTS block chunks and EX time slabs all run here.  ``fn`` names
        an entry of :data:`MAP_FUNCTIONS`; each worker resolves it by
        import and calls ``fn(graph, delta, args, chunk)`` against its
        attached zero-copy graph, which always carries its columnar
        store; each worker memoizes its own per-δ tables, exactly as a
        serial count does.

        Returns the per-chunk payloads **in chunk order** — reductions
        are algorithm-specific and must stay canonical, so no merging
        happens here.  ``deadline`` (a :func:`time.monotonic` instant)
        cancels the job when it expires mid-collection: the owner stops
        waiting, the job id enters the shared abort ring so workers skip
        its queued chunks, and
        :class:`~repro.errors.DeadlineExceededError` propagates.
        """
        if fn not in MAP_FUNCTIONS:
            raise ValidationError(
                f"unknown map function {fn!r}; registered: {sorted(MAP_FUNCTIONS)}"
            )
        if self.closed:
            raise ParallelExecutionError("worker pool is closed")
        chunks = list(chunks)
        if not chunks:
            return []
        with self._lock:
            self._ensure_workers()
            self._last_active = time.monotonic()
            if deadline is not None and time.monotonic() >= deadline:
                raise DeadlineExceededError("pool map deadline expired before dispatch")
            state = self._ensure_published(graph)
            args_blob = pickle.dumps(args)
            job_id = next(self._job_counter)
            self.stats["jobs"] += 1
            self.stats["batches"] += len(chunks)
            for index, chunk in enumerate(chunks):
                self._task_q.put((
                    "map", job_id, state.gid, state.manifest_blob,
                    delta, fn, args_blob, index, chunk,
                ))
            try:
                return self._collect_results(job_id, len(chunks), deadline)
            finally:
                self._last_active = time.monotonic()

    def _abort_job(self, job_id: int) -> None:
        """Cancel a job: record it in the shared abort ring.

        Workers consult the ring before executing every queued chunk, so
        the job's remaining work is skipped rather than computed and
        discarded; replies from chunks already in flight are stale
        messages that the next collection loop filters by job id.
        """
        with self._aborted.get_lock():
            self._aborted[self._abort_slot % _ABORT_RING] = job_id
            self._abort_slot += 1
        self.stats["jobs_aborted"] += 1

    def _collect_results(
        self, job_id: int, expected: int, deadline: Optional[float] = None
    ) -> List:
        """Drain ``result_q`` for one job; return its payloads in chunk order.

        Polls with a timeout so dead workers are detected (the pool then
        closes and raises) and skips replies left over from aborted
        jobs.  A worker traceback aborts the job (see
        :meth:`_abort_job`), so its queued chunks are skipped, and
        raises :class:`~repro.errors.ParallelExecutionError`.  An
        expired ``deadline`` aborts the job too and raises
        :class:`~repro.errors.DeadlineExceededError`.  Either way the
        workers stay healthy and the pool stays usable.
        """
        results: List = [None] * expected
        done = 0
        while done < expected:
            timeout = _POLL_SECONDS
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._abort_job(job_id)
                    raise DeadlineExceededError(
                        f"pool job {job_id} missed its deadline mid-flight "
                        f"({done}/{expected} work units collected)"
                    )
                timeout = min(_POLL_SECONDS, remaining)
            try:
                message = self._result_q.get(timeout=timeout)
            except queue.Empty:
                dead = [
                    (p.name, p.exitcode) for p in self._procs if not p.is_alive()
                ]
                if dead:
                    self._closed = True
                    raise ParallelExecutionError(
                        f"worker(s) {dead} died while executing job {job_id}"
                    )
                continue
            kind, msg_job = message[0], message[1]
            if msg_job != job_id:
                continue  # stale reply from an aborted job
            if kind == "err":
                self._abort_job(job_id)
                raise ParallelExecutionError(f"pool worker failed:\n{message[2]}")
            results[message[2]] = message[3]
            done += 1
        return results


# ----------------------------------------------------------------------
# process-wide shared pools
# ----------------------------------------------------------------------

_SHARED_POOLS: Dict[Tuple[str, int], WorkerPool] = {}
_SHARED_LOCK = threading.Lock()


def shared_pool(workers: int, start_method: Optional[str] = None) -> WorkerPool:
    """A process-wide :class:`WorkerPool` keyed by (method, workers).

    Created on first use and kept for the life of the process (workers
    are daemons; a finalizer reaps them at exit), so repeated
    CLI/service-style calls amortize pool startup automatically.  A
    pool that died (worker crash, explicit close) is transparently
    replaced.
    """
    from repro.parallel.executor import resolve_start_method

    method = resolve_start_method(start_method)
    key = (method, workers)
    with _SHARED_LOCK:
        pool = _SHARED_POOLS.get(key)
        if pool is None or pool.closed:
            pool = WorkerPool(workers, start_method=method)
            _SHARED_POOLS[key] = pool
        return pool


def close_shared_pools() -> None:
    """Close every process-wide pool (tests and benchmark hygiene)."""
    with _SHARED_LOCK:
        for pool in _SHARED_POOLS.values():
            pool.close()
        _SHARED_POOLS.clear()


def close_all_pools() -> None:
    """Close every pool in the process — shared *and* directly owned.

    The shutdown half of :func:`install_signal_handlers`; also safe to
    call directly from daemon teardown paths.  Idempotent (closing a
    closed pool is a no-op).
    """
    close_shared_pools()
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass


#: signum -> pid that installed the wrapper (idempotence per process).
_INSTALLED_SIGNALS: Dict[int, int] = {}


def install_signal_handlers(signals: Optional[Tuple[int, ...]] = None) -> None:
    """Shut every pool down cleanly when SIGTERM/SIGINT arrives.

    A signal death skips interpreter exit, so neither the pool
    finalizers nor the resource tracker's at-exit sweep run — a
    ``kill`` of a long-running daemon would leak every published
    ``/dev/shm`` segment and orphan the worker processes.  The
    installed handler closes all pools (:func:`close_all_pools`) and
    then *chains*: a previously installed callable handler is invoked
    (so ``SIGINT``'s default ``KeyboardInterrupt`` still fires), while
    a default-disposition signal is re-raised under ``SIG_DFL`` so the
    process still dies with the correct signal status.

    The handler is **fork-safe**: it remembers the installing PID and
    only closes pools when it fires in that exact process.  Forked
    children (fork-method workers, or any helper ``multiprocessing.Pool``
    whose ``terminate`` SIGTERMs them as routine teardown) inherit
    both the handler and the parent's pool registry; running
    ``close_all_pools`` there would push stop sentinels onto the
    *shared* task queues and unlink the parent's live ``/dev/shm``
    segments, killing every sibling pool from the outside.  A forked
    child therefore gets the previous disposition restored right after
    the fork, and in any other non-installing process the handler only
    chains.

    Idempotent per signal per process; only the main thread may call
    it (a :mod:`signal` restriction).
    """
    import signal as signal_module

    if signals is None:
        signals = (signal_module.SIGTERM, signal_module.SIGINT)
    owner_pid = os.getpid()
    for signum in signals:
        if _INSTALLED_SIGNALS.get(signum) == owner_pid:
            continue
        previous = signal_module.getsignal(signum)

        def _handler(num, frame, _previous=previous, _owner=owner_pid):
            if os.getpid() == _owner:
                close_all_pools()
            if callable(_previous):
                _previous(num, frame)
            elif _previous is not signal_module.SIG_IGN:
                signal_module.signal(num, signal_module.SIG_DFL)
                os.kill(os.getpid(), num)

        signal_module.signal(signum, _handler)
        _INSTALLED_SIGNALS[signum] = owner_pid
        # A forked child gets the previous disposition back at once: a
        # child stuck in a lock inherited from another thread never
        # reaches the interpreter loop that would run a Python handler,
        # so only a C-level default lets Pool.terminate kill it.
        if previous is not None:
            os.register_at_fork(
                after_in_child=lambda num=signum, prev=previous: signal_module.signal(num, prev)
            )
