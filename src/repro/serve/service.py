"""The serving core: admission, coalescing, and execution.

:class:`MotifService` is the transport-independent heart of ``repro
serve`` — the asyncio daemon is a thin wire adapter over it, and tests
drive it directly with threads.  One service owns one
:class:`~repro.parallel.pool.WorkerPool` and one
:class:`~repro.serve.catalog.GraphCatalog`, and funnels every request
through three stages:

**Admission** (:meth:`MotifService.submit`, caller's thread).  Takes
a catalog lease (the snapshot the request will be answered on) and
answers a repeat of settled deterministic work from the service's
answer table at once — before any quota, backpressure or queue step,
so a repeat never waits behind a running count.  Otherwise it checks
the per-tenant quota and the global bounded queue (429-style
:class:`~repro.errors.QuotaExceededError` /
:class:`~repro.errors.BackpressureError`), converts the request's
``timeout`` into an absolute deadline, and attaches to an identical
in-flight request instead of enqueuing a second copy.  Returns a
:class:`concurrent.futures.Future`.

**Batching** (dispatcher thread).  Drains the queue after a short
``batch_window``, groups compatible requests — same graph generation,
algorithm, backend, categories, seed/replication, params — and runs
each group as **one** :func:`~repro.core.api.count_motifs_sweep` over
the member δ values, on the shared pool.  N compatible requests pay
one graph publication, one plan, one worker dispatch per δ.

**Settlement.**  Every waiter's deadline is re-checked before its
future resolves (a result that arrives late is still a
:class:`~repro.errors.DeadlineExceededError`); group deadlines
propagate into the pool, which aborts expired jobs mid-flight instead
of finishing work nobody will read.

Settlement also fills the answer table: a bounded LRU of
:data:`ANSWER_TABLE_SIZE` results keyed like the in-flight index, kept
only for deterministic requests (exact algorithms, and samplers given
an explicit ``seed``).  The key carries the catalog generation's
serial, so a live-source reload or a removed and re-added name never
reaches an answer computed on another graph.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.api import count_motifs_sweep
from repro.errors import (
    BackpressureError,
    DeadlineExceededError,
    QuotaExceededError,
    ReproError,
)
from repro.serve.catalog import GraphCatalog, GraphLease

#: Settled deterministic answers the service keeps for repeats.
ANSWER_TABLE_SIZE = 256


@dataclass(frozen=True)
class ServiceConfig:
    """Deployment knobs of one :class:`MotifService`."""

    #: Worker processes in the service-owned pool.
    workers: int = 2
    #: Process start method for the pool (None: platform default).
    start_method: Optional[str] = None
    #: Seconds the dispatcher waits after waking before draining the
    #: queue, so a burst of compatible requests lands in one batch.
    batch_window: float = 0.002
    #: Bound on queued-or-running request *groups*; admission beyond it
    #: raises :class:`~repro.errors.BackpressureError` (HTTP 429).
    max_pending: int = 64
    #: Concurrent admitted requests allowed per tenant;
    #: :class:`~repro.errors.QuotaExceededError` beyond it.
    tenant_quota: int = 16
    #: Deadline applied when a request carries no ``timeout`` (seconds;
    #: ``None`` disables the default — requests then wait forever).
    default_timeout: Optional[float] = 30.0
    #: Suspend idle pool workers after this many seconds (see
    #: :class:`~repro.parallel.pool.WorkerPool`); ``None`` keeps them.
    idle_timeout: Optional[float] = None
    #: Consecutive cluster failures before a cluster-bound graph's
    #: circuit breaker opens (see
    #: :class:`~repro.distributed.health.CircuitBreaker`).
    breaker_threshold: int = 3
    #: Seconds an open breaker waits before half-opening for one trial.
    breaker_reset: float = 30.0
    #: Whether cluster-bound requests may fall back to local counting
    #: while the breaker is open (``False``: degraded requests raise
    #: :class:`~repro.errors.ClusterDegradedError` instead).
    cluster_fallback: bool = True

    def __post_init__(self) -> None:
        from repro.errors import ValidationError

        if self.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {self.workers}")
        if self.batch_window < 0:
            raise ValidationError(f"batch_window must be >= 0, got {self.batch_window}")
        if self.max_pending < 1:
            raise ValidationError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.tenant_quota < 1:
            raise ValidationError(f"tenant_quota must be >= 1, got {self.tenant_quota}")
        if self.breaker_threshold < 1:
            raise ValidationError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_reset < 0:
            raise ValidationError(
                f"breaker_reset must be >= 0, got {self.breaker_reset}"
            )


class _Waiter:
    """One admitted request: its future, quota bucket, and deadline."""

    __slots__ = ("future", "tenant", "deadline", "request_id")

    def __init__(self, future, tenant, deadline, request_id) -> None:
        self.future = future
        self.tenant = tenant
        self.deadline = deadline
        self.request_id = request_id


class _Pending:
    """One unique in-flight computation (possibly many waiters)."""

    __slots__ = ("key", "fields", "lease", "waiters", "running")

    def __init__(self, key, fields, lease: GraphLease) -> None:
        self.key = key
        self.fields = fields
        self.lease = lease
        self.waiters: List[_Waiter] = []
        self.running = False

    def effective_deadline(self) -> Optional[float]:
        """Latest waiter deadline — ``None`` if any waiter has none.

        The *max*: the computation should keep going as long as anyone
        admitted is still willing to wait for it.
        """
        deadlines = [w.deadline for w in self.waiters]
        if any(d is None for d in deadlines):
            return None
        return max(deadlines) if deadlines else None


def _dedup_key(serial: int, fields: Dict) -> Tuple:
    """What makes two count requests the same computation.

    ``serial`` names the catalog generation (see
    :class:`~repro.serve.catalog.GraphLease`); δ must stay last, as
    :meth:`MotifService._group` batches on everything before it.
    """
    return (
        serial, fields["algorithm"], fields["categories"],
        fields["backend"], fields["seed"], fields["n_samples"],
        tuple(sorted(fields["params"].items())), float(fields["delta"]),
    )


class MotifService:
    """See the module docstring.  Thread-safe; one per daemon.

    ``pool`` injects an externally owned
    :class:`~repro.parallel.pool.WorkerPool` (it will not be closed by
    :meth:`close`); by default the service creates and owns one per
    its :class:`ServiceConfig`.
    """

    def __init__(self, config: Optional[ServiceConfig] = None, pool=None) -> None:
        from repro.parallel.pool import WorkerPool

        self.config = config or ServiceConfig()
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else WorkerPool(
            self.config.workers,
            start_method=self.config.start_method,
            idle_timeout=self.config.idle_timeout,
        )
        self.catalog = GraphCatalog(self.pool)
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._queue: List[_Pending] = []
        self._inflight: Dict[Tuple, _Pending] = {}
        self._answers: "OrderedDict[Tuple, object]" = OrderedDict()
        self._tenant_inflight: Dict[str, int] = {}
        #: Graph name -> (cluster spec, packed source path or None).
        self._cluster_bindings: Dict[str, Tuple[str, Optional[str]]] = {}
        #: Graph name -> circuit breaker (cluster-bound graphs only).
        self._breakers: Dict[str, object] = {}
        self._closed = False
        self.stats: Dict[str, int] = {
            "requests": 0,
            "answered": 0,
            "answer_hits": 0,
            "errors": 0,
            "coalesced": 0,
            "executions": 0,
            "batched_deltas": 0,
            "rejected_quota": 0,
            "rejected_backpressure": 0,
            "deadline_misses": 0,
            "cluster_failures": 0,
            "cluster_fallbacks": 0,
            "cluster_degraded": 0,
        }
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, daemon=True, name="repro-serve-dispatch"
        )
        self._dispatcher.start()

    # -- catalog management (delegation sugar) --------------------------
    def add_graph(self, name: str, source, *, cluster=None) -> None:
        """Register a graph; static graphs are pinned into the pool.

        ``cluster`` binds the graph to a set of ``repro worker``
        daemons (``"host:port,..."``): exact counts on it run
        distributed (:mod:`repro.distributed`) instead of on the local
        pool — when ``source`` is a :class:`PackedGraph`, by shipping
        only its path so workers holding the file count by reference.
        Sampling requests still run locally (they do not decompose).
        """
        from repro.graph.temporal_graph import TemporalGraph
        from repro.storage.format import PackedGraph

        source_path = None
        if isinstance(source, PackedGraph):
            # Serve the packed file's mmap-backed graph; publication
            # below copies it into pool shared memory exactly like an
            # in-memory graph.
            source_path = source.path
            source = source.graph
        if cluster is not None:
            from repro.distributed.protocol import parse_cluster

            cluster = ",".join(parse_cluster(cluster))
        self.catalog.add(name, source)
        with self._lock:
            if cluster is not None:
                from repro.distributed.health import CircuitBreaker

                self._cluster_bindings[name] = (cluster, source_path)
                self._breakers[name] = CircuitBreaker(
                    threshold=self.config.breaker_threshold,
                    reset_after=self.config.breaker_reset,
                )
            else:
                self._cluster_bindings.pop(name, None)
                self._breakers.pop(name, None)
        if cluster is None and isinstance(source, TemporalGraph) and not self.pool.closed:
            # Static graphs never reload; publish (pinned) now so the
            # first request does not pay the copy.  Live sources are
            # auto-published per generation instead.  Cluster-bound
            # graphs skip the publish: their exact work runs remotely.
            self.pool.publish(source)

    # -- admission ------------------------------------------------------
    def submit(self, fields: Dict) -> "Future":
        """Admit one parsed ``count`` request; resolve it asynchronously.

        ``fields`` is the output of
        :func:`repro.serve.protocol.parse_count` (or an equivalent
        dict).  Raises the 429-style admission errors synchronously;
        execution errors surface through the returned future.  A
        repeat of settled deterministic work returns an already
        resolved future and takes no tenant quota.
        """
        tenant = fields.get("tenant", "default")
        timeout = fields.get("timeout")
        if timeout is None:
            timeout = self.config.default_timeout
        deadline = None if timeout is None else time.monotonic() + float(timeout)
        with self._cond:
            if self._closed:
                raise ReproError("service is shut down")
            self.stats["requests"] += 1
            lease = self.catalog.lease(fields["graph"])  # raises UnknownGraphError
            try:
                key = _dedup_key(lease.serial, fields)
                answer = self._answers.get(key)
                if answer is not None:
                    lease.release()
                    self._answers.move_to_end(key)
                    self.stats["answered"] += 1
                    self.stats["answer_hits"] += 1
                    future: Future = Future()
                    future.set_result(copy.deepcopy(answer))
                    return future
                held = self._tenant_inflight.get(tenant, 0)
                if held >= self.config.tenant_quota:
                    self.stats["rejected_quota"] += 1
                    raise QuotaExceededError(
                        f"tenant {tenant!r} has {held} requests in flight "
                        f"(quota {self.config.tenant_quota})"
                    )
                pending = self._inflight.get(key)
                waiter = _Waiter(Future(), tenant, deadline, fields.get("id"))
                if pending is not None:
                    # Identical request already queued or running:
                    # attach, drop the redundant lease.
                    lease.release()
                    pending.waiters.append(waiter)
                    self.stats["coalesced"] += 1
                else:
                    if len(self._inflight) >= self.config.max_pending:
                        self.stats["rejected_backpressure"] += 1
                        raise BackpressureError(
                            f"{len(self._inflight)} request groups pending "
                            f"(bound {self.config.max_pending}); retry later"
                        )
                    pending = _Pending(key, fields, lease)
                    lease = None  # ownership moved to pending
                    pending.waiters.append(waiter)
                    self._inflight[key] = pending
                    self._queue.append(pending)
                    self._cond.notify_all()
            except Exception:
                if lease is not None:
                    lease.release()
                raise
            self._tenant_inflight[tenant] = held + 1
            return waiter.future

    # -- dispatch -------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if self._closed and not self._queue:
                    return
            # Outside the lock: let a burst of concurrent submissions
            # land before draining, so they ride the same batch.
            if self.config.batch_window:
                time.sleep(self.config.batch_window)
            with self._cond:
                drained, self._queue = self._queue, []
                for pending in drained:
                    pending.running = True
            for group in self._group(drained):
                self._execute_group(group)

    @staticmethod
    def _group(drained: List[_Pending]) -> List[List[_Pending]]:
        """Partition a drain by everything but δ (order-preserving)."""
        groups: "Dict[Tuple, List[_Pending]]" = {}
        for pending in drained:
            groups.setdefault(pending.key[:-1], []).append(pending)
        return list(groups.values())

    def _execute_group(self, group: List[_Pending]) -> None:
        # Settle (and drop) members that expired while queued.
        live: List[_Pending] = []
        for pending in group:
            deadline = pending.effective_deadline()
            if deadline is not None and time.monotonic() >= deadline:
                self._settle_error(
                    pending,
                    DeadlineExceededError("request expired while queued"),
                )
            else:
                live.append(pending)
        if not live:
            return
        fields = live[0].fields
        deltas = sorted({float(p.fields["delta"]) for p in live})
        member_deadlines = [p.effective_deadline() for p in live]
        group_deadline = (
            None if any(d is None for d in member_deadlines)
            else max(member_deadlines)
        )
        with self._lock:
            binding = self._cluster_bindings.get(live[0].lease.name)
        try:
            sweep = self._run_group(live, fields, deltas, group_deadline, binding)
        except Exception as exc:
            for pending in live:
                self._settle_error(pending, exc)
            return
        with self._lock:
            self.stats["executions"] += 1
            self.stats["batched_deltas"] += len(deltas)
        for pending in live:
            self._settle_result(
                pending, sweep.get(fields["algorithm"], float(pending.fields["delta"]))
            )

    def _run_group(self, live, fields, deltas, group_deadline, binding):
        """One batched execution: local pool sweep, or the bound cluster."""
        from repro.core.registry import get_algorithm

        if binding is not None and get_algorithm(fields["algorithm"]).is_exact:
            return self._run_cluster_group(live, fields, deltas, group_deadline, binding)
        return count_motifs_sweep(
            live[0].lease.graph,
            deltas,
            algorithms=(fields["algorithm"],),
            categories=fields["categories"],
            workers=self.config.workers,
            seed=fields["seed"],
            n_samples=fields["n_samples"],
            backend=fields["backend"],
            pool=self.pool,
            deadline=group_deadline,
            **fields["params"],
        )

    def _run_cluster_group(self, live, fields, deltas, group_deadline, binding):
        """Cluster-bound exact counts, guarded by the graph's breaker.

        Distributed, one δ at a time (the shard plan is per-δ anyway);
        a packed source path travels instead of the graph so workers
        holding the file count by reference.  Consecutive
        :class:`~repro.errors.WorkerUnavailableError` failures open the
        graph's circuit breaker, and open-breaker (or just-failed)
        requests degrade to :meth:`_run_local_fallback` instead of
        hammering a dead cluster.
        """
        from repro.core.api import SweepResult, count_motifs
        from repro.errors import WorkerUnavailableError

        cluster, source_path = binding
        name = live[0].lease.name
        with self._lock:
            breaker = self._breakers.get(name)
        if breaker is not None and not breaker.allow():
            return self._run_local_fallback(
                live, fields, deltas, group_deadline, name, source_path,
                breaker, cause=None,
            )
        try:
            sweep = SweepResult()
            for delta in deltas:
                counts = count_motifs(
                    live[0].lease.graph if source_path is None else source_path,
                    delta,
                    algorithm=fields["algorithm"],
                    categories=fields["categories"],
                    backend=fields["backend"],
                    cluster=cluster,
                    deadline=group_deadline,
                    **fields["params"],
                )
                counts.meta.setdefault("cluster", {})["breaker_state"] = (
                    "closed" if breaker is None else breaker.state
                )
                sweep.add(fields["algorithm"], delta, counts)
        except WorkerUnavailableError as exc:
            with self._lock:
                self.stats["cluster_failures"] += 1
            if breaker is not None:
                breaker.record_failure()
            return self._run_local_fallback(
                live, fields, deltas, group_deadline, name, source_path,
                breaker, cause=exc,
            )
        if breaker is not None:
            breaker.record_success()
        return sweep

    def _run_local_fallback(
        self, live, fields, deltas, group_deadline, name, source_path,
        breaker, *, cause,
    ):
        """Graceful degradation for an unreachable cluster.

        When fallback is enabled and the graph's data is held locally —
        its packed ``.rgz`` on disk, or the in-memory catalog graph —
        the request is answered by local sharded counting (same exact
        counts: the repo-wide invariant).  Otherwise the typed
        :class:`~repro.errors.ClusterDegradedError` tells clients how
        long until the breaker half-opens.
        """
        import os

        from repro.core.api import SweepResult, count_motifs
        from repro.errors import ClusterDegradedError

        state = "closed" if breaker is None else breaker.state
        can_fall_back = self.config.cluster_fallback and (
            source_path is None or os.path.exists(source_path)
        )
        if can_fall_back:
            with self._lock:
                self.stats["cluster_fallbacks"] += 1
            sweep = SweepResult()
            for delta in deltas:
                counts = count_motifs(
                    live[0].lease.graph if source_path is None else source_path,
                    delta,
                    algorithm=fields["algorithm"],
                    categories=fields["categories"],
                    backend=fields["backend"],
                    num_shards=max(2, self.config.workers),
                    deadline=group_deadline,
                    **fields["params"],
                )
                counts.meta.setdefault("cluster", {}).update(
                    {"breaker_state": state, "degraded": True}
                )
                sweep.add(fields["algorithm"], delta, counts)
            return sweep
        with self._lock:
            self.stats["cluster_degraded"] += 1
        retry_after = 0.0 if breaker is None else breaker.retry_after()
        detail = "circuit breaker is open" if cause is None else str(cause)
        error = ClusterDegradedError(
            f"cluster for graph {name!r} is unavailable ({detail}); "
            f"retry in {retry_after:.1f}s",
            retry_after=retry_after,
        )
        if cause is not None:
            raise error from cause
        raise error

    # -- settlement -----------------------------------------------------
    def _settle_result(self, pending: _Pending, counts) -> None:
        from repro.core.registry import get_algorithm

        fields = pending.fields
        deterministic = (
            fields["seed"] is not None or get_algorithm(fields["algorithm"]).is_exact
        )
        with self._lock:
            self._retire(pending)
            if deterministic:
                # A private copy: waiters may mutate what they receive.
                self._answers[pending.key] = copy.deepcopy(counts)
                if len(self._answers) > ANSWER_TABLE_SIZE:
                    self._answers.popitem(last=False)
            now = time.monotonic()
            for waiter in pending.waiters:
                self._tenant_inflight[waiter.tenant] -= 1
                if waiter.deadline is not None and now >= waiter.deadline:
                    self.stats["deadline_misses"] += 1
                    self.stats["errors"] += 1
                    waiter.future.set_exception(DeadlineExceededError(
                        "result arrived after the request's deadline"
                    ))
                else:
                    self.stats["answered"] += 1
                    waiter.future.set_result(counts)

    def _settle_error(self, pending: _Pending, exc: BaseException) -> None:
        with self._lock:
            self._retire(pending)
            if isinstance(exc, DeadlineExceededError):
                self.stats["deadline_misses"] += len(pending.waiters)
            self.stats["errors"] += len(pending.waiters)
            for waiter in pending.waiters:
                self._tenant_inflight[waiter.tenant] -= 1
                waiter.future.set_exception(exc)

    def _retire(self, pending: _Pending) -> None:
        """Remove from the dedupe index and return the catalog lease."""
        if self._inflight.get(pending.key) is pending:
            del self._inflight[pending.key]
        pending.lease.release()

    # -- introspection / lifecycle -------------------------------------
    def describe_stats(self) -> Dict[str, object]:
        """JSON-safe merged counters: service + pool + catalog."""
        with self._lock:
            merged: Dict[str, object] = dict(self.stats)
        merged["pool"] = dict(self.pool.stats)
        merged["pool_workers"] = self.pool.workers
        merged["pool_suspended"] = self.pool.suspended
        merged["catalog"] = dict(self.catalog.stats)
        with self._lock:
            merged["cluster_graphs"] = sorted(self._cluster_bindings)
            merged["breakers"] = {
                name: breaker.describe()
                for name, breaker in sorted(self._breakers.items())
            }
        return merged

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Drain, stop the dispatcher, retire the catalog and pool."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self._dispatcher.join(timeout=30)
        # Settle anything still queued (submitted before close won).
        with self._lock:
            leftovers = list(self._queue)
            self._queue = []
        for pending in leftovers:
            self._settle_error(pending, ReproError("service is shut down"))
        self.catalog.close()
        if self._owns_pool:
            self.pool.close()

    def __enter__(self) -> "MotifService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
