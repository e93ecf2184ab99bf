"""The cluster coordinator: shard-plan dispatch across worker daemons.

:class:`ClusterExecutor` takes one exact :class:`CountRequest` past a
single machine.  It takes the signed slice/halo **units** of the shard
plan (:meth:`~repro.storage.sharded.ShardedGraph.units`) and farms
them to ``repro worker`` daemons over TCP, one coordinator thread per
worker pulling from a shared queue (dynamic self-scheduling: slow
shards never gate fast ones).

**Placement** is locality-aware: each worker is probed with the
``open`` op; workers holding the coordinator's ``.rgz`` path count by
``(source, lo, hi)`` reference, the rest receive base64 edge-column
slices inline (``count_edges``), with shipped bytes recorded in the
result's ``meta["cluster"]``.

**Fault tolerance with exactly-once accounting.**  A transport failure
(:class:`~repro.errors.WorkerUnavailableError`, including a per-op
``op_timeout`` on a hung worker) marks that worker lost and returns its
in-flight unit to the queue for re-dispatch.  At most one copy of a
unit is ever in flight, and results are keyed by unit id, so each unit
contributes its ``ΣS − ΣH`` term exactly once, whatever the retry
history.

**Reconnection.**  A lost worker is not dead forever: its dispatch
thread backs off on the run's :class:`~repro.distributed.health
.RetryPolicy` schedule, re-probes the daemon (``ping`` + ``open``),
and re-admits it mid-run — ``workers_readmitted`` in
``meta["cluster"]`` counts how often that happened.  Only after
``max_attempts`` consecutive failed cycles is the worker *retired*
for the remainder of the run; the run itself fails only when every
worker has retired (or a single unit exhausts its own
:data:`MAX_ATTEMPTS` budget).

**Determinism.**  Every unit's grid is the exact int64 answer of a
canonical slice (the repo-wide invariant: identical counts across
runtimes, worker counts, and machines), and the coordinator reduces
them with the same :meth:`~repro.storage.sharded.ShardedGraph.reduce`
as the serial :func:`~repro.storage.sharded.sharded_count`.  The total
is therefore bit-identical to the serial count of the same plan —
which the equivalence tests and the distributed bench assert, byte for
byte.
"""

from __future__ import annotations

import collections
import json
import socket
import threading
import time
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

from repro.distributed import health as _health
from repro.distributed import protocol
from repro.distributed.health import HealthMonitor, RetryPolicy
from repro.errors import ReproError, WorkerUnavailableError
from repro.storage.sharded import ShardedGraph, Unit

#: Dispatch attempts allowed per unit before the run is declared failed.
MAX_ATTEMPTS = 5

#: Shards planned per worker when the request carries no cut mode:
#: enough units that dynamic self-scheduling can balance uneven shards.
UNITS_PER_WORKER = 4


class WorkerLink:
    """Blocking JSONL client for one worker daemon (TCP sibling of
    :class:`~repro.serve.client.ServeClient`).

    Transport failures — connect refusal, timeout, mid-request
    disconnect, a garbled response — raise
    :class:`~repro.errors.WorkerUnavailableError`, the coordinator's
    retry signal; every such message names the worker's ``host:port``
    and, when the coordinator labelled the link with one, the attempt
    count.  Failures *reported* by the worker re-raise as their typed
    :mod:`repro.errors` classes and are never retried.
    """

    def __init__(
        self,
        address: str,
        *,
        connect_timeout: float = 10.0,
        timeout: Optional[float] = 600.0,
        attempt: Optional[str] = None,
    ) -> None:
        host, port = protocol.split_address(address)
        self.address = address
        self.attempt = attempt
        self._label = (
            f"worker {address!r}" if attempt is None
            else f"worker {address!r} (attempt {attempt})"
        )
        try:
            self._sock = socket.create_connection((host, port), timeout=connect_timeout)
        except OSError as exc:
            raise WorkerUnavailableError(
                f"cannot connect to {self._label}: {exc}"
            ) from exc
        self._sock.settimeout(timeout)
        self._file = self._sock.makefile("rb")
        self._closed = False

    def request(self, message: Dict) -> Dict:
        """One round-trip; returns the ok envelope or raises."""
        data = protocol.encode_message(message)  # symmetric frame cap
        try:
            self._sock.sendall(data)
            line = protocol.read_message_line(self._file)
        except OSError as exc:
            raise WorkerUnavailableError(
                f"{self._label} connection failed: {exc}"
            ) from exc
        if line is None:
            raise WorkerUnavailableError(
                f"{self._label} closed the connection"
            )
        try:
            envelope = json.loads(line)
        except json.JSONDecodeError as exc:
            raise WorkerUnavailableError(
                f"{self._label} sent invalid JSON: {exc}"
            ) from exc
        return protocol.raise_from_response(envelope)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "WorkerLink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ClusterExecutor:
    """See the module docstring.  One executor per distributed count."""

    def __init__(
        self,
        cluster,
        *,
        retry_policy: Optional[RetryPolicy] = None,
        connect_timeout: Optional[float] = None,
        job_timeout: Optional[float] = None,
    ) -> None:
        self.addresses = protocol.parse_cluster(cluster)
        # Resolve the module default at construction time so deployment
        # code (and tests) can swap ``health.DEFAULT_RETRY_POLICY``.
        policy = retry_policy or _health.DEFAULT_RETRY_POLICY
        if connect_timeout is not None:
            policy = replace(policy, connect_timeout=connect_timeout)
        if job_timeout is not None:
            policy = replace(policy, op_timeout=job_timeout)
        self.retry_policy = policy
        self.connect_timeout = policy.connect_timeout
        self.job_timeout = policy.op_timeout
        self.health = HealthMonitor(self.addresses)

    # -- introspection --------------------------------------------------
    def stats(self) -> Dict[str, Dict]:
        """Live runtime counters of every reachable worker daemon.

        Each reachable worker's payload gains a ``health`` entry (state
        plus ping round trip); an unreachable worker reports its typed
        transport error instead.
        """
        out: Dict[str, Dict] = {}
        for address in self.addresses:
            try:
                with WorkerLink(
                    address,
                    connect_timeout=self.connect_timeout,
                    timeout=self.job_timeout,
                ) as link:
                    tick = time.perf_counter()
                    link.request({"op": "ping"})
                    rtt = time.perf_counter() - tick
                    payload = dict(link.request({"op": "stats"})["result"])
            except WorkerUnavailableError as exc:
                self.health.mark_lost(address, exc)
                out[address] = {
                    "unreachable": str(exc),
                    "health": {"state": "dead"},
                }
                continue
            self.health.mark_ok(address, rtt_seconds=rtt)
            payload["health"] = {"state": "alive", "rtt_seconds": rtt}
            out[address] = payload
        return out

    # -- counting -------------------------------------------------------
    def count(self, request, spec):
        """Run one *resolved* exact request across the cluster."""
        graph = request.graph
        shard_kwargs = request.shard_spec or {
            "num_shards": max(1, UNITS_PER_WORKER * len(self.addresses))
        }
        tick = time.perf_counter()
        sharded = ShardedGraph(graph, **shard_kwargs)
        units = sharded.units(request.delta)
        plan_seconds = time.perf_counter() - tick

        state = _RunState(units, num_workers=len(self.addresses))
        spec_payload = protocol.encode_count_spec(request)
        threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(address, request.source, graph, spec_payload, state),
                daemon=True,
                name=f"repro-cluster-{address}",
            )
            for address in self.addresses
        ]
        for thread in threads:
            thread.start()
        try:
            self._wait(request, state)
        finally:
            state.abort()  # workers idle in acquire() must not linger
            for thread in threads:
                thread.join(timeout=30)

        phases = {"plan": plan_seconds}
        for phase, seconds in state.remote_phases.items():
            phases[phase] = phases.get(phase, 0.0) + seconds
        cluster = {**state.describe(self.addresses), "health": self.health.describe()}
        return sharded.reduce(
            request, units, [state.results[unit.uid] for unit in units], phases,
            extra={"cluster": cluster},
        )

    # -- per-worker dispatch loop ---------------------------------------
    def _worker_loop(self, address, source, graph, spec_payload, state) -> None:
        try:
            self._serve_worker(address, source, graph, spec_payload, state)
        except Exception as exc:  # noqa: BLE001 - thread boundary: a bug
            state.fail(exc)  # here must surface, not hang the wait loop

    def _serve_worker(self, address, source, graph, spec_payload, state) -> None:
        policy = self.retry_policy
        failures = 0  # consecutive failed connect/serve cycles
        while state.running():
            if failures:
                # Back off on the deterministic schedule, then re-probe
                # the worker — a recovered daemon rejoins the run here.
                if not state.sleep(policy.delay(failures - 1, salt=address)):
                    return
            attempt = f"{failures + 1}/{policy.max_attempts}"
            try:
                link = WorkerLink(
                    address,
                    connect_timeout=policy.connect_timeout,
                    timeout=policy.op_timeout,
                    attempt=attempt,
                )
            except WorkerUnavailableError as exc:
                failures += 1
                self.health.mark_lost(address, exc)
                state.worker_lost(address, None, exc)
                if failures >= policy.max_attempts:
                    state.worker_retired(address)
                    return
                continue
            unit = None
            try:
                try:
                    tick = time.perf_counter()
                    link.request({"op": "ping"})
                    self.health.mark_ok(
                        address, rtt_seconds=time.perf_counter() - tick
                    )
                    held = False
                    if source is not None:
                        probe = link.request({"op": "open", "source": source})["result"]
                        held = bool(probe.get("held"))
                        if held and probe.get("num_edges") != graph.num_edges:
                            # Same path, different file: treat as not
                            # local rather than silently counting a
                            # different graph.
                            held = False
                    state.worker_ready(address, held)
                    while True:
                        unit = state.acquire(address)
                        if unit is None:
                            return
                        tick = time.perf_counter()
                        if held:
                            envelope = link.request({
                                "op": "count_slice", "source": source,
                                "lo": unit.lo, "hi": unit.hi, "spec": spec_payload,
                            })
                        else:
                            payload = protocol.encode_edge_slice(graph, unit.lo, unit.hi)
                            state.add_shipped(protocol.edge_slice_bytes(payload))
                            envelope = link.request({
                                "op": "count_edges", "edges": payload,
                                "spec": spec_payload,
                            })
                        counts = protocol.decode_counts(envelope["result"]["counts"])
                        state.complete(
                            address, unit, counts,
                            seconds=time.perf_counter() - tick,
                        )
                        self.health.mark_ok(address)
                        unit = None
                        failures = 0  # a completed unit resets the budget
                except WorkerUnavailableError as exc:
                    failures += 1
                    self.health.mark_lost(address, exc)
                    state.worker_lost(address, unit, exc)
                    if failures >= policy.max_attempts:
                        state.worker_retired(address)
                        return
                    # else: fall out to the backoff + reconnect cycle
                except ReproError as exc:
                    # Deterministic failure (bad request, corrupt
                    # source): retrying elsewhere cannot succeed.
                    state.fail(exc)
                    return
            finally:
                link.close()

    # -- completion wait ------------------------------------------------
    @staticmethod
    def _wait(request, state) -> None:
        with state.cond:
            while True:
                if state.error is not None:
                    raise state.error
                if state.finished():
                    return
                if len(state.retired_workers) >= state.num_workers:
                    # A merely *lost* worker is still reconnecting on
                    # its backoff schedule; only when every worker has
                    # exhausted its attempt budget is the run hopeless.
                    raise WorkerUnavailableError(
                        f"all {state.num_workers} cluster workers "
                        f"exhausted their retry budgets; last error: "
                        f"{state.last_failure}"
                    )
                request.check_deadline()
                state.cond.wait(timeout=0.1)


class _RunState:
    """Shared dispatch state of one distributed count (lock-guarded)."""

    def __init__(self, units: List[Unit], *, num_workers: int) -> None:
        self.units = {unit.uid: unit for unit in units}
        self.num_workers = num_workers
        self.cond = threading.Condition()
        self.pending = collections.deque(unit.uid for unit in units)
        self.results: Dict[int, np.ndarray] = {}
        self.attempts: Dict[int, int] = collections.defaultdict(int)
        self.remote_phases: Dict[str, float] = {}
        self.shard_seconds: Dict[str, float] = {}
        self.jobs_by_worker: Dict[str, int] = {}
        self.live_workers: set = set()
        self.started_workers: set = set()
        self.local_workers: set = set()
        self.lost_workers: set = set()
        self.retired_workers: set = set()
        self.error: Optional[BaseException] = None
        self.last_failure: Optional[str] = None
        self.aborted = False
        self.stats = {
            "retries": 0,
            "speculative": 0,  # kept for meta readers; tail copies are never sent
            "worker_failures": 0,
            "workers_readmitted": 0,
            "bytes_shipped": 0,
        }

    # -- worker lifecycle ----------------------------------------------
    def worker_ready(self, address: str, held: bool) -> bool:
        """Admit (or re-admit) a probed worker; ``True`` on readmission."""
        with self.cond:
            readmitted = address in self.lost_workers
            self.lost_workers.discard(address)
            self.started_workers.add(address)
            self.live_workers.add(address)
            self.jobs_by_worker.setdefault(address, 0)
            if held:
                self.local_workers.add(address)
            if readmitted:
                self.stats["workers_readmitted"] += 1
            self.cond.notify_all()
            return readmitted

    def worker_lost(self, address, unit, exc) -> None:
        with self.cond:
            self.started_workers.add(address)
            self.live_workers.discard(address)
            self.lost_workers.add(address)
            self.stats["worker_failures"] += 1
            self.last_failure = f"{address}: {exc}"
            if unit is not None:
                if unit.uid not in self.results:
                    if self.attempts[unit.uid] >= MAX_ATTEMPTS:
                        self.error = WorkerUnavailableError(
                            f"unit {unit.kind}[{unit.shard}] failed "
                            f"{self.attempts[unit.uid]} times; giving up "
                            f"(last: {exc})"
                        )
                    else:
                        self.stats["retries"] += 1
                        self.pending.appendleft(unit.uid)
            self.cond.notify_all()

    def worker_retired(self, address: str) -> None:
        """This worker's attempt budget is spent for the rest of the run."""
        with self.cond:
            self.retired_workers.add(address)
            self.cond.notify_all()

    def running(self) -> bool:
        with self.cond:
            return self.error is None and not self.aborted and not self.finished()

    def sleep(self, seconds: float) -> bool:
        """Backoff wait that aborts early; ``False`` when the run ended."""
        deadline = time.monotonic() + max(0.0, seconds)
        with self.cond:
            while True:
                if self.error is not None or self.aborted or self.finished():
                    return False
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return True
                self.cond.wait(timeout=min(remaining, 0.1))

    # -- job acquisition -------------------------------------------------
    def acquire(self, address: str) -> Optional[Unit]:
        """Next queued unit for ``address``; ``None`` once the run ended."""
        with self.cond:
            while True:
                if self.error is not None or self.aborted or self.finished():
                    return None
                if self.pending:
                    uid = self.pending.popleft()
                    self.attempts[uid] += 1
                    self.jobs_by_worker[address] = self.jobs_by_worker.get(address, 0) + 1
                    return self.units[uid]
                # Everything open is in flight: wait for a completion, or
                # a failure that puts a unit back in the queue.
                self.cond.wait(timeout=0.1)

    # -- completion ------------------------------------------------------
    def complete(self, address, unit, counts, *, seconds) -> None:
        with self.cond:
            if unit.uid not in self.results:  # exactly-once: first result wins
                self.results[unit.uid] = counts.grid
                self.shard_seconds[f"shard{unit.shard}.{unit.kind}"] = seconds
                for phase, secs in counts.phase_seconds.items():
                    self.remote_phases[phase] = self.remote_phases.get(phase, 0.0) + secs
            self.cond.notify_all()

    def add_shipped(self, nbytes: int) -> None:
        with self.cond:
            self.stats["bytes_shipped"] += int(nbytes)

    def fail(self, exc: BaseException) -> None:
        with self.cond:
            if self.error is None:
                self.error = exc
            self.cond.notify_all()

    def abort(self) -> None:
        with self.cond:
            self.aborted = True
            self.cond.notify_all()

    def finished(self) -> bool:
        return len(self.results) == len(self.units)

    def describe(self, addresses) -> Dict[str, object]:
        """The ``meta["cluster"]`` payload (JSON-safe)."""
        with self.cond:
            return {
                "workers": list(addresses),
                "local_workers": sorted(self.local_workers),
                "retired_workers": sorted(self.retired_workers),
                "jobs": dict(self.jobs_by_worker),
                "shard_seconds": dict(self.shard_seconds),
                **{k: int(v) for k, v in self.stats.items()},
            }


def cluster_count(request, spec):
    """Registry routing target: run one resolved exact request on the
    cluster named by ``request.cluster`` (see :class:`ClusterExecutor`)."""
    executor = ClusterExecutor(request.cluster)
    return executor.count(request, spec)


def cluster_runtime_stats(
    cluster,
    *,
    connect_timeout: Optional[float] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> Dict[str, Dict]:
    """Runtime counters of every worker in ``cluster`` (CLI helper)."""
    executor = ClusterExecutor(
        cluster, connect_timeout=connect_timeout, retry_policy=retry_policy
    )
    return executor.stats()
