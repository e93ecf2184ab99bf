"""Cluster health: retry policy, heartbeats, and the circuit breaker.

Until PR 9 every transport-failure decision in the distributed runtime
was a hard-coded constant scattered through ``cluster.py``: fixed
connect/op timeouts, an immediate permanent death sentence for a
worker whose socket hiccuped, no way for a recovered daemon to rejoin
a run.  This module centralises those decisions as *data*:

:class:`RetryPolicy`
    Connect/op timeouts, exponential backoff with **seeded,
    deterministic jitter** (two coordinators with the same seed
    produce the same delay schedule — reproducible fault tests, no
    thundering-herd synchronisation across workers because the worker
    address salts the stream), and a per-worker reconnect budget.

:class:`HealthMonitor`
    Per-worker heartbeat records fed by the ``ping`` protocol op:
    last-success time, round-trip latency, consecutive failures, and
    how often the worker was re-admitted after being marked dead.  The
    coordinator's dispatch loops keep it current; ``repro stats
    --runtime`` renders it.

:class:`CircuitBreaker`
    The serving layer's degradation switch for cluster-bound catalog
    graphs: ``closed`` (normal) → ``open`` after ``threshold``
    consecutive :class:`~repro.errors.WorkerUnavailableError`\\ s →
    ``half_open`` after ``reset_after`` seconds, when exactly one
    trial request probes the cluster and either closes the breaker or
    re-opens it with a fresh timer.

Everything here is pure bookkeeping over monotonic time — no sockets
except :func:`ping_worker`, so the policy and breaker are unit-testable
without a cluster.

>>> policy = RetryPolicy(backoff_base=0.1, backoff_max=2.0, seed=7)
>>> [round(policy.delay(a, salt="w1"), 6) == round(policy.delay(a, salt="w1"), 6)
...  for a in range(3)]
[True, True, True]
>>> policy.delay(0, salt="w1") != policy.delay(0, salt="w2")
True
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ValidationError, WorkerUnavailableError

#: Breaker states (see :class:`CircuitBreaker`).
BREAKER_STATES = ("closed", "open", "half_open")


@dataclass(frozen=True)
class RetryPolicy:
    """Every transport-retry knob of the distributed runtime, as data.

    ``delay(attempt, salt=...)`` is the backoff schedule: attempt ``a``
    (0-based) sleeps ``min(backoff_max, backoff_base * backoff_factor**a)``
    stretched by a deterministic jitter of ±``jitter`` (a fraction),
    derived from ``(seed, salt, attempt)`` via CRC32 — stable across
    processes and platforms, unlike ``hash()``.
    """

    #: Seconds allowed for one TCP connect to a worker.
    connect_timeout: float = 10.0
    #: Seconds allowed for one request/response round trip (``None``
    #: waits forever — only sensible on trusted local clusters).
    op_timeout: Optional[float] = 600.0
    #: Consecutive failed connect/serve cycles before one worker is
    #: retired for the remainder of the run (per-worker budget; the
    #: per-*unit* budget is ``cluster.MAX_ATTEMPTS``).
    max_attempts: int = 5
    #: First backoff delay, seconds.
    backoff_base: float = 0.1
    #: Multiplier between consecutive delays.
    backoff_factor: float = 2.0
    #: Ceiling on any single delay, seconds.
    backoff_max: float = 5.0
    #: Jitter fraction: each delay is scaled by ``1 ± jitter * u`` with
    #: ``u`` uniform in ``[-1, 1)`` from the seeded stream.
    jitter: float = 0.25
    #: Seed of the deterministic jitter stream.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.connect_timeout <= 0:
            raise ValidationError(
                f"connect_timeout must be positive, got {self.connect_timeout}"
            )
        if self.op_timeout is not None and self.op_timeout <= 0:
            raise ValidationError(
                f"op_timeout must be positive or None, got {self.op_timeout}"
            )
        if self.max_attempts < 1:
            raise ValidationError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValidationError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValidationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if not (0.0 <= self.jitter < 1.0):
            raise ValidationError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay(self, attempt: int, *, salt: str = "") -> float:
        """Seconds to sleep before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValidationError(f"attempt must be >= 0, got {attempt}")
        base = min(self.backoff_max, self.backoff_base * self.backoff_factor ** attempt)
        if not self.jitter or not base:
            return base
        # CRC32 of the (seed, salt, attempt) triple -> uniform in [0, 1):
        # deterministic across processes (hash() is salted per process).
        digest = zlib.crc32(f"{self.seed}:{salt}:{attempt}".encode("utf-8"))
        unit = (digest / 0xFFFFFFFF) * 2.0 - 1.0  # [-1, 1)
        return base * (1.0 + self.jitter * unit)


#: The retry, connect and per-op timeout policy of every coordinator
#: (read when a :class:`~repro.distributed.cluster.ClusterExecutor` is
#: built).  Deployment code (and tests) may swap it module-wide.
DEFAULT_RETRY_POLICY = RetryPolicy()


def ping_worker(
    address: str, *, policy: Optional[RetryPolicy] = None
) -> Dict[str, object]:
    """One connect + ``ping`` round trip; returns the health sample.

    Raises :class:`~repro.errors.WorkerUnavailableError` on any
    transport failure (the caller's signal to back off and re-probe).
    """
    from repro.distributed.cluster import WorkerLink  # late: avoid cycle

    policy = policy or DEFAULT_RETRY_POLICY
    tick = time.perf_counter()
    with WorkerLink(
        address,
        connect_timeout=policy.connect_timeout,
        timeout=policy.op_timeout,
    ) as link:
        result = link.request({"op": "ping"})["result"]
    rtt = time.perf_counter() - tick
    return {"state": "alive", "rtt_seconds": rtt, "pid": result.get("pid")}


class _WorkerHealth:
    """One worker's heartbeat record (guarded by the monitor's lock)."""

    __slots__ = (
        "address", "state", "last_ok", "last_error",
        "consecutive_failures", "failures", "readmissions", "rtt_seconds",
    )

    def __init__(self, address: str) -> None:
        self.address = address
        self.state = "unknown"
        self.last_ok: Optional[float] = None
        self.last_error: Optional[str] = None
        self.consecutive_failures = 0
        self.failures = 0
        self.readmissions = 0
        self.rtt_seconds: Optional[float] = None


class HealthMonitor:
    """Per-worker heartbeat tracking for one cluster (thread-safe).

    The coordinator's dispatch loops feed it (:meth:`mark_ok` on every
    successful op, :meth:`mark_lost` on every transport failure,
    :meth:`mark_readmitted` when a dead worker rejoins); anything may
    read :meth:`describe` at any time.
    """

    def __init__(self, addresses) -> None:
        self._lock = threading.Lock()
        self._workers: Dict[str, _WorkerHealth] = {
            address: _WorkerHealth(address) for address in addresses
        }

    def _record(self, address: str) -> _WorkerHealth:
        record = self._workers.get(address)
        if record is None:
            record = self._workers[address] = _WorkerHealth(address)
        return record

    def mark_ok(self, address: str, *, rtt_seconds: Optional[float] = None) -> None:
        with self._lock:
            record = self._record(address)
            was_dead = record.state == "dead"
            record.state = "alive"
            record.last_ok = time.monotonic()
            record.consecutive_failures = 0
            if rtt_seconds is not None:
                record.rtt_seconds = rtt_seconds
            if was_dead:
                record.readmissions += 1

    def mark_lost(self, address: str, error: object = None) -> None:
        with self._lock:
            record = self._record(address)
            record.state = "dead"
            record.consecutive_failures += 1
            record.failures += 1
            if error is not None:
                record.last_error = str(error)

    def readmissions(self) -> int:
        """Total times any dead worker of this cluster came back."""
        with self._lock:
            return sum(r.readmissions for r in self._workers.values())

    def probe(
        self, address: str, *, policy: Optional[RetryPolicy] = None
    ) -> Dict[str, object]:
        """Ping one worker, updating its record either way."""
        try:
            sample = ping_worker(address, policy=policy)
        except WorkerUnavailableError as exc:
            self.mark_lost(address, exc)
            raise
        self.mark_ok(address, rtt_seconds=float(sample["rtt_seconds"]))
        return sample

    def describe(self) -> Dict[str, Dict[str, object]]:
        """JSON-safe snapshot of every worker's heartbeat record."""
        now = time.monotonic()
        with self._lock:
            return {
                record.address: {
                    "state": record.state,
                    "seconds_since_ok": (
                        None if record.last_ok is None else now - record.last_ok
                    ),
                    "rtt_seconds": record.rtt_seconds,
                    "consecutive_failures": record.consecutive_failures,
                    "failures": record.failures,
                    "readmissions": record.readmissions,
                    "last_error": record.last_error,
                }
                for record in self._workers.values()
            }


@dataclass
class CircuitBreaker:
    """Consecutive-failure circuit breaker (thread-safe).

    ``closed``: requests flow.  After ``threshold`` consecutive
    :meth:`record_failure` calls the breaker **opens**: :meth:`allow`
    answers ``False`` until ``reset_after`` seconds pass, then the
    breaker half-opens and exactly one caller gets ``True`` (the trial
    request).  The trial's :meth:`record_success` closes the breaker;
    its :meth:`record_failure` re-opens it with a fresh timer.
    """

    threshold: int = 3
    reset_after: float = 30.0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _state: str = "closed"
    _consecutive_failures: int = 0
    _opened_at: float = 0.0
    _trial_inflight: bool = False

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValidationError(f"threshold must be >= 1, got {self.threshold}")
        if self.reset_after < 0:
            raise ValidationError(
                f"reset_after must be non-negative, got {self.reset_after}"
            )

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if self._state == "open" and (
            time.monotonic() - self._opened_at >= self.reset_after
        ):
            self._state = "half_open"
            self._trial_inflight = False

    def allow(self) -> bool:
        """Whether the caller may attempt the protected operation now."""
        with self._lock:
            self._maybe_half_open()
            if self._state == "closed":
                return True
            if self._state == "half_open" and not self._trial_inflight:
                self._trial_inflight = True  # exactly one probe at a time
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._consecutive_failures = 0
            self._trial_inflight = False

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == "half_open" or (
                self._consecutive_failures >= self.threshold
            ):
                self._state = "open"
                self._opened_at = time.monotonic()
                self._trial_inflight = False

    def retry_after(self) -> float:
        """Seconds until the breaker half-opens (0 when not open)."""
        with self._lock:
            self._maybe_half_open()
            if self._state != "open":
                return 0.0
            return max(0.0, self.reset_after - (time.monotonic() - self._opened_at))

    def describe(self) -> Dict[str, object]:
        """JSON-safe breaker snapshot (the ``stats`` payload entry)."""
        with self._lock:
            self._maybe_half_open()
            retry = 0.0
            if self._state == "open":
                retry = max(
                    0.0, self.reset_after - (time.monotonic() - self._opened_at)
                )
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "threshold": self.threshold,
                "retry_after_seconds": retry,
            }
