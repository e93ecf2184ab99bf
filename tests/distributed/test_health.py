"""Unit suite for the cluster health layer.

:class:`RetryPolicy` backoff must be deterministic (same seed/salt →
same schedule, different salt → decorrelated), bounded, and validated;
the ``ping`` op must round-trip against a real worker daemon and fail
typed — with the worker's host:port and attempt count in the message —
against a dead one; the :class:`HealthMonitor` must account
readmissions; the :class:`CircuitBreaker` must walk
closed → open → half_open with a single-trial probe.
"""

from __future__ import annotations

import signal
import socket
import time

import pytest

from repro.distributed.cluster import WorkerLink
from repro.distributed.health import (
    CircuitBreaker,
    HealthMonitor,
    RetryPolicy,
    ping_worker,
)
from repro.distributed import protocol
from repro.errors import ValidationError, WorkerUnavailableError

from tests.distributed.test_fault import spawn_worker


def dead_address() -> str:
    """A host:port that refuses connections (bound then released)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------

def test_delay_schedule_is_deterministic_across_instances():
    a = RetryPolicy(seed=13)
    b = RetryPolicy(seed=13)
    assert [a.delay(i, salt="w") for i in range(6)] == [
        b.delay(i, salt="w") for i in range(6)
    ]


def test_delay_salt_decorrelates_workers():
    policy = RetryPolicy(seed=1)
    assert policy.delay(0, salt="host:1") != policy.delay(0, salt="host:2")


def test_delay_grows_and_caps_without_jitter():
    policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                         backoff_max=0.5, jitter=0.0)
    delays = [policy.delay(i) for i in range(8)]
    assert delays[:3] == [0.1, 0.2, 0.4]
    assert all(d == 0.5 for d in delays[3:])
    assert delays == sorted(delays)


def test_jitter_stays_within_fraction():
    policy = RetryPolicy(backoff_base=1.0, backoff_factor=1.0,
                         backoff_max=1.0, jitter=0.25, seed=99)
    for attempt in range(32):
        d = policy.delay(attempt, salt="x")
        assert 0.75 <= d <= 1.25


@pytest.mark.parametrize("kwargs", [
    {"connect_timeout": 0.0},
    {"op_timeout": -1.0},
    {"max_attempts": 0},
    {"backoff_base": -0.1},
    {"backoff_factor": 0.5},
    {"jitter": 1.0},
])
def test_policy_validates_knobs(kwargs):
    with pytest.raises(ValidationError):
        RetryPolicy(**kwargs)


def test_executor_reads_the_module_policy_and_takes_no_overrides(monkeypatch):
    """Timeouts and retries come from ``health.DEFAULT_RETRY_POLICY``
    alone: the executor has no per-run override arguments."""
    from repro.distributed import ClusterExecutor, health

    address = dead_address()
    with pytest.raises(TypeError):
        ClusterExecutor(address, job_timeout=1)
    policy = RetryPolicy(connect_timeout=0.25, op_timeout=2.0)
    monkeypatch.setattr(health, "DEFAULT_RETRY_POLICY", policy)
    assert ClusterExecutor(address).retry_policy is policy


def test_negative_attempt_rejected():
    with pytest.raises(ValidationError):
        RetryPolicy().delay(-1)


# ----------------------------------------------------------------------
# ping + error messages
# ----------------------------------------------------------------------

def test_ping_round_trips_against_a_live_worker():
    proc, addr = spawn_worker()
    try:
        sample = ping_worker(addr)
        assert sample["state"] == "alive"
        assert sample["pid"] == proc.pid
        assert sample["rtt_seconds"] > 0
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
        proc.stdout.close()


def test_ping_dead_worker_raises_typed_with_address():
    addr = dead_address()
    policy = RetryPolicy(connect_timeout=0.5)
    with pytest.raises(WorkerUnavailableError) as info:
        ping_worker(addr, policy=policy)
    assert addr in str(info.value)


def test_link_error_carries_attempt_count():
    addr = dead_address()
    with pytest.raises(WorkerUnavailableError) as info:
        WorkerLink(addr, connect_timeout=0.5, attempt="3/5")
    message = str(info.value)
    assert addr in message and "attempt 3/5" in message


# ----------------------------------------------------------------------
# protocol frame caps (symmetric inbound/outbound)
# ----------------------------------------------------------------------

def test_encode_message_enforces_outbound_cap():
    payload = {"ok": True, "result": {"blob": "x" * 256}}
    assert protocol.encode_message(payload).endswith(b"\n")
    with pytest.raises(ValidationError) as info:
        protocol.encode_message(payload, limit=64)
    assert "64" in str(info.value)


# ----------------------------------------------------------------------
# HealthMonitor
# ----------------------------------------------------------------------

def test_monitor_counts_readmissions():
    monitor = HealthMonitor(["a:1", "b:2"])
    monitor.mark_ok("a:1", rtt_seconds=0.01)
    assert monitor.readmissions() == 0
    monitor.mark_lost("a:1", "boom")
    monitor.mark_lost("a:1", "boom again")
    monitor.mark_ok("a:1", rtt_seconds=0.02)
    assert monitor.readmissions() == 1

    snapshot = monitor.describe()
    record = snapshot["a:1"]
    assert record["state"] == "alive"
    assert record["failures"] == 2
    assert record["consecutive_failures"] == 0
    assert record["readmissions"] == 1
    assert record["last_error"] == "boom again"
    assert snapshot["b:2"]["state"] == "unknown"


def test_monitor_probe_updates_record_on_failure():
    addr = dead_address()
    monitor = HealthMonitor([addr])
    with pytest.raises(WorkerUnavailableError):
        monitor.probe(addr, policy=RetryPolicy(connect_timeout=0.5))
    assert monitor.describe()[addr]["state"] == "dead"


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------

def test_breaker_opens_after_threshold_and_half_opens():
    breaker = CircuitBreaker(threshold=2, reset_after=0.15)
    assert breaker.state == "closed" and breaker.allow()
    breaker.record_failure()
    assert breaker.state == "closed"
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()
    assert breaker.retry_after() > 0

    time.sleep(0.2)
    assert breaker.state == "half_open"
    assert breaker.allow(), "the first caller after reset gets the trial"
    assert not breaker.allow(), "only one trial probe at a time"
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.retry_after() == 0.0


def test_breaker_half_open_failure_reopens():
    breaker = CircuitBreaker(threshold=1, reset_after=0.1)
    breaker.record_failure()
    assert breaker.state == "open"
    time.sleep(0.15)
    assert breaker.allow()
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()


def test_breaker_describe_is_json_safe():
    breaker = CircuitBreaker(threshold=3, reset_after=5.0)
    breaker.record_failure()
    snapshot = breaker.describe()
    assert snapshot["state"] == "closed"
    assert snapshot["consecutive_failures"] == 1
    assert snapshot["threshold"] == 3
    assert snapshot["retry_after_seconds"] == 0.0


def test_breaker_validates_knobs():
    with pytest.raises(ValidationError):
        CircuitBreaker(threshold=0)
    with pytest.raises(ValidationError):
        CircuitBreaker(reset_after=-1.0)
