"""Chaos suite: cluster counting through a deterministic fault proxy.

Three real worker daemons, two of them reached through
:class:`~repro.testing.faults.ChaosProxy`: one connection gets RST mid
response, another is delayed on every chunk.  The coordinator must
reconnect through its retry budget, re-admit the "recovered" worker,
finish with counts bit-identical to the serial path, and surface the
turbulence (failures, retries, readmissions) in ``meta["cluster"]`` —
all without leaking sockets or shared memory.
"""

from __future__ import annotations

import gc
import os
import random
import signal

import numpy as np
import pytest

from repro.core.api import count_motifs
from repro.distributed import health as _health
from repro.distributed.health import RetryPolicy
from repro.errors import WorkerUnavailableError
from repro.graph.temporal_graph import TemporalGraph
from repro.storage import pack_graph
from repro.testing.faults import ChaosProxy, Fault

from tests.conftest import random_edges
from tests.distributed.test_fault import shm_segments, spawn_worker

#: Fast-reconnect policy so chaos runs finish in test time.
FAST_POLICY = RetryPolicy(
    connect_timeout=5.0, op_timeout=60.0, max_attempts=4,
    backoff_base=0.05, backoff_max=0.2, seed=42,
)


@pytest.fixture
def packed(tmp_path):
    rng = random.Random(47)
    graph = TemporalGraph(random_edges(rng, 40, 600, t_max=250))
    path = str(tmp_path / "g.rgz")
    pack_graph(graph, path)
    return graph, path


@pytest.fixture
def fast_policy(monkeypatch):
    monkeypatch.setattr(_health, "DEFAULT_RETRY_POLICY", FAST_POLICY)
    return FAST_POLICY


def _spawn(n, *extra_args):
    procs, addrs = [], []
    for _ in range(n):
        proc, addr = spawn_worker(*extra_args)
        procs.append(proc)
        addrs.append(addr)
    return procs, addrs


def _teardown(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
        proc.stdout.close()


def test_chaos_cluster_counts_stay_bit_identical(packed, fast_policy):
    graph, path = packed
    serial = count_motifs(graph, 50.0, algorithm="fast")
    shm_before = shm_segments()
    gc.collect()
    fds_before = len(os.listdir("/proc/self/fd"))

    # All workers sleep 0.3 s per count op so the run is still in
    # flight when the reset worker's backoff elapses — otherwise the
    # healthy workers drain every unit before it can be re-admitted.
    procs, addrs = _spawn(3, "--delay", "0.3")
    try:
        # Worker A: first connection is RST a bit into the response
        # stream (mid open/count), every later one is clean — forcing a
        # reconnect cycle and a readmission.  Worker B: every chunk of
        # every response is delayed — a slow-but-correct worker.
        with ChaosProxy(addrs[0], faults={0: Fault("reset", after_bytes=600)},
                        seed=7) as reset_proxy, \
             ChaosProxy(addrs[1],
                        faults=lambda index: Fault("delay", after_bytes=0,
                                                   seconds=0.05),
                        seed=7) as delay_proxy:
            cluster = ",".join([reset_proxy.address, delay_proxy.address, addrs[2]])
            counts = count_motifs(path, 50.0, algorithm="fast",
                                  cluster=cluster, shard_budget=100)
        assert np.array_equal(counts.grid, serial.grid), (
            "chaos-proxied cluster counts diverged from serial"
        )
        meta = counts.meta["cluster"]
        assert meta["worker_failures"] >= 1
        assert meta["workers_readmitted"] >= 1, (
            f"reset worker was never re-admitted: {meta}"
        )
        assert meta["retired_workers"] == []
        health = meta["health"]
        assert set(health) == set(cluster.split(","))
        assert all(record["state"] == "alive" for record in health.values())
        readmitted = health[reset_proxy.address]
        assert readmitted["failures"] >= 1
        assert readmitted["readmissions"] >= 1
    finally:
        _teardown(procs)

    gc.collect()
    assert shm_segments() == shm_before, "chaos run leaked /dev/shm segments"
    fds_after = len(os.listdir("/proc/self/fd"))
    assert fds_after <= fds_before, (
        f"chaos run leaked file descriptors ({fds_before} -> {fds_after})"
    )


def test_blackholed_worker_times_out_and_unit_is_redispatched(packed, fast_policy, monkeypatch):
    graph, path = packed
    serial = count_motifs(graph, 50.0, algorithm="fast")
    monkeypatch.setattr(
        _health, "DEFAULT_RETRY_POLICY",
        RetryPolicy(connect_timeout=5.0, op_timeout=0.8, max_attempts=2,
                    backoff_base=0.05, backoff_max=0.1, seed=42),
    )
    # The healthy worker is slowed (but kept well inside op_timeout) so
    # the run is still in flight when the blackholed one exhausts its
    # reconnect budget and is retired.
    victim, victim_addr = spawn_worker()
    carrier, carrier_addr = spawn_worker("--delay", "0.3")
    procs = [victim, carrier]
    try:
        # Worker A answers nothing past 30 bytes on any connection —
        # every op times out until its reconnect budget retires it;
        # worker B carries the run alone.
        with ChaosProxy(victim_addr,
                        faults=lambda index: Fault("drop", after_bytes=30),
                        seed=3) as proxy:
            cluster = ",".join([proxy.address, carrier_addr])
            counts = count_motifs(path, 50.0, algorithm="fast",
                                  cluster=cluster, shard_budget=150)
        assert np.array_equal(counts.grid, serial.grid)
        meta = counts.meta["cluster"]
        assert meta["worker_failures"] >= 1
        assert meta["retired_workers"] == [proxy.address]
    finally:
        _teardown(procs)


def test_all_workers_dead_fails_typed_with_budget_message(packed, monkeypatch):
    _, path = packed
    monkeypatch.setattr(
        _health, "DEFAULT_RETRY_POLICY",
        RetryPolicy(connect_timeout=0.5, op_timeout=5.0, max_attempts=2,
                    backoff_base=0.01, backoff_max=0.02, seed=1),
    )
    import socket as _socket

    dead = []
    for _ in range(2):
        probe = _socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead.append(f"127.0.0.1:{probe.getsockname()[1]}")
        probe.close()

    with pytest.raises(WorkerUnavailableError) as info:
        count_motifs(path, 50.0, algorithm="fast",
                     cluster=",".join(dead), shard_budget=300)
    message = str(info.value)
    assert "retry budget" in message or "exhausted" in message
