"""Fault injection: SIGKILL a worker daemon mid-shard.

The coordinator must re-dispatch the dead worker's in-flight unit,
finish with counts bit-identical to the serial path, record the
failure in the result meta — and leak nothing: worker daemons run
``workers=1`` (no pool, no ``/dev/shm`` segments), so even an
uncleanable SIGKILL leaves the machine clean, and the coordinator
closes every socket it opened.
"""

from __future__ import annotations

import gc
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.api import count_motifs
from repro.errors import WorkerUnavailableError
from repro.graph.temporal_graph import TemporalGraph
from repro.storage import pack_graph

from tests.conftest import random_edges

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def spawn_worker(*extra_args: str) -> "tuple[subprocess.Popen, str]":
    """A ``repro worker`` subprocess; returns (process, bound address)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + REPO_ROOT
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        cwd=REPO_ROOT,
        text=True,
    )
    line = proc.stdout.readline()
    match = re.search(r"worker listening on (\S+)", line)
    assert match, f"worker printed no address: {line!r}"
    return proc, match.group(1)


def shm_segments() -> set:
    if not os.path.isdir("/dev/shm"):
        return set()
    return {name for name in os.listdir("/dev/shm") if "repro" in name}


@pytest.fixture
def packed(tmp_path):
    rng = random.Random(31)
    graph = TemporalGraph(random_edges(rng, 40, 600, t_max=250))
    path = str(tmp_path / "g.rgz")
    pack_graph(graph, path)
    return graph, path


def test_sigkill_mid_shard_redispatches_and_counts_stay_exact(packed):
    graph, path = packed
    serial = count_motifs(graph, 50.0, algorithm="fast")
    shm_before = shm_segments()

    # Both workers sleep 0.4 s per count op and three shards make five
    # units, so at kill time (~0.6 s in) the victim is deterministically
    # *mid-shard* on its second unit (no worker is idle before 0.8 s).
    victim, addr_victim = spawn_worker("--delay", "0.4")
    survivor, addr_survivor = spawn_worker("--delay", "0.4")
    result, error = [], []

    def run() -> None:
        try:
            result.append(count_motifs(
                path, 50.0, algorithm="fast",
                cluster=f"{addr_victim},{addr_survivor}", num_shards=3,
            ))
        except BaseException as exc:  # pragma: no cover - failure reporting
            error.append(exc)

    try:
        counter = threading.Thread(target=run)
        counter.start()
        time.sleep(0.6)
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)
        counter.join(timeout=120)
        assert not counter.is_alive(), "coordinator never finished"
        assert not error, f"count failed: {error}"
        counts = result[0]
        assert np.array_equal(counts.grid, serial.grid), (
            "re-dispatched counts diverged from serial"
        )
        meta = counts.meta["cluster"]
        assert meta["worker_failures"] >= 1
        # The dead worker's unit went back to the queue and was re-run.
        assert meta["retries"] >= 1
    finally:
        for proc in (victim, survivor):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                proc.wait(timeout=30)
            proc.stdout.close()

    # SIGKILL allowed no cleanup, but workers=1 daemons own no pool and
    # no shared memory — nothing to leak.
    assert shm_segments() == shm_before, "worker kill leaked /dev/shm segments"


def test_killing_the_only_worker_fails_loudly(packed):
    _, path = packed
    proc, addr = spawn_worker("--delay", "0.4")
    try:
        error = []

        def run() -> None:
            try:
                count_motifs(path, 50.0, algorithm="fast",
                             cluster=addr, num_shards=2)
            except BaseException as exc:
                error.append(exc)

        counter = threading.Thread(target=run)
        counter.start()
        time.sleep(0.5)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        counter.join(timeout=60)
        assert not counter.is_alive()
        assert error and isinstance(error[0], WorkerUnavailableError)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
        proc.stdout.close()


def test_coordinator_closes_its_sockets(packed):
    graph, path = packed
    proc, addr = spawn_worker()
    try:
        gc.collect()
        fds_before = len(os.listdir("/proc/self/fd"))
        counts = count_motifs(path, 50.0, algorithm="fast",
                              cluster=addr, num_shards=3)
        assert np.array_equal(counts.grid,
                              count_motifs(graph, 50.0, algorithm="fast").grid)
        gc.collect()
        fds_after = len(os.listdir("/proc/self/fd"))
        assert fds_after <= fds_before, (
            f"coordinator leaked file descriptors ({fds_before} -> {fds_after})"
        )
    finally:
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
        proc.stdout.close()
