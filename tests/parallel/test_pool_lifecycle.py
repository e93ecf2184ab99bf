"""Pool lifecycle: signal cleanup, idle suspend, shared_pool races, deadlines."""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import DeadlineExceededError
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.pool import (
    WorkerPool,
    close_shared_pools,
    shared_pool,
)

from tests.conftest import random_edges

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def make_graph(seed: int = 5, num_nodes: int = 30, num_edges: int = 400) -> TemporalGraph:
    rng = random.Random(seed)
    return TemporalGraph(random_edges(rng, num_nodes, num_edges, t_max=200))


# ---------------------------------------------------------------------------
# graceful shutdown on signals (satellite 1)
# ---------------------------------------------------------------------------

_CHILD_SCRIPT = """
import random, sys, time
from repro.graph.temporal_graph import TemporalGraph
from repro.graph.shared import live_segments
from repro.parallel.pool import WorkerPool, install_signal_handlers
from tests.conftest import random_edges

rng = random.Random(5)
graph = TemporalGraph(random_edges(rng, 30, 400, t_max=200))
pool = WorkerPool(2)
pool.publish(graph)
install_signal_handlers()
for name in live_segments():
    print("SEG", name, flush=True)
print("READY", flush=True)
time.sleep(120)
"""


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
def test_sigterm_unlinks_shared_memory_segments():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + REPO_ROOT
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=env,
        cwd=REPO_ROOT,
        text=True,
    )
    segments = []
    try:
        deadline = time.monotonic() + 60
        for line in proc.stdout:
            if line.startswith("SEG "):
                segments.append(line.split(None, 1)[1].strip())
            elif line.startswith("READY"):
                break
            assert time.monotonic() < deadline, "child never became ready"
        assert segments, "child published no segments"
        live = [s for s in segments if os.path.exists(f"/dev/shm/{s}")]
        assert live, "expected segment files under /dev/shm"

        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
        # The chained default handler kills the process with SIGTERM
        # after the pools have been closed.
        assert proc.returncode == -signal.SIGTERM
        for name in live:
            assert not os.path.exists(f"/dev/shm/{name}"), (
                f"segment {name} leaked past SIGTERM"
            )
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


_FORK_SAFETY_SCRIPT = """
import multiprocessing, random, time
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.pool import WorkerPool, install_signal_handlers
from tests.conftest import random_edges

install_signal_handlers()
rng = random.Random(5)
graph = TemporalGraph(random_edges(rng, 30, 400, t_max=200))
pool = WorkerPool(2, result_cache=False)
batches = pool.plan_batches(graph)
star, _, tri = pool.run_batches(graph, 20.0, batches)
before = (star.total(), tri.total())

# multiprocessing.Pool.__exit__ -> terminate() SIGTERMs its fork
# children as routine teardown.  Those children inherit both the
# installed handler and this process's pool registry: a non-fork-safe
# handler would close the inherited WorkerPool from inside the child,
# pushing stop sentinels onto the *shared* task queue and unlinking
# the live /dev/shm segments.
ctx = multiprocessing.get_context("fork")
with ctx.Pool(processes=2) as helper:
    helper.map(abs, [1, 2, 3])
time.sleep(1.0)  # let any poisoned sentinel reach the workers

star2, _, tri2 = pool.run_batches(graph, 20.0, batches)
assert not pool.closed, "pool closed by a forked child's signal handler"
assert (star2.total(), tri2.total()) == before
pool.close()
print("OK", flush=True)
"""


def test_signal_handlers_survive_forked_helper_teardown():
    """Forked helpers SIGTERMed by ``Pool.terminate`` must not close pools.

    Fork-method pool workers, and any helper ``multiprocessing.Pool``
    a caller forks, inherit the installed shutdown handler; such a
    pool tears its helpers down with SIGTERM.  Regression: the
    inherited handler used to run ``close_all_pools`` *inside the
    child*, killing every sibling pool in the parent through the
    shared queues and segments.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + REPO_ROOT
    proc = subprocess.run(
        [sys.executable, "-c", _FORK_SAFETY_SCRIPT],
        capture_output=True,
        env=env,
        cwd=REPO_ROOT,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout


_FORK_RESTORE_SCRIPT = """
import os, signal
from repro.parallel.pool import install_signal_handlers

install_signal_handlers()
assert signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL
pid = os.fork()
if pid == 0:
    restored = (
        signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        and signal.getsignal(signal.SIGINT) is signal.default_int_handler
    )
    os._exit(0 if restored else 1)
_, status = os.waitpid(pid, 0)
assert os.waitstatus_to_exitcode(status) == 0, "forked child kept the pool handler"
print("OK", flush=True)
"""


def test_forked_child_gets_previous_signal_disposition():
    """A fork child runs the pre-install handlers, not the pool handler.

    A child blocked in a lock inherited from another thread never runs
    a Python-level handler, so ``Pool.terminate``'s SIGTERM could not
    kill it; the C-level default can.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + os.pathsep + REPO_ROOT
    proc = subprocess.run(
        [sys.executable, "-c", _FORK_RESTORE_SCRIPT],
        capture_output=True,
        env=env,
        cwd=REPO_ROOT,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout


# ---------------------------------------------------------------------------
# idle-worker timeout (satellite 1)
# ---------------------------------------------------------------------------

def test_idle_pool_suspends_workers_and_revives_on_demand():
    graph = make_graph()
    with WorkerPool(2, idle_timeout=0.2, result_cache=False) as pool:
        batches = pool.plan_batches(graph)
        star, _, tri = pool.run_batches(graph, 20.0, batches)
        baseline = (star.total(), tri.total())

        deadline = time.monotonic() + 15
        while not pool.suspended and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.suspended, "idle pool never suspended its workers"
        assert not pool.closed  # suspended != closed

        # The next job transparently revives the workers; answers are
        # bit-identical (the plan/graph caches survive suspension; with
        # no result cache this repeat needs the workers back).
        star2, _, tri2 = pool.run_batches(graph, 20.0, batches)
        assert (star2.total(), tri2.total()) == baseline
        assert not pool.suspended
        assert pool.stats["worker_restarts"] >= 1


def test_closed_pool_stays_closed():
    pool = WorkerPool(1)
    pool.close()
    assert pool.closed
    pool.close()  # idempotent
    assert pool.closed


# ---------------------------------------------------------------------------
# shared_pool thread-safety (satellite 2)
# ---------------------------------------------------------------------------

def test_shared_pool_concurrent_first_use_yields_one_pool():
    close_shared_pools()
    barrier = threading.Barrier(8)
    pools, errors = [], []

    def grab() -> None:
        try:
            barrier.wait(timeout=30)
            pools.append(shared_pool(2))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=grab) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    try:
        assert not errors
        assert len(pools) == 8
        assert all(p is pools[0] for p in pools), "shared_pool returned distinct pools"
        # And the pool that won the race actually works.
        graph = make_graph(seed=9)
        star, _, _ = pools[0].run_batches(graph, 15.0, pools[0].plan_batches(graph))
        assert star.total() >= 0
    finally:
        close_shared_pools()


def test_shared_pool_replaces_closed_pool():
    close_shared_pools()
    try:
        first = shared_pool(1)
        first.close()
        second = shared_pool(1)
        assert second is not first
        assert not second.closed
    finally:
        close_shared_pools()


# ---------------------------------------------------------------------------
# deadline cancellation (tentpole plumbing)
# ---------------------------------------------------------------------------

def test_deadline_already_expired_rejects_before_dispatch():
    graph = make_graph()
    with WorkerPool(1) as pool:
        batches = pool.plan_batches(graph)
        with pytest.raises(DeadlineExceededError):
            pool.run_batches(
                graph, 20.0, batches, deadline=time.monotonic() - 1.0
            )
        assert pool.stats["jobs"] == 0 or pool.stats["jobs_aborted"] == 0


def test_deadline_aborts_job_mid_flight_and_pool_survives():
    # A graph big enough that the columnar pass takes well over the
    # deadline on any machine this runs on (~1 s on 2 cores).
    rng = random.Random(17)
    graph = TemporalGraph(random_edges(rng, 60, 20000, t_max=2000))
    with WorkerPool(2) as pool:
        batches = pool.plan_batches(graph)
        # Warm up first: start the workers and publish the graph, which
        # under spawn can take the whole deadline, so it covers only the
        # job.  The δ = 500 job rebuilds the workers' per-δ tables.
        pool.run_batches(graph, 0.0, batches)
        started = time.monotonic()
        with pytest.raises(DeadlineExceededError):
            pool.run_batches(graph, 500.0, batches, deadline=started + 0.05)
        assert pool.stats["jobs_aborted"] >= 1

        # The abort ring lets workers drain the dead job's tasks, so the
        # same pool must keep answering — and answer correctly.
        small = make_graph(seed=3)
        small_batches = pool.plan_batches(small)
        star, _, tri = pool.run_batches(small, 20.0, small_batches)
        from repro.core.api import count_motifs

        direct = count_motifs(small, 20.0, algorithm="fast")
        served = pool.run_batches(small, 20.0, small_batches)[0]
        assert served.total() == star.total()
        assert star.total() + tri.total() >= 0
        assert direct.total() >= 0


def test_run_map_respects_deadline():
    graph = make_graph(seed=13)
    with WorkerPool(1) as pool:
        with pytest.raises(DeadlineExceededError):
            pool.run_map(
                graph, "bts_blocks", [(0, 10)], args=(20.0, 1, 0),
                deadline=time.monotonic() - 0.5,
            )
