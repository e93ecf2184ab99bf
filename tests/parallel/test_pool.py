"""Persistent shared-memory worker pool: exactness, reuse, lifecycle."""

import time

import numpy as np
import pytest

from repro.core.api import count_motifs, count_motifs_sweep
from repro.errors import ParallelExecutionError, ValidationError
from repro.graph.generators import powerlaw_temporal_graph
from repro.graph.shared import live_segments
from repro.parallel import executor
from repro.parallel.executor import START_METHOD_ENV, resolve_start_method, run_batches
from repro.parallel.hare import hare_count
from repro.parallel.pool import (
    MAP_FUNCTIONS,
    WorkerPool,
    close_shared_pools,
    shared_pool,
)
from repro.parallel.scheduler import build_batches
from tests.conftest import python_fast_counts, random_graph


@pytest.fixture(scope="module")
def fork_pool():
    with WorkerPool(2, "fork", result_cache=False) as pool:
        yield pool


class TestExactness:
    @pytest.mark.parametrize("reference", ["python", "columnar"])
    def test_pool_equals_serial(self, paper_graph, fork_pool, reference):
        """Pool counts equal the python loops and the serial columnar count."""
        if reference == "python":
            serial = python_fast_counts(paper_graph, 10)
        else:
            serial = count_motifs(paper_graph, 10)
        result = count_motifs(paper_graph, 10, workers=2, pool=fork_pool)
        assert result.same_counts(serial)
        assert result.meta["runtime"] == "pool"

    @pytest.mark.parametrize("seed", [1, 4, 9])
    def test_random_graphs(self, fork_pool, seed):
        g = random_graph(seed, num_nodes=8, num_edges=45)
        result = count_motifs(g, 6, workers=2, pool=fork_pool)
        assert result.same_counts(python_fast_counts(g, 6))

    def test_categories(self, paper_graph, fork_pool):
        for categories in ("star", "pair", "triangle", "star_pair"):
            serial = count_motifs(paper_graph, 10, categories=categories)
            result = count_motifs(
                paper_graph, 10, categories=categories, workers=2, pool=fork_pool
            )
            assert result.same_counts(serial), categories

    def test_static_schedule(self, paper_graph, fork_pool):
        serial = count_motifs(paper_graph, 10)
        result = hare_count(paper_graph, 10, workers=2, schedule="static", pool=fork_pool)
        assert result == serial

    def test_empty_graph(self, fork_pool):
        from repro.graph.temporal_graph import TemporalGraph

        assert hare_count(TemporalGraph([]), 10, workers=2, pool=fork_pool).total() == 0

    def test_spawn_pool_exact(self, paper_graph):
        serial = count_motifs(paper_graph, 10)
        with WorkerPool(2, "spawn") as pool:
            result = count_motifs(paper_graph, 10, workers=2, pool=pool)
            assert result.same_counts(serial)
            # Resident workers answer the repeat too (cache or not).
            repeat = count_motifs(paper_graph, 10, workers=2, pool=pool)
            assert repeat.same_counts(serial)


class TestReduction:
    def test_sum_beyond_int64_is_exact(self, paper_graph, monkeypatch):
        # Every batch reports 2**62 in every cell, so two batches already
        # take each reduced cell past int64.  Patched before the fork, so
        # the workers run the stub too.
        big = 2 ** 62
        monkeypatch.setattr(
            executor, "execute_tasks",
            lambda *args, **kwargs: ([big] * 24, [big] * 8, [big] * 24),
        )
        batches = build_batches(paper_graph, 2)
        assert len(batches) >= 2
        expected = len(batches) * big
        with WorkerPool(2, "fork", result_cache=False) as pool:
            star, pair, tri = pool.run_batches(paper_graph, 10, batches)
        assert star.data == [expected] * 24
        assert pair.data == [expected] * 8
        assert tri.data == [expected] * 24
        assert run_batches(paper_graph, 10, batches) == (star, pair, tri)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -1.0])
    def test_bad_delta_rejected_before_dispatch(self, paper_graph, fork_pool, delta):
        jobs = fork_pool.stats["jobs"]
        with pytest.raises(ValidationError, match="finite and non-negative"):
            fork_pool.run_batches(paper_graph, delta, fork_pool.plan_batches(paper_graph))
        assert fork_pool.stats["jobs"] == jobs


def _log_chunk(graph, delta, path, chunk):
    """Map function for the abort test: log the chunk; chunk 0 fails."""
    with open(path, "a") as fh:
        fh.write(f"{chunk}\n")
    if chunk == 0:
        raise RuntimeError("chunk 0 fails")
    time.sleep(0.2)
    return chunk


class TestFailedJob:
    def test_failed_chunk_aborts_the_rest_of_its_job(
        self, paper_graph, monkeypatch, tmp_path
    ):
        # Registered before the fork, so the workers resolve it too.
        monkeypatch.setitem(MAP_FUNCTIONS, "log_chunk", f"{__name__}:_log_chunk")
        log = tmp_path / "chunks.log"
        workers = 2
        with WorkerPool(workers, "fork") as pool:
            with pytest.raises(ParallelExecutionError, match="chunk 0 fails"):
                pool.run_map(paper_graph, "log_chunk", list(range(20)), args=str(log))
            # The next job queues behind what is left of the failed one,
            # so once it answers every earlier chunk was run or skipped.
            next_job = pool.run_map(
                paper_graph, "log_chunk", [1], args=str(tmp_path / "next.log")
            )
            assert next_job == [1]
            ran = log.read_text().split()
            # Chunk 0 plus at most about one chunk per worker already in
            # flight when the owner aborted the job.
            assert len(ran) <= 1 + 2 * workers, ran
            assert pool.stats["jobs_aborted"] == 1


class TestReuse:
    def test_graph_published_once_across_requests(self, paper_graph):
        with WorkerPool(2, "fork", result_cache=False) as pool:
            for delta in (4, 7, 10):
                count_motifs(paper_graph, delta, workers=2, pool=pool)
            assert pool.stats["graphs_published"] == 1
            assert pool.stats["jobs"] == 3

    def test_ex_then_fast_publish_the_graph_once(self, paper_graph):
        # EX slabs and columnar FAST batches read one published segment,
        # which always carries the columnar store.
        with WorkerPool(2, "fork", result_cache=False) as pool:
            ex = count_motifs(paper_graph, 10, algorithm="ex", workers=2, pool=pool)
            fast = count_motifs(paper_graph, 10, algorithm="fast", workers=2, pool=pool)
            assert pool.stats["graphs_published"] == 1
            assert pool.stats["jobs"] == 2
        assert np.array_equal(ex.grid, fast.grid)
        assert ex.same_counts(count_motifs(paper_graph, 10))

    def test_result_cache_hits_identical_requests(self, paper_graph):
        with WorkerPool(2, "fork") as pool:
            first = count_motifs(paper_graph, 10, workers=2, pool=pool)
            again = count_motifs(paper_graph, 10, workers=2, pool=pool)
            assert pool.stats["cache_hits"] == 1
            assert pool.stats["jobs"] == 1
            assert again.same_counts(first)

    def test_cache_distinguishes_different_batch_covers(self, paper_graph):
        """A partial task cover must never be served full-cover counts."""
        with WorkerPool(2, "fork") as pool:
            plan = pool.plan_batches(paper_graph, 2)
            full, _, _ = pool.run_batches(paper_graph, 11.0, plan)
            subset, _, _ = pool.run_batches(paper_graph, 11.0, plan[:1])
            honest, _, _ = pool.run_batches(paper_graph, 11.0, plan[:1], reuse=False)
            assert subset == honest
            assert subset != full
            # ... and the subset result did not poison the full key.
            again, _, _ = pool.run_batches(paper_graph, 11.0, plan)
            assert again == full

    def test_reuse_false_forces_execution(self, paper_graph):
        with WorkerPool(2, "fork") as pool:
            batches = pool.plan_batches(paper_graph, 2)
            pool.run_batches(paper_graph, 10, batches)
            pool.run_batches(paper_graph, 10, batches, reuse=False)
            assert pool.stats["cache_hits"] == 0
            assert pool.stats["jobs"] == 2

    def test_version_bump_invalidates_cache_and_republishes(self, paper_graph):
        with WorkerPool(2, "fork") as pool:
            before = count_motifs(paper_graph, 10, workers=2, pool=pool)
            # Sanctioned in-place mutation: shift every timestamp far
            # apart so no window survives, then invalidate.
            paper_graph._t[:] = np.arange(paper_graph.num_edges) * 1000
            paper_graph.invalidate_caches()
            after = count_motifs(paper_graph, 10, workers=2, pool=pool)
            assert pool.stats["graphs_published"] == 2
            assert not after.same_counts(before)
            assert after.same_counts(count_motifs(paper_graph, 10))

    def test_plan_batches_memoized(self, paper_graph):
        with WorkerPool(2, "fork") as pool:
            plan_a = pool.plan_batches(paper_graph, 2, thrd=5)
            plan_b = pool.plan_batches(paper_graph, 2, thrd=5)
            assert plan_a is plan_b
            plan_c = pool.plan_batches(paper_graph, 2, thrd=None)
            assert plan_c is not plan_a

    def test_pinned_publish_survives_auto_churn(self, paper_graph):
        with WorkerPool(2, "fork", result_cache=False) as pool:
            pool.publish(paper_graph)
            # Churn the auto LRU with throwaway graphs (kept alive so
            # garbage collection is not what evicts them).
            churn = [random_graph(seed, num_nodes=6, num_edges=20) for seed in range(6)]
            for g in churn:
                count_motifs(g, 5, workers=2, pool=pool)
            state = pool._states[id(paper_graph)]
            assert state.pinned and state.handle is not None
            assert pool.stats["graphs_published"] == 7
            # The pinned graph is still served without republication.
            count_motifs(paper_graph, 5, workers=2, pool=pool)
            assert pool.stats["graphs_published"] == 7
            pool.release(paper_graph)
            assert id(paper_graph) not in pool._states

    def test_dead_graph_state_is_reaped(self):
        import gc

        with WorkerPool(2, "fork", result_cache=False) as pool:
            g = random_graph(2, num_nodes=6, num_edges=20)
            count_motifs(g, 5, workers=2, pool=pool)
            key = id(g)
            assert key in pool._states
            del g
            gc.collect()
            assert key not in pool._states


class TestWorkerDeltaTables:
    """Workers build their own per-δ tables; only the graph is shipped."""

    def test_only_the_graph_segment_is_published(self):
        graph = random_graph(3, num_nodes=10, num_edges=120, t_max=200)
        before = set(live_segments())
        with WorkerPool(2, result_cache=False) as pool:
            pool.publish(graph)
            plan = pool.plan_batches(graph, 2)
            for delta in (4, 9, 30):
                pool.run_batches(graph, delta, plan)
            assert len(set(live_segments()) - before) == 1
            assert pool.stats["jobs"] == 3
        assert not set(live_segments()) - before

    def test_alternating_deltas_match_serial(self):
        """A worker whose memo holds δ=b never answers δ=a from it."""

        def fresh():
            return powerlaw_temporal_graph(40, 600, seed=5)

        graph = fresh()
        deltas = (20.0, 90.0, 20.0)
        bts = dict(algorithm="bts", seed=3, n_samples=1, q=0.6)
        with WorkerPool(1, result_cache=False) as pool:
            plan = pool.plan_batches(graph, 1)
            for delta in deltas:
                pooled = pool.run_batches(graph, delta, plan)
                serial = run_batches(fresh(), delta, plan)
                assert pooled == serial, delta
                pooled = count_motifs(graph, delta, pool=pool, **bts)
                serial = count_motifs(fresh(), delta, **bts)
                assert np.array_equal(pooled.grid, serial.grid), delta
            assert pool.stats["jobs"] == 2 * len(deltas)
        # EWS has no pool route: its columnar memo alternates in process.
        ews = dict(algorithm="ews", seed=3, p=0.5, q=0.5)
        for delta in deltas:
            reused = count_motifs(graph, delta, **ews)
            assert np.array_equal(reused.grid, count_motifs(fresh(), delta, **ews).grid), delta


class TestSweepIntegration:
    def test_ex_sweep_runs_on_shared_pool(self, paper_graph):
        """A workers>1 EX sweep farms its time slabs on the shared pool
        and still equals the serial counts."""
        try:
            sweep = count_motifs_sweep(
                paper_graph, deltas=(5, 10), algorithms=("ex",), workers=2
            )
            serial = count_motifs_sweep(paper_graph, deltas=(5, 10), algorithms=("ex",))
            for got, want in zip(sweep, serial):
                assert got.same_counts(want)
            assert shared_pool(2).stats["jobs"] >= 2
        finally:
            close_shared_pools()

    def test_sweep_with_bts_uses_pool_runtime(self, paper_graph):
        """A workers>1 sweep naming bts rides the shared pool and
        still reproduces the serial estimate bit for bit."""
        sweep = count_motifs_sweep(
            paper_graph, deltas=(5,), algorithms=("bts",), workers=2, seed=3
        )
        serial = count_motifs_sweep(
            paper_graph, deltas=(5,), algorithms=("bts",), seed=3
        )
        assert np.array_equal(sweep.results[0].grid, serial.results[0].grid)

    def test_sweep_uses_one_pool(self, paper_graph):
        sweep = count_motifs_sweep(
            paper_graph, deltas=(5, 10), algorithms=("fast",), workers=2
        )
        serial = count_motifs_sweep(paper_graph, deltas=(5, 10), algorithms=("fast",))
        for got, want in zip(sweep, serial):
            assert got.same_counts(want)

    def test_sweep_accepts_external_pool(self, paper_graph, fork_pool):
        sweep = count_motifs_sweep(
            paper_graph, deltas=(5, 10), algorithms=("fast",), workers=2,
            pool=fork_pool,
        )
        assert len(sweep) == 2
        assert not fork_pool.closed


class TestLifecycle:
    def test_closed_pool_rejects_work(self, paper_graph):
        pool = WorkerPool(2, "fork")
        pool.close()
        batches = build_batches(paper_graph, 2)
        with pytest.raises(ParallelExecutionError, match="closed"):
            pool.run_batches(paper_graph, 10, batches)

    def test_close_idempotent(self):
        pool = WorkerPool(1, "fork")
        pool.close()
        pool.close()
        assert pool.closed

    def test_invalid_workers(self):
        with pytest.raises(ValidationError):
            WorkerPool(0)

    def test_invalid_backend(self, paper_graph, fork_pool):
        """Batches always run the columnar kernels: no backend knob."""
        with pytest.raises(TypeError):
            fork_pool.run_batches(paper_graph, 10, [], backend="python")

    def test_invalid_start_method(self):
        with pytest.raises(ValidationError, match="start method"):
            WorkerPool(1, "osthread")

    def test_shared_pool_is_cached_and_replaced_after_close(self):
        try:
            a = shared_pool(2, "fork")
            b = shared_pool(2, "fork")
            assert a is b
            a.close()
            c = shared_pool(2, "fork")
            assert c is not a
            assert not c.closed
        finally:
            close_shared_pools()


class TestRouting:
    def test_env_spawn_routes_through_shared_pool(self, paper_graph, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        try:
            serial = count_motifs(paper_graph, 10)
            result = count_motifs(paper_graph, 10, workers=2)
            assert result.same_counts(serial)
            # Provenance reflects the actual routing, not the absence
            # of an explicit pool argument.
            assert result.meta["runtime"] == "pool"
            pool = shared_pool(2, "spawn")
            assert pool.stats["jobs"] >= 1
        finally:
            close_shared_pools()

    def test_runtime_label_matches_routing(self, paper_graph, fork_pool):
        assert count_motifs(paper_graph, 10).meta.get("runtime") is None  # serial fast
        try:
            assert (
                count_motifs(paper_graph, 10, workers=2, start_method="fork").meta["runtime"]
                == "pool"
            )
        finally:
            close_shared_pools()
        assert (
            count_motifs(paper_graph, 10, workers=2, pool=fork_pool).meta["runtime"]
            == "pool"
        )

    def test_explicit_start_method_argument(self, paper_graph):
        try:
            serial = count_motifs(paper_graph, 10)
            result = count_motifs(paper_graph, 10, workers=2, start_method="spawn")
            assert result.same_counts(serial)
        finally:
            close_shared_pools()

    def test_resolve_start_method_precedence(self, monkeypatch):
        assert resolve_start_method("fork") == "fork"
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        assert resolve_start_method() == "spawn"
        assert resolve_start_method("fork") == "fork"
        monkeypatch.delenv(START_METHOD_ENV)
        assert resolve_start_method() in ("fork", "spawn")
        with pytest.raises(ValidationError, match="not available"):
            resolve_start_method("no-such-method")

    def test_run_batches_pool_parameter(self, paper_graph, fork_pool):
        batches = build_batches(paper_graph, 2)
        star, pair, tri = run_batches(paper_graph, 10, batches, pool=fork_pool)
        star_s, pair_s, tri_s = run_batches(paper_graph, 10, batches)
        assert star == star_s and pair == pair_s and tri == tri_s

    def test_single_worker_pool_still_routes_through_pool(self, paper_graph):
        """workers=1 with an explicit pool exercises the resident
        runtime (not a silent in-process fallback) — the scaling
        curve's 1-worker point depends on this."""
        serial = count_motifs(paper_graph, 10)
        with WorkerPool(1, "fork", result_cache=False) as pool:
            result = hare_count(paper_graph, 10, workers=1, pool=pool)
            assert result == serial
            assert pool.stats["jobs"] == 1

    @pytest.mark.parametrize("algorithm", ["fast", "ex", "bts"])
    def test_explicit_pool_wins_at_one_worker(self, fork_pool, algorithm):
        """``count_motifs(pool=p)`` runs every parallel algorithm on
        ``p`` even at ``workers=1``, with the serial count's grid."""
        graph = random_graph(6, num_nodes=8, num_edges=200, t_max=400)
        kwargs = {} if algorithm != "bts" else {"seed": 5, "n_samples": 1}
        serial = count_motifs(graph, 10, algorithm=algorithm, **kwargs)
        jobs = fork_pool.stats["jobs"]
        pooled = count_motifs(graph, 10, algorithm=algorithm, pool=fork_pool, **kwargs)
        assert fork_pool.stats["jobs"] > jobs
        assert np.array_equal(pooled.grid, serial.grid)

    def test_ex_and_bts_honor_non_fork_start_method(self):
        """EX and BTS run on the shared pool of the requested start
        method, and their counts equal the serial run bit for bit."""
        graph = random_graph(4, num_nodes=8, num_edges=200, t_max=400)
        try:
            for algorithm in ("ex", "bts"):
                kwargs = {} if algorithm == "ex" else {"seed": 5, "n_samples": 1}
                serial = count_motifs(graph, 10, algorithm=algorithm, **kwargs)
                jobs = shared_pool(2, "spawn").stats["jobs"]
                spawned = count_motifs(
                    graph, 10, algorithm=algorithm, workers=2,
                    start_method="spawn", **kwargs,
                )
                assert np.array_equal(serial.grid, spawned.grid), algorithm
                assert shared_pool(2, "spawn").stats["jobs"] > jobs, algorithm
        finally:
            close_shared_pools()


class TestStreamingIntegration:
    def test_parallel_slice_runs_as_one_shared_pool_job(self):
        """A ``workers=2`` engine counts each parallel dirty slice as
        exactly one job on ``shared_pool(2)``, and its checkpoints equal
        a serial engine's."""
        from repro.core.registry import StreamRequest, open_stream

        g = powerlaw_temporal_graph(60, 900, seed=3)
        edges = list(g.internal_edges())
        settings = dict(delta=2000.0, window=float(g.time_span) / 2)
        serial_engine = open_stream(StreamRequest(**settings))
        close_shared_pools()
        try:
            pool = shared_pool(2)
            request = StreamRequest(workers=2, parallel_min_edges=100, **settings)
            with open_stream(request) as engine:
                sizes = []
                slice_graph = engine.store.slice_graph

                def recording_slice_graph(t_lo, t_hi):
                    graph = slice_graph(t_lo, t_hi)
                    sizes.append(graph.num_edges)
                    return graph

                engine.store.slice_graph = recording_slice_graph
                for batch in (edges[:300], edges[300:600], edges[600:]):
                    sizes.clear()
                    jobs = pool.stats["jobs"]
                    engine.ingest(batch)
                    serial_engine.ingest(batch)
                    parallel_slices = sum(size >= 100 for size in sizes)
                    assert parallel_slices >= 1
                    assert pool.stats["jobs"] - jobs == parallel_slices
                    assert engine.checkpoint().counts.same_counts(
                        serial_engine.checkpoint().counts
                    )
            assert not pool.closed  # the engine never owns its pool
        finally:
            close_shared_pools()

    def test_engine_without_parallel_never_creates_pool(self, paper_graph, monkeypatch):
        from repro.core.registry import StreamRequest, open_stream
        from repro.parallel import pool as pool_module

        def no_pool(*args, **kwargs):
            raise AssertionError("a serial engine must not start a pool")

        monkeypatch.setattr(pool_module, "shared_pool", no_pool)
        monkeypatch.setattr(pool_module, "WorkerPool", no_pool)
        with open_stream(StreamRequest(delta=5.0)) as engine:
            engine.ingest(list(paper_graph.internal_edges()))
        assert engine.counts().same_counts(count_motifs(paper_graph, 5.0))
