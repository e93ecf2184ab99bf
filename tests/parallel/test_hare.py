"""Tests for the HARE parallel framework: exactness above all."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings

from repro.core.api import count_motifs
from repro.core.fast_star import count_star_pair
from repro.core.fast_tri import count_triangle
from repro.errors import ValidationError
from repro.graph.generators import star_burst_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.executor import run_batches
from repro.parallel.hare import hare_count
from repro.parallel.pool import WorkerPool
from repro.parallel.scheduler import build_batches
from tests.conftest import python_fast_counts
from tests.core.test_properties import deltas, temporal_graphs


@settings(max_examples=25, deadline=None)
@given(graph=temporal_graphs(max_edges=40), delta=deltas)
def test_hare_equals_serial(graph, delta):
    serial = count_motifs(graph, delta)
    assert hare_count(graph, delta, workers=2) == serial


@settings(max_examples=15, deadline=None)
@given(graph=temporal_graphs(max_edges=30), delta=deltas)
def test_hare_static_schedule_equals_serial(graph, delta):
    serial = count_motifs(graph, delta)
    assert hare_count(graph, delta, workers=2, schedule="static") == serial


@pytest.fixture(scope="module")
def category_pool():
    """An explicit pool (``REPRO_START_METHOD`` picks how it starts)."""
    with WorkerPool(2, result_cache=False) as pool:
        yield pool


def hub_graph(seed: int) -> TemporalGraph:
    """Two hubs above the default ``thrd`` amid triangle-closing chatter."""
    rng = random.Random(seed)
    edges = []
    for t in range(400):
        hub = t % 2
        peer = rng.randrange(2, 30)
        edges.append((hub, peer, t) if rng.random() < 0.5 else (peer, hub, t))
        if t % 3 == 0:
            a, b = rng.sample(range(2, 30), 2)
            edges.append((a, b, t + rng.randrange(0, 20)))
    return TemporalGraph(edges)


class TestConfigurations:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("thrd", [None, 0, 5, float("inf")])
    def test_workers_and_thrd_grid(self, paper_graph, workers, thrd):
        serial = count_motifs(paper_graph, 10)
        assert hare_count(paper_graph, 10, workers=workers, thrd=thrd) == serial

    def test_heavy_hub_graph(self):
        g = star_burst_graph(30, 6, seed=4)
        serial = count_motifs(g, 50)
        assert hare_count(g, 50, workers=2, thrd=10) == serial

    @pytest.mark.parametrize("reference", ["python", "columnar"])
    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_hub_graph_both_backends(self, workers, reference):
        """HARE equals the python loops and the serial columnar count."""
        g = hub_graph(seed=workers)
        if reference == "python":
            expected = python_fast_counts(g, 40)
        else:
            expected = count_motifs(g, 40)
        assert hare_count(g, 40, workers=workers).same_counts(expected)

    @staticmethod
    def check_category(graph, pool, category):
        """``hare_count(categories=c)`` equals the serial count, on every route."""
        expected = count_motifs(graph, 10, categories=category)
        serial = hare_count(graph, 10, workers=1, categories=category)
        assert serial == expected
        assert serial.meta["runtime"] == "serial"
        assert hare_count(graph, 10, workers=2, categories=category) == expected
        jobs = pool.stats["jobs"]
        on_pool = hare_count(graph, 10, workers=2, categories=category, pool=pool)
        assert on_pool == expected
        assert on_pool.meta["runtime"] == "pool"
        assert pool.stats["jobs"] == jobs + 1  # both passes run as one job

    def test_categories_star(self, paper_graph, category_pool):
        self.check_category(paper_graph, category_pool, "star")

    def test_categories_pair(self, paper_graph, category_pool):
        self.check_category(paper_graph, category_pool, "pair")

    def test_categories_triangle(self, paper_graph, category_pool):
        self.check_category(paper_graph, category_pool, "triangle")

    def test_categories_star_pair(self, paper_graph, category_pool):
        # The HARE-Pair workload of Fig. 11: the star/pair pass alone.
        self.check_category(paper_graph, category_pool, "star_pair")

    def test_categories_all(self, paper_graph, category_pool):
        self.check_category(paper_graph, category_pool, "all")

    def test_metadata(self, paper_graph):
        result = hare_count(paper_graph, 10, workers=2, schedule="static")
        assert result.algorithm == "hare[2]"
        assert result.meta["schedule"] == "static"

    def test_negative_delta(self, paper_graph):
        with pytest.raises(ValidationError):
            hare_count(paper_graph, -1, workers=2)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -1.0])
    def test_every_entry_point_rejects_bad_delta(self, paper_graph, delta):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            hare_count(paper_graph, delta, workers=2)
        batches = build_batches(paper_graph, 2)
        with pytest.raises(ValidationError, match="finite and non-negative"):
            run_batches(paper_graph, delta, batches)

    def test_empty_graph(self):
        assert hare_count(TemporalGraph([]), 10, workers=2).total() == 0


class TestCategoryPasses:
    def test_hare_triangle_matches_serial(self, paper_graph, category_pool):
        # The triangle pass alone, on two workers, against the serial kernel.
        batches = build_batches(paper_graph, workers=2)
        star, pair, tri = run_batches(
            paper_graph, 10, batches, pool=category_pool, star_pair=False
        )
        assert star is None and pair is None
        assert tri == count_triangle(paper_graph, 10)


class TestExecutor:
    def test_run_batches_serial_path(self, paper_graph):
        batches = build_batches(paper_graph, workers=1)
        star, pair, tri = run_batches(paper_graph, 10, batches)
        star_s, pair_s = count_star_pair(paper_graph, 10)
        assert star == star_s
        assert pair == pair_s
        assert tri == count_triangle(paper_graph, 10)

    def test_star_pair_only(self, paper_graph):
        batches = build_batches(paper_graph, workers=1)
        star, pair, tri = run_batches(paper_graph, 10, batches, triangle=False)
        assert tri is None
        assert star is not None

    def test_triangle_only(self, paper_graph):
        batches = build_batches(paper_graph, workers=1)
        star, pair, tri = run_batches(paper_graph, 10, batches, star_pair=False)
        assert star is None and pair is None
        assert tri == count_triangle(paper_graph, 10)

    def test_invalid_schedule(self, paper_graph):
        with pytest.raises(ValidationError, match="schedule"):
            hare_count(paper_graph, 10, workers=1, schedule="guided")

    def test_invalid_workers(self, paper_graph):
        with pytest.raises(ValidationError, match="workers"):
            hare_count(paper_graph, 10, workers=0)

    def test_oversubscription_is_exact(self, paper_graph):
        serial = count_motifs(paper_graph, 10)
        assert hare_count(paper_graph, 10, workers=6) == serial


class TestSharedPoolThreads:
    def test_concurrent_calls_on_different_graphs(self):
        """Threads sharing the process-wide pool each see their own graph.

        Every call counts a fresh copy of its thread's graph, so each
        one publishes and executes instead of hitting the result cache.
        """
        serial = [count_motifs(hub_graph(seed=11 + i), 40) for i in range(2)]
        results = [[], []]

        def run(i: int) -> None:
            for _ in range(6):
                results[i].append(hare_count(hub_graph(seed=11 + i), 40, workers=2))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for i in range(2):
            assert len(results[i]) == 6
            assert all(result == serial[i] for result in results[i])
            assert all(result.meta["runtime"] == "pool" for result in results[i])
