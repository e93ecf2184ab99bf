"""Tests for HARE's task construction and scheduling."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.graph.generators import star_burst_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel import scheduler
from repro.parallel.scheduler import WorkBatch, build_batches, partition_static


def coverage(batches, graph):
    """Map node -> set of first-edge indices covered by the tasks."""
    covered = {}
    for batch in batches:
        for node, lo, hi in batch.tasks.tolist():
            top = graph.degree(node) if hi < 0 else min(hi, graph.degree(node))
            for i in range(lo, top):
                covered.setdefault(node, set()).add(i)
    return covered


class TestCoverage:
    def test_every_first_edge_covered_exactly_once(self, paper_graph):
        batches = build_batches(paper_graph, workers=3, thrd=2)
        seen = {}
        for batch in batches:
            assert batch.tasks.dtype == np.int64 and batch.tasks.shape[1] == 3
            for node, lo, hi in batch.tasks.tolist():
                top = paper_graph.degree(node) if hi < 0 else min(hi, paper_graph.degree(node))
                for i in range(lo, top):
                    key = (node, i)
                    assert key not in seen, f"duplicate coverage of {key}"
                    seen[key] = True
        for node in range(paper_graph.num_nodes):
            degree = paper_graph.degree(node)
            if degree < 2:
                continue
            for i in range(degree):
                assert (node, i) in seen

    def test_degree_one_nodes_skipped(self):
        g = TemporalGraph([(0, 1, 1), (0, 2, 2), (0, 3, 3)])
        batches = build_batches(g, workers=2)
        nodes = {task[0] for b in batches for task in b.tasks}
        assert nodes == {0}  # leaves have degree 1

    def test_degree_two_nodes_kept_for_triangles(self):
        g = TemporalGraph([(0, 1, 1), (1, 2, 2), (2, 0, 3)])
        batches = build_batches(g, workers=2)
        nodes = {task[0] for b in batches for task in b.tasks}
        assert nodes == {0, 1, 2}


class TestHeavySplitting:
    def test_heavy_node_is_split(self):
        g = star_burst_graph(20, 5, seed=1)  # hub degree 100
        hub = g.index(0)
        batches = build_batches(g, workers=2, thrd=10)
        hub_tasks = [t for b in batches for t in b.tasks if t[0] == hub]
        assert len(hub_tasks) >= 8  # split into ~workers*PIECES_PER_WORKER ranges

    def test_infinite_thrd_disables_splitting(self):
        g = star_burst_graph(20, 5, seed=1)
        hub = g.index(0)
        batches = build_batches(g, workers=2, thrd=float("inf"))
        hub_tasks = [t for b in batches for t in b.tasks.tolist() if t[0] == hub]
        assert hub_tasks == [[hub, 0, -1]]

    def test_default_thrd_uses_top20_rule(self):
        g = star_burst_graph(30, 4, seed=2)
        batches_default = build_batches(g, workers=2)
        batches_explicit = build_batches(g, workers=2, thrd=4)
        assert sum(len(b.tasks) for b in batches_default) == \
            sum(len(b.tasks) for b in batches_explicit)

    def test_thrd_zero_splits_everything_splittable(self):
        g = TemporalGraph([(0, 1, 1), (1, 2, 2), (0, 2, 3), (2, 0, 4)])
        batches = build_batches(g, workers=2, thrd=0)
        # every node with degree >= 2 appears in range tasks
        for batch in batches:
            for node, lo, hi in batch.tasks.tolist():
                assert hi == -1 or hi - lo >= 1

    def test_heavy_pieces_are_consecutive(self):
        g = star_burst_graph(20, 5, seed=1)  # hub degree 100
        hub = g.index(0)
        batches = build_batches(g, workers=2, thrd=10)
        pieces = sorted(
            (lo, hi) for b in batches for n, lo, hi in b.tasks.tolist() if n == hub
        )
        assert len(pieces) == 2 * scheduler.PIECES_PER_WORKER
        assert pieces[0][0] == 0 and pieces[-1][1] == -1
        for (_, hi), (lo, _) in zip(pieces, pieces[1:]):
            assert hi == lo
        for batch in batches:
            # A batch holds a contiguous run of the node-ordered cover.
            mine = [(lo, hi) for n, lo, hi in batch.tasks.tolist() if n == hub]
            for (_, hi), (lo, _) in zip(mine, mine[1:]):
                assert hi == lo

    @pytest.mark.parametrize("workers", [1, 2, 3, 5])
    @pytest.mark.parametrize("batches_per_worker", [1, 4])
    def test_batch_count_bounded_with_many_hubs(
        self, monkeypatch, workers, batches_per_worker
    ):
        monkeypatch.setattr(scheduler, "BATCHES_PER_WORKER", batches_per_worker)
        # thrd=0 makes every node heavy: hundreds of pieces, few batches.
        g = star_burst_graph(40, 6, seed=5)
        batches = build_batches(g, workers=workers, thrd=0)
        assert sum(len(b.tasks) for b in batches) > 40 * workers
        assert len(batches) <= workers * batches_per_worker
        weights = sorted(b.weight for b in batches)
        assert weights[-1] <= 2 * sum(weights) / len(weights)

    def test_one_oversized_task_keeps_cover(self):
        # A hub heavier than a whole batch target, never split.
        g = star_burst_graph(30, 4, seed=2)
        batches = build_batches(g, workers=2, thrd=float("inf"))
        assert len(batches) <= 2 * scheduler.BATCHES_PER_WORKER
        assert coverage(batches, g) == coverage(build_batches(g, 1, thrd=2), g)

    def test_batches_sorted_heaviest_first(self):
        g = star_burst_graph(15, 4, seed=3)
        batches = build_batches(g, workers=2, thrd=5)
        weights = [b.weight for b in batches]
        assert weights == sorted(weights, reverse=True)


class TestStaticPartition:
    def test_one_mega_batch_per_worker(self, paper_graph):
        batches = build_batches(paper_graph, workers=3)
        merged = partition_static(batches, 3)
        assert len(merged) <= 3
        total_tasks = sum(len(b.tasks) for b in batches)
        assert sum(len(b.tasks) for b in merged) == total_tasks

    def test_static_keeps_coverage(self, paper_graph):
        dynamic = build_batches(paper_graph, workers=2, thrd=3)
        static = partition_static(dynamic, 2)
        assert coverage(dynamic, paper_graph) == coverage(static, paper_graph)

    def test_validation(self):
        with pytest.raises(ValidationError):
            partition_static([], 0)


class TestValidation:
    def test_workers_validation(self, paper_graph):
        with pytest.raises(ValidationError):
            build_batches(paper_graph, workers=0)

    def test_empty_graph(self):
        assert build_batches(TemporalGraph([]), workers=2) == []

    def test_workbatch_add(self):
        batch = WorkBatch()
        assert batch.tasks.shape == (0, 3)
        batch.add(np.array([[0, 0, -1]], dtype=np.int64), 5)
        batch.add(np.array([[1, 0, 4], [1, 4, -1]], dtype=np.int64), 2)
        assert batch.weight == 7
        assert batch.tasks.dtype == np.int64
        assert batch.tasks.tolist() == [[0, 0, -1], [1, 0, 4], [1, 4, -1]]
