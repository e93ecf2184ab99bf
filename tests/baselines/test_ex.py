"""Tests for the EX baseline (Paranjape et al. reimplementation)."""

import pytest
from hypothesis import given, settings

from repro.baselines.exact_ex import (
    ex_count,
    ex_pair_counts,
    ex_star_counts,
    ex_triangle_counts,
    make_slabs,
    static_triangles,
    _ex_partial,
)
from repro.core.api import count_motifs
from repro.core.bruteforce import brute_force_counts
from repro.core.motifs import MotifCategory
from repro.errors import ValidationError
from repro.graph.temporal_graph import TemporalGraph
from tests.conftest import race_in_two_threads
from tests.core.test_properties import deltas, temporal_graphs
from tests.parallel.test_hare import hub_graph


@settings(max_examples=100, deadline=None)
@given(graph=temporal_graphs(), delta=deltas)
def test_ex_equals_bruteforce(graph, delta):
    assert ex_count(graph, delta) == brute_force_counts(graph, delta)


@settings(max_examples=50, deadline=None)
@given(graph=temporal_graphs(), delta=deltas, workers=deltas.map(lambda d: d % 3 + 2))
def test_ex_slab_partition_exact(graph, delta, workers):
    """Summing per-slab partial grids reproduces the full counts."""
    graph.ensure_pair_index()
    total = {}
    for slab in make_slabs(graph, workers):
        for name, value in _ex_partial(graph, delta, "all", slab).items():
            total[name] = total.get(name, 0) + value
    expected = {k: v for k, v in brute_force_counts(graph, delta).per_motif().items() if v}
    assert total == expected


class TestComponents:
    def test_pair_component(self, paper_graph):
        pairs = ex_pair_counts(paper_graph, 10)
        expected = {
            name: value
            for name, value in brute_force_counts(paper_graph, 10).per_motif().items()
            if value and GRID_CATEGORY(name) is MotifCategory.PAIR
        }
        assert pairs == expected

    def test_star_component(self, paper_graph):
        stars = ex_star_counts(paper_graph, 10)
        expected = {
            name: value
            for name, value in brute_force_counts(paper_graph, 10).per_motif().items()
            if value and GRID_CATEGORY(name) is MotifCategory.STAR
        }
        assert stars == expected

    def test_triangle_component(self, paper_graph):
        tris = ex_triangle_counts(paper_graph, 10)
        expected = {
            name: value
            for name, value in brute_force_counts(paper_graph, 10).per_motif().items()
            if value and GRID_CATEGORY(name) is MotifCategory.TRIANGLE
        }
        assert tris == expected

    def test_categories_option(self, paper_graph):
        full = count_motifs(paper_graph, 10)
        star_only = ex_count(paper_graph, 10, categories="star")
        assert star_only.category_total(MotifCategory.STAR) == \
            full.category_total(MotifCategory.STAR)
        assert star_only.category_total(MotifCategory.PAIR) == 0


def GRID_CATEGORY(name):
    from repro.core.motifs import MOTIFS_BY_NAME

    return MOTIFS_BY_NAME[name].category


class TestStaticTriangles:
    def test_single_triangle(self, triangle_graph):
        assert static_triangles(triangle_graph) == [(0, 1, 2)]

    def test_triangle_counted_once(self):
        # dense multigraph on a triangle
        g = TemporalGraph([(0, 1, 1), (1, 0, 2), (1, 2, 3), (2, 1, 4), (0, 2, 5)])
        assert static_triangles(g) == [(0, 1, 2)]

    def test_no_triangles(self, tiny_pair_graph):
        assert static_triangles(tiny_pair_graph) == []

    def test_two_triangles_sharing_edge(self):
        g = TemporalGraph([(0, 1, 1), (1, 2, 2), (0, 2, 3), (1, 3, 4), (0, 3, 5)])
        assert sorted(static_triangles(g)) == [(0, 1, 2), (0, 1, 3)]


class TestParallel:
    def test_fork_parallel_equals_serial(self, paper_graph):
        serial = ex_count(paper_graph, 10)
        assert ex_count(paper_graph, 10, workers=3) == serial

    def test_concurrent_fork_calls_on_different_graphs(self):
        """Each forked EX run counts its own graph, not a neighbour's."""
        graphs = [hub_graph(seed=11), hub_graph(seed=12)]
        serial = [ex_count(g, 40) for g in graphs]
        results = race_in_two_threads(
            lambda i: ex_count(graphs[i], 40, workers=2, start_method="fork")
        )
        for i in range(2):
            assert all(result == serial[i] for result in results[i])

    def test_single_slab(self, paper_graph):
        slabs = make_slabs(paper_graph, 1)
        assert slabs == [(None, None)]

    def test_slab_count(self, paper_graph):
        assert len(make_slabs(paper_graph, 4)) == 4

    def test_validation(self, paper_graph):
        with pytest.raises(ValidationError):
            ex_count(paper_graph, -1)
        with pytest.raises(ValidationError):
            ex_count(paper_graph, 10, workers=0)

    def test_empty_graph_parallel(self):
        assert ex_count(TemporalGraph([]), 10, workers=2).total() == 0
