"""Tests for the unified count_motifs entry point."""

import pytest

from repro.core.api import count_motifs
from repro.core.fast_star import count_star_pair
from repro.core.motifs import MotifCategory
from repro.errors import ValidationError
from repro.graph.temporal_graph import TemporalGraph


class TestOptions:
    def test_default_algorithm_is_fast(self, paper_graph):
        counts = count_motifs(paper_graph, 10)
        assert counts.algorithm == "fast"
        assert counts.delta == 10

    def test_elapsed_recorded(self, paper_graph):
        counts = count_motifs(paper_graph, 10)
        assert counts.elapsed_seconds > 0

    def test_algorithms_agree(self, paper_graph):
        fast = count_motifs(paper_graph, 10, algorithm="fast")
        ex = count_motifs(paper_graph, 10, algorithm="ex")
        brute = count_motifs(paper_graph, 10, algorithm="bruteforce")
        assert fast == ex == brute

    def test_unknown_algorithm(self, paper_graph):
        with pytest.raises(ValidationError):
            count_motifs(paper_graph, 10, algorithm="quantum")

    def test_unknown_categories(self, paper_graph):
        with pytest.raises(ValidationError):
            count_motifs(paper_graph, 10, categories="everything")

    def test_invalid_workers(self, paper_graph):
        with pytest.raises(ValidationError):
            count_motifs(paper_graph, 10, workers=0)

    def test_negative_delta(self, paper_graph):
        with pytest.raises(ValidationError):
            count_motifs(paper_graph, -1)


#: A graph on which a NaN δ once gave the δ=∞ answer (ex, bt,
#: bruteforce), 0 (twoscent, ews) or an untyped error (fast, bts).
SIX_EDGES = [(0, 1, 1), (1, 2, 2), (2, 0, 3), (0, 1, 4), (1, 0, 5), (0, 2, 5.5)]
BAD_DELTAS = pytest.mark.parametrize(
    "delta", [float("nan"), float("inf"), -float("inf"), -1.0],
    ids=["nan", "inf", "-inf", "negative"],
)


@BAD_DELTAS
class TestDeltaValidation:
    @pytest.mark.parametrize(
        "algorithm", ["fast", "ex", "bruteforce", "bt", "twoscent", "bts", "ews"]
    )
    def test_every_algorithm_rejects(self, algorithm, delta):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            count_motifs(TemporalGraph(SIX_EDGES), delta, algorithm=algorithm)

    def test_kernel_entry_raises_typed_error(self, delta):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            count_star_pair(TemporalGraph(SIX_EDGES), delta)


class TestCategorySelection:
    @pytest.mark.parametrize("algorithm", ["fast", "ex", "bruteforce"])
    def test_star_only(self, paper_graph, algorithm):
        counts = count_motifs(paper_graph, 10, algorithm=algorithm, categories="star")
        full = count_motifs(paper_graph, 10)
        assert counts.category_total(MotifCategory.STAR) == full.category_total(MotifCategory.STAR)
        assert counts.category_total(MotifCategory.PAIR) == 0
        assert counts.category_total(MotifCategory.TRIANGLE) == 0

    @pytest.mark.parametrize("algorithm", ["fast", "ex", "bruteforce"])
    def test_pair_only(self, paper_graph, algorithm):
        counts = count_motifs(paper_graph, 10, algorithm=algorithm, categories="pair")
        full = count_motifs(paper_graph, 10)
        assert counts.category_total(MotifCategory.PAIR) == full.category_total(MotifCategory.PAIR)
        assert counts.category_total(MotifCategory.STAR) == 0

    @pytest.mark.parametrize("algorithm", ["fast", "ex", "bruteforce"])
    def test_triangle_only(self, paper_graph, algorithm):
        counts = count_motifs(paper_graph, 10, algorithm=algorithm, categories="triangle")
        full = count_motifs(paper_graph, 10)
        assert counts.category_total(MotifCategory.TRIANGLE) == full.category_total(MotifCategory.TRIANGLE)
        assert counts.category_total(MotifCategory.PAIR) == 0

    def test_star_pair(self, paper_graph):
        counts = count_motifs(paper_graph, 10, categories="star_pair")
        full = count_motifs(paper_graph, 10)
        assert counts.category_total(MotifCategory.STAR) == full.category_total(MotifCategory.STAR)
        assert counts.category_total(MotifCategory.PAIR) == full.category_total(MotifCategory.PAIR)
        assert counts.category_total(MotifCategory.TRIANGLE) == 0


class TestParallelRouting:
    def test_workers_route_through_hare(self, paper_graph):
        serial = count_motifs(paper_graph, 10)
        parallel = count_motifs(paper_graph, 10, workers=2)
        assert parallel == serial
        assert parallel.algorithm.startswith("hare")

    def test_ex_parallel(self, paper_graph):
        serial = count_motifs(paper_graph, 10, algorithm="ex")
        parallel = count_motifs(paper_graph, 10, algorithm="ex", workers=2)
        assert parallel == serial

    def test_parallel_categories(self, paper_graph):
        serial = count_motifs(paper_graph, 10, categories="triangle")
        parallel = count_motifs(paper_graph, 10, categories="triangle", workers=2)
        assert parallel == serial

    def test_static_schedule(self, paper_graph):
        assert count_motifs(paper_graph, 10, workers=2, schedule="static") == \
            count_motifs(paper_graph, 10)

    def test_explicit_thrd(self, paper_graph):
        assert count_motifs(paper_graph, 10, workers=2, thrd=3) == \
            count_motifs(paper_graph, 10)


class TestEmptyAndTiny:
    def test_empty_graph(self):
        counts = count_motifs(TemporalGraph([]), 10)
        assert counts.total() == 0

    def test_two_edges(self):
        counts = count_motifs(TemporalGraph([(0, 1, 1), (1, 2, 2)]), 10)
        assert counts.total() == 0
