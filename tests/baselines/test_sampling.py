"""Tests for the sampling baselines: EWS and BTS."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.baselines.sampling_bts import bts_count, bts_count_pairs
from repro.baselines.sampling_ews import ews_count
from repro.core.bruteforce import brute_force_counts
from repro.core.motifs import PAIR_MOTIFS
from repro.errors import ValidationError
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.executor import START_METHOD_ENV
from tests.conftest import python_bts_estimate, python_ews_estimate, race_in_two_threads
from tests.core.test_properties import deltas, temporal_graphs
from tests.parallel.test_hare import hub_graph


@settings(max_examples=60, deadline=None)
@given(graph=temporal_graphs(), delta=deltas)
def test_ews_with_full_sampling_is_exact(graph, delta):
    """p = q = 1 must reproduce the exact counts (unbiasedness anchor)."""
    estimate = ews_count(graph, delta, p=1.0, q=1.0)
    exact = brute_force_counts(graph, delta)
    assert np.allclose(estimate.grid, exact.grid)


@settings(max_examples=40, deadline=None)
@given(graph=temporal_graphs(), delta=deltas)
def test_ews_columnar_full_sampling_equals_fast(graph, delta):
    """The columnar kernel's p = q = 1 degeneracy is *exactly* FAST:
    every candidate counted once, so the float grid equals the exact
    int grid cell for cell (the vectorized unbiasedness anchor)."""
    from repro.core.api import count_motifs

    estimate = ews_count(graph, delta, p=1.0, q=1.0)
    exact = count_motifs(graph, delta)
    assert np.array_equal(estimate.grid, exact.grid)


@settings(max_examples=25, deadline=None)
@given(graph=temporal_graphs(max_edges=30), delta=deltas)
def test_sampling_backends_bit_identical(graph, delta):
    """Fixed seed ⇒ python reference and kernel agree bit for bit (BTS + EWS)."""
    for p, q in ((0.6, 1.0), (0.6, 0.5)):
        py = python_ews_estimate(graph, delta, p=p, q=q, seed=5)
        col = ews_count(graph, delta, p=p, q=q, seed=5)
        assert np.array_equal(py, col.grid), (p, q)
    py = python_bts_estimate(graph, delta, q=0.7, seed=5)
    col = bts_count(graph, delta, q=0.7, seed=5, exact_when_full=False)
    assert np.array_equal(py, col.grid)


class TestEWS:
    def test_estimates_are_floats(self, paper_graph):
        result = ews_count(paper_graph, 10, p=0.5, seed=1)
        assert not result.is_exact
        assert result.algorithm == "ews"

    def test_deterministic_per_seed(self, paper_graph):
        a = ews_count(paper_graph, 10, p=0.5, seed=42)
        b = ews_count(paper_graph, 10, p=0.5, seed=42)
        assert np.array_equal(a.grid, b.grid)

    def test_unbiased_over_seeds(self):
        g = TemporalGraph(
            [(0, 1, t) for t in range(0, 30, 3)]
            + [(0, 2, t + 1) for t in range(0, 30, 3)]
        )
        exact = brute_force_counts(g, 8)
        grids = [ews_count(g, 8, p=0.5, seed=s).grid for s in range(400)]
        mean = np.mean(grids, axis=0)
        # total-count relative error under 10% with 400 draws
        assert abs(mean.sum() - exact.grid.sum()) <= 0.1 * max(exact.grid.sum(), 1)

    def test_wedge_subsampling_unbiased_anchor(self, paper_graph):
        full = ews_count(paper_graph, 10, p=1.0, q=1.0)
        exact = brute_force_counts(paper_graph, 10)
        assert np.allclose(full.grid, exact.grid)

    def test_parameter_validation(self, paper_graph):
        with pytest.raises(ValidationError):
            ews_count(paper_graph, 10, p=0.0)
        with pytest.raises(ValidationError):
            ews_count(paper_graph, 10, p=0.5, q=1.5)
        with pytest.raises(ValidationError):
            ews_count(paper_graph, -1)

    def test_empty_graph(self):
        assert ews_count(TemporalGraph([]), 10).total() == 0


class TestBTS:
    def test_exact_fallback_with_q1(self, paper_graph):
        result = bts_count_pairs(paper_graph, 10, q=1.0)
        exact = brute_force_counts(paper_graph, 10)
        for motif in PAIR_MOTIFS:
            assert result[motif.name] == exact[motif.name]
        assert result.algorithm == "bts"

    def test_deterministic_per_seed(self, paper_graph):
        a = bts_count_pairs(paper_graph, 10, q=0.5, seed=9, exact_when_full=False)
        b = bts_count_pairs(paper_graph, 10, q=0.5, seed=9, exact_when_full=False)
        assert np.array_equal(a.grid, b.grid)

    def test_unbiased_over_seeds(self):
        g = TemporalGraph(
            [(2 * i % 10, (2 * i + 1) % 10, t) for i in range(5) for t in range(0, 60, 3)]
        )
        exact = brute_force_counts(g, 10)["M55"]
        ests = np.array(
            [
                bts_count_pairs(g, 10, q=0.5, seed=s, exact_when_full=False)["M55"]
                for s in range(600)
            ]
        )
        se = ests.std() / np.sqrt(len(ests))
        assert abs(ests.mean() - exact) < 5 * se + 1e-9

    def test_parallel_blocks_match_serial(self):
        g = TemporalGraph(
            [(2 * i % 10, (2 * i + 1) % 10, t) for i in range(5) for t in range(0, 60, 3)]
        )
        serial = bts_count_pairs(g, 10, q=0.8, seed=3, exact_when_full=False)
        parallel = bts_count_pairs(g, 10, q=0.8, seed=3, exact_when_full=False, workers=2)
        assert np.allclose(serial.grid, parallel.grid)

    def test_concurrent_fork_calls_on_different_graphs(self, monkeypatch):
        """Each forked BTS run samples its own graph, not a neighbour's."""
        monkeypatch.setenv(START_METHOD_ENV, "fork")
        graphs = [hub_graph(seed=11), hub_graph(seed=12)]
        kwargs = dict(q=0.6, seed=3, exact_when_full=False)
        serial = [bts_count(g, 40, **kwargs) for g in graphs]
        results = race_in_two_threads(
            lambda i: bts_count(graphs[i], 40, workers=2, **kwargs)
        )
        for i in range(2):
            assert all(np.array_equal(r.grid, serial[i].grid) for r in results[i])

    def test_all_motifs_mode(self, paper_graph):
        result = bts_count(paper_graph, 10, q=1.0)
        assert result == brute_force_counts(paper_graph, 10)

    def test_parameter_validation(self, paper_graph):
        with pytest.raises(ValidationError):
            bts_count_pairs(paper_graph, 10, q=0.0)
        with pytest.raises(ValidationError):
            bts_count_pairs(paper_graph, 10, window_factor=1.0)
        with pytest.raises(ValidationError):
            bts_count_pairs(paper_graph, -1)
        with pytest.raises(ValidationError):
            bts_count_pairs(paper_graph, 10, workers=0)

    def test_empty_graph(self):
        assert bts_count_pairs(TemporalGraph([]), 10, exact_when_full=False).total() == 0

    def test_instances_never_overweighted_with_q1(self):
        """With q=1 and forced sampling path, each estimate >= 0 and the
        average over offsets converges to the exact count."""
        g = TemporalGraph([(0, 1, t) for t in range(0, 24, 2)])
        exact = brute_force_counts(g, 6)["M55"]
        ests = [
            bts_count_pairs(g, 6, q=1.0, seed=s, exact_when_full=False)["M55"]
            for s in range(400)
        ]
        mean = float(np.mean(ests))
        assert mean == pytest.approx(exact, rel=0.1)
