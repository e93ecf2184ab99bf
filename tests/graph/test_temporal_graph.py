"""Unit tests for the TemporalGraph data structure."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.graph.temporal_graph import IN, OUT, TemporalEdge, TemporalGraph


class TestConstruction:
    def test_empty_graph(self):
        g = TemporalGraph([])
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.time_span == 0

    def test_single_edge(self):
        g = TemporalGraph([(0, 1, 5)])
        assert g.num_nodes == 2
        assert g.num_edges == 1
        assert g.time_span == 0

    def test_labels_interned_in_order_of_appearance(self):
        g = TemporalGraph([("x", "y", 1), ("z", "x", 2)])
        assert g.label(0) == "x"
        assert g.label(1) == "y"
        assert g.label(2) == "z"
        assert g.index("z") == 2

    def test_edges_sorted_by_time(self):
        g = TemporalGraph([(0, 1, 9), (1, 2, 3), (2, 0, 6)])
        assert g.timestamps.tolist() == [3, 6, 9]

    def test_tie_break_preserves_input_order(self):
        g = TemporalGraph([("a", "b", 5), ("c", "d", 5), ("e", "f", 5)])
        edges = list(g.edges())
        assert edges[0] == TemporalEdge("a", "b", 5)
        assert edges[1] == TemporalEdge("c", "d", 5)
        assert edges[2] == TemporalEdge("e", "f", 5)

    def test_duplicate_edges_kept(self):
        g = TemporalGraph([(0, 1, 5), (0, 1, 5), (0, 1, 5)])
        assert g.num_edges == 3

    def test_self_loops_dropped_by_default(self):
        g = TemporalGraph([(0, 0, 1), (0, 1, 2)])
        assert g.num_edges == 1
        assert g.num_self_loops_dropped == 1

    def test_self_loops_error_policy(self):
        with pytest.raises(ValidationError):
            TemporalGraph([(0, 0, 1)], on_self_loop="error")

    def test_invalid_self_loop_policy(self):
        with pytest.raises(ValidationError):
            TemporalGraph([], on_self_loop="keep-quiet")

    def test_malformed_record_raises(self):
        with pytest.raises(ValidationError):
            TemporalGraph([(0, 1)])  # type: ignore[list-item]

    def test_non_numeric_timestamp_raises(self):
        with pytest.raises(ValidationError):
            TemporalGraph([(0, 1, "yesterday")])  # type: ignore[list-item]

    def test_float_timestamps_supported(self):
        g = TemporalGraph([(0, 1, 0.5), (1, 2, 1.25)])
        assert g.timestamps.dtype == np.float64
        assert g.time_span == 0.75

    def test_integer_timestamps_stay_integer(self):
        g = TemporalGraph([(0, 1, 1), (1, 2, 7)])
        assert g.timestamps.dtype == np.int64

    def test_from_arrays(self):
        g = TemporalGraph.from_arrays([0, 1], [1, 2], [3, 1])
        assert g.num_edges == 2
        assert g.timestamps.tolist() == [1, 3]

    def test_from_arrays_length_mismatch(self):
        with pytest.raises(ValidationError):
            TemporalGraph.from_arrays([0, 1], [1], [3, 1])

    def test_negative_timestamps_allowed(self):
        g = TemporalGraph([(0, 1, -10), (1, 0, -5)])
        assert g.time_span == 5


class TestSequences:
    def test_node_sequence_contains_both_directions(self):
        g = TemporalGraph([(0, 1, 1), (1, 0, 2), (0, 2, 3)])
        seq = g.node_sequence(0)
        assert seq.times == [1, 2, 3]
        assert seq.nbrs == [1, 1, 2]
        assert seq.dirs == [OUT, IN, OUT]

    def test_sequence_eids_are_canonical(self):
        g = TemporalGraph([(0, 1, 5), (1, 2, 1)])
        # edge (1,2,1) sorts first -> eid 0
        assert g.node_sequence(1).eids == [0, 1]

    def test_degree_counts_incident_temporal_edges(self):
        g = TemporalGraph([(0, 1, 1), (0, 1, 2), (1, 0, 3), (2, 1, 4)])
        assert g.degree(0) == 3
        assert g.degree(1) == 4
        assert g.degree(2) == 1

    def test_degrees_array(self):
        g = TemporalGraph([(0, 1, 1), (1, 2, 2)])
        assert g.degrees().tolist() == [1, 2, 1]

    def test_sequences_sorted_even_with_ties(self):
        g = TemporalGraph([(0, 1, 5), (2, 0, 5), (0, 3, 5)])
        seq = g.node_sequence(0)
        assert seq.eids == sorted(seq.eids)

    def test_static_neighbors(self):
        g = TemporalGraph([(0, 1, 1), (0, 1, 2), (2, 0, 3)])
        assert g.static_neighbors(0) == [1, 2]


class TestPairTimeline:
    def test_directions_relative_to_smaller_id(self):
        g = TemporalGraph([(0, 1, 1), (1, 0, 2)])
        times, dirs, eids = g.pair_timeline(0, 1)
        assert times == [1, 2]
        assert dirs == [OUT, IN]
        assert eids == [0, 1]

    def test_symmetric_lookup(self):
        g = TemporalGraph([(3, 7, 1)])
        a = g.pair_timeline(g.index(3), g.index(7))
        b = g.pair_timeline(g.index(7), g.index(3))
        assert a == b

    def test_missing_pair_returns_empty(self):
        g = TemporalGraph([(0, 1, 1)])
        assert g.pair_timeline(0, 0) == ([], [], [])

    def test_static_pairs(self):
        g = TemporalGraph([(0, 1, 1), (1, 0, 2), (1, 2, 3)])
        assert sorted(g.static_pairs()) == [(0, 1), (1, 2)]

    def test_ensure_pair_index_idempotent(self):
        g = TemporalGraph([(0, 1, 1)])
        g.ensure_pair_index()
        g.ensure_pair_index()
        assert g.pair_timeline(0, 1)[0] == [1]


class TestViewsAndEquality:
    def test_timestamps_read_only(self):
        g = TemporalGraph([(0, 1, 1)])
        with pytest.raises(ValueError):
            g.timestamps[0] = 99

    def test_edge_lists_cached_and_consistent(self):
        g = TemporalGraph([(0, 1, 2), (1, 2, 1)])
        src, dst, t = g.edge_lists()
        assert g.edge_lists() is g.edge_lists()  # cached, same object
        assert src == g.sources.tolist()
        assert dst == g.destinations.tolist()
        assert t == [1, 2]

    def test_equality(self):
        a = TemporalGraph([(0, 1, 1), (1, 2, 2)])
        b = TemporalGraph([(0, 1, 1), (1, 2, 2)])
        c = TemporalGraph([(0, 1, 1), (1, 2, 3)])
        assert a == b
        assert a != c
        assert a != "not a graph"

    def test_len_and_repr(self):
        g = TemporalGraph([(0, 1, 1), (1, 2, 2)])
        assert len(g) == 2
        assert "nodes=3" in repr(g)

    def test_internal_edges_iteration(self):
        g = TemporalGraph([("a", "b", 1)])
        assert list(g.internal_edges()) == [(0, 1, 1)]


class TestCacheInvalidation:
    """Regression tests for the columnar stale-cache hazard (ISSUE 3).

    ``TemporalGraph.columnar()`` used to cache its view forever; code
    mutating the private edge columns in place kept receiving counts
    for edges that no longer existed.  ``invalidate_caches()`` is the
    sanctioned mutation protocol and the version stamp detects stale
    cached views.
    """

    def test_version_starts_at_zero_and_bumps(self):
        g = TemporalGraph([(0, 1, 1), (1, 2, 2)])
        assert g.version == 0
        g.invalidate_caches()
        assert g.version == 1

    def test_columnar_rebuilt_after_invalidate(self):
        g = TemporalGraph([(0, 1, 1), (1, 2, 2), (2, 0, 3)])
        stale = g.columnar()
        # In-place timestamp mutation (the private arrays are owned by
        # the graph; only the property views are read-only).
        g._t[:] = [10, 20, 30]
        g.invalidate_caches()
        fresh = g.columnar()
        assert fresh is not stale
        assert fresh.t.tolist() == [10, 20, 30]

    def test_pair_index_and_edge_lists_refresh(self):
        g = TemporalGraph([(0, 1, 1), (1, 0, 2)])
        g.ensure_pair_index()
        assert g.edge_lists()[2] == [1, 2]
        g._t[:] = [5, 6]
        g.invalidate_caches()
        assert g.edge_lists()[2] == [5, 6]
        assert g.pair_timeline(0, 1)[0] == [5, 6]
        assert g.node_sequence(0).times == [5, 6]

    def test_stale_counts_regression(self):
        """Counts after a sanctioned mutation reflect the new edges."""
        from repro.core.api import count_motifs

        g = TemporalGraph([(0, 1, 0), (1, 0, 1), (0, 1, 2)])
        before = count_motifs(g, 10.0).total()
        assert before == 1
        # Spread the edges far beyond delta: the motif disappears.
        g._t[:] = [0, 1000, 2000]
        g.invalidate_caches()
        after = count_motifs(g, 10.0).total()
        assert after == 0
