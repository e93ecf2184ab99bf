"""The columnar edge store: CSR views, windows, pair slices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.temporal_graph import TemporalGraph
from tests.conftest import random_graph


class TestIncidenceCSR:
    @pytest.mark.parametrize("seed", range(6))
    def test_node_slices_match_sequences(self, seed):
        g = random_graph(seed, num_nodes=7, num_edges=30)
        col = g.columnar()
        for u in range(g.num_nodes):
            seq = g.node_sequence(u)
            times, nbrs, dirs, eids = col.node_slice(u)
            assert list(times) == seq.times
            assert list(nbrs) == seq.nbrs
            assert list(dirs) == seq.dirs
            assert list(eids) == seq.eids

    def test_degrees_match(self, paper_graph):
        col = paper_graph.columnar()
        assert list(col.degrees()) == list(paper_graph.degrees())

    def test_cached_and_read_only(self, paper_graph):
        col = paper_graph.columnar()
        assert paper_graph.columnar() is col
        with pytest.raises(ValueError):
            col.src[0] = 99
        with pytest.raises(ValueError):
            col.inc_nbr[0] = 99


class TestPairCSR:
    @pytest.mark.parametrize("seed", range(6))
    def test_pair_slices_match_timelines(self, seed):
        g = random_graph(seed, num_nodes=6, num_edges=25)
        col = g.columnar()
        for a, b in g.static_pairs():
            times, dirs, eids = col.pair_slice(a, b)
            exp_times, exp_dirs, exp_eids = g.pair_timeline(a, b)
            assert list(times) == exp_times
            assert list(dirs) == exp_dirs
            assert list(eids) == exp_eids

    def test_missing_pair_is_empty(self):
        g = TemporalGraph([(0, 1, 1), (2, 3, 2)])
        col = g.columnar()
        times, dirs, eids = col.pair_slice(0, 3)
        assert len(times) == len(dirs) == len(eids) == 0
        assert col.pair_slot(0, 3) == -1


class TestWindows:
    def test_window_bounds(self, paper_graph):
        col = paper_graph.columnar()
        lo, hi = col.window(6, 11)
        t = col.t[lo:hi]
        assert (t >= 6).all() and (t <= 11).all()
        # One edge before, one after, both excluded.
        assert lo > 0 and hi < paper_graph.num_edges

    def test_edge_slice_is_view(self, paper_graph):
        col = paper_graph.columnar()
        src, dst, t = col.edge_slice(2, 7)
        assert src.base is not None  # zero-copy view, not a copy
        assert len(src) == len(dst) == len(t) == 5

    def test_empty_graph(self):
        col = TemporalGraph([]).columnar()
        assert col.window(0, 10) == (0, 0)
        assert col.degrees().shape == (0,)


class TestCanonicalInvariants:
    @pytest.mark.parametrize("seed", range(4))
    def test_eid_is_time_rank(self, seed):
        """Canonical ids double as time ranks (the kernels rely on it)."""
        g = random_graph(seed, num_nodes=6, num_edges=30, t_max=8)
        col = g.columnar()
        assert (np.diff(col.t) >= 0).all()
        # Incidence rows are eid-ascending inside each center.
        for u in range(g.num_nodes):
            _, _, _, eids = col.node_slice(u)
            assert (np.diff(eids) > 0).all()
        # Pair groups are eid-ascending inside each slot.
        for slot in range(len(col.pair_keys)):
            lo, hi = col.pair_indptr[slot], col.pair_indptr[slot + 1]
            assert (np.diff(col.pair_eid[lo:hi]) > 0).all()
