"""Unit tests for the vectorized sampling kernels (PR 5 tentpole).

The kernel-vs-python-reference *estimate* equalities live in
tests/test_conformance and tests/test_determinism; this module pins
the kernel building blocks themselves: the shared triple-classification table, the
canonical floating-point reductions, and the per-edge δ-window memo.
"""

import numpy as np
import pytest

from repro.core.api import count_motifs
from repro.core.columnar_kernels import edge_window_ends
from repro.core.motifs import classify_triple
from repro.core.sampling_kernels import (
    TRIPLE_CELL_TABLE,
    ews_grid,
    ht_weight_sum,
    second_edge_code,
    third_edge_code,
    wedge_node,
)
from tests.conftest import random_graph


class TestTripleCellTable:
    def test_matches_classify_triple_exhaustively(self):
        """Every (second, third) edge shape the kernels can generate
        classifies to exactly what classify_triple says — including the
        rejections (fourth nodes, unreachable wedge references)."""
        e1 = (0, 1)
        nodes = (0, 1, 2, 3, 4)
        checked = 0
        for s2 in nodes[:3]:
            for d2 in nodes[:3]:
                if s2 == d2 or not {s2, d2} & {0, 1}:
                    continue  # kernels only generate incident seconds
                code2 = second_edge_code(0, 1, s2, d2)
                w = wedge_node(code2, s2, d2)
                for s3 in nodes:
                    for d3 in nodes:
                        if s3 == d3:
                            continue
                        cell = TRIPLE_CELL_TABLE[
                            code2 * 16 + third_edge_code(0, 1, w, s3, d3)
                        ]
                        motif = classify_triple((e1, (s2, d2), (s3, d3)))
                        checked += 1
                        if motif is None:
                            assert cell == -1, (s2, d2, s3, d3)
                        else:
                            expected = (motif.row - 1) * 6 + (motif.col - 1)
                            assert cell == expected, (s2, d2, s3, d3)
        assert checked == 120  # 6 second shapes x 20 third-edge pairs

    def test_wedge_codes_split_pair_and_wedge_shapes(self):
        assert second_edge_code(0, 1, 0, 1) == 0
        assert second_edge_code(0, 1, 1, 0) == 1
        assert wedge_node(0, 0, 1) == -1
        assert wedge_node(1, 1, 0) == -1
        for s2, d2 in ((0, 2), (1, 2), (2, 0), (2, 1)):
            code = second_edge_code(0, 1, s2, d2)
            assert code >= 2
            assert wedge_node(code, s2, d2) == 2


class TestCanonicalReductions:
    def test_ht_weight_sum_is_enumeration_order_free(self):
        rng = np.random.default_rng(0)
        spans = rng.uniform(0, 9.5, size=500)
        shuffled = spans.copy()
        rng.shuffle(shuffled)
        assert ht_weight_sum(spans, 10.0, 0.3) == ht_weight_sum(shuffled, 10.0, 0.3)

    def test_ht_weight_sum_single_instance(self):
        # weight = W / (q * (W - span))
        value = ht_weight_sum([4.0], 10.0, 0.5)
        assert value == pytest.approx(10.0 / (0.5 * 6.0))

    def test_ews_grid_weights(self):
        pair = np.zeros(36, dtype=np.int64)
        wedge = np.zeros(36, dtype=np.int64)
        pair[28] = 3
        wedge[5] = 2
        grid = ews_grid(pair, wedge, p=0.5, q=0.25)
        assert grid[4, 4] == pytest.approx(3 / 0.5)
        assert grid[0, 5] == pytest.approx(2 / (0.5 * 0.25))
        assert grid.sum() == pytest.approx(3 / 0.5 + 2 / (0.5 * 0.25))


class TestEdgeWindowEnds:
    def test_ends_match_bruteforce(self):
        graph = random_graph(5, num_nodes=8, num_edges=40, t_max=25)
        col = graph.columnar()
        hi = edge_window_ends(col, 6.0)
        t = np.asarray(col.t, dtype=np.float64)
        for e in range(col.num_edges):
            assert hi[e] == np.count_nonzero(t <= t[e] + 6.0)

    def test_memo_holds_one_delta(self):
        """Every δ-keyed table evicts the other δs; the triangle table stays."""
        graph = random_graph(9, num_nodes=7, num_edges=60, t_max=40)
        col = graph.columnar()
        count_motifs(graph, 3.0)
        for delta in range(1, 21):
            count_motifs(graph, float(delta), algorithm="ews", p=0.5)
        kinds = sorted(key[0] for key in col.delta_cache)
        assert kinds == ["ewin", "tri"]
        assert ("ewin", 20.0) in col.delta_cache
        count_motifs(graph, 7.0)
        assert all(key == ("tri",) or key[1] == 7.0 for key in col.delta_cache)
        assert {"bounds", "star", "tri"} <= {key[0] for key in col.delta_cache}
