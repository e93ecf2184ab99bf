"""Columnar kernels: kernel equivalence, registry plumbing, HARE parity.

The load-bearing guarantee of the columnar kernels is *bit-identical
counts*: every test here compares against the pure-Python loops, which
are themselves validated against the brute-force reference elsewhere.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core import columnar_kernels
from repro.core.api import count_motifs
from repro.core.counters import TriangleCounter
from repro.core.columnar_kernels import (
    DEFAULT_CHUNK_PAIRS,
    count_star_pair_columnar,
    count_triangle_columnar,
    enumerate_static_triangles,
)
from repro.core.fast_star import count_star_pair, count_star_pair_tasks
from repro.core.fast_tri import count_triangle, count_triangle_tasks
from repro.core.registry import CountRequest, execute, get_algorithm
from repro.errors import ValidationError
from repro.graph.generators import (
    powerlaw_temporal_graph,
    triangle_rich_graph,
    uniform_temporal_graph,
)
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.hare import hare_count
from repro.parallel.scheduler import build_batches
from tests.conftest import python_fast_counts, random_graph

#: Every registered algorithm (the seven built-ins).
ALL_ALGORITHMS = ("fast", "ex", "bruteforce", "bt", "twoscent", "bts", "ews")


class TestKernelEquivalence:
    """Property tests: columnar kernels == Python loops, cell for cell."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("delta", [0, 1, 4, 7.5, 50])
    def test_star_pair_kernel_matches(self, seed, delta):
        g = random_graph(seed, num_nodes=5 + seed % 4, num_edges=12 + 3 * seed)
        star_py, pair_py = count_star_pair(g, delta)
        star_col, pair_col = count_star_pair_columnar(g, delta)
        assert list(star_col) == star_py.data
        assert list(pair_col) == pair_py.data

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("delta", [0, 1, 4, 7.5, 50])
    def test_triangle_kernel_matches(self, seed, delta):
        g = random_graph(seed, num_nodes=5 + seed % 4, num_edges=12 + 3 * seed)
        assert list(count_triangle_columnar(g, delta)) == count_triangle(g, delta).data

    @pytest.mark.parametrize("seed", range(4))
    def test_float_timestamps(self, seed):
        rng = random.Random(seed)
        edges = []
        for _ in range(40):
            u = rng.randrange(7)
            v = (u + rng.randrange(1, 7)) % 7
            edges.append((u, v, rng.uniform(0, 30)))
        g = TemporalGraph(edges)
        star_py, pair_py = count_star_pair(g, 6.5)
        star_col, pair_col = count_star_pair_columnar(g, 6.5)
        assert list(star_col) == star_py.data
        assert list(pair_col) == pair_py.data
        assert list(count_triangle_columnar(g, 6.5)) == count_triangle(g, 6.5).data

    def test_generator_graphs(self):
        for g, delta in [
            (powerlaw_temporal_graph(120, 1200, seed=5), 5000.0),
            (uniform_temporal_graph(40, 600, seed=2), 50.0),
            (triangle_rich_graph(60, gap=4, seed=3), 40.0),
        ]:
            star_py, pair_py = count_star_pair(g, delta)
            star_col, pair_col = count_star_pair_columnar(g, delta)
            assert list(star_col) == star_py.data
            assert list(pair_col) == pair_py.data
            tri_py = count_triangle(g, delta)
            assert list(count_triangle_columnar(g, delta)) == tri_py.data

    @pytest.mark.parametrize(
        "edges",
        [
            [],
            [(0, 1, 5)],
            [(0, 1, 1), (1, 0, 1)],
            [(0, 1, 1), (0, 1, 1), (0, 1, 1)],  # duplicate multi-edges
        ],
    )
    def test_degenerate_graphs(self, edges):
        g = TemporalGraph(edges)
        star_py, pair_py = count_star_pair(g, 2)
        star_col, pair_col = count_star_pair_columnar(g, 2)
        assert list(star_col) == star_py.data
        assert list(pair_col) == pair_py.data
        assert list(count_triangle_columnar(g, 2)) == count_triangle(g, 2).data

    @pytest.mark.parametrize("seed", range(6))
    def test_task_union_matches(self, seed):
        """Merged task results equal the serial count (HARE contract)."""
        g = random_graph(seed, num_nodes=8, num_edges=40)
        tasks = [t for b in build_batches(g, workers=3, thrd=5) for t in b.tasks]
        star_py, pair_py = count_star_pair_tasks(g, 4, tasks)
        tri_py = count_triangle_tasks(g, 4, tasks)
        star_col, pair_col = count_star_pair_columnar(g, 4, tasks)
        assert list(star_col) == star_py.data
        assert list(pair_col) == pair_py.data
        assert list(count_triangle_columnar(g, 4, tasks, chunk_pairs=5)) == tri_py.data

    def test_tiny_chunks_change_nothing(self):
        g = random_graph(9, num_nodes=7, num_edges=35)
        tri_big = count_triangle_columnar(g, 6)
        tri_small = count_triangle_columnar(g, 6, chunk_pairs=3)
        assert list(tri_big) == list(tri_small)


TWO_PATH_DELTA = 10


def two_path_graph() -> TemporalGraph:
    """A graph whose FAST-Tri anchors split between both expansion paths.

    Hub 0 meets many peers, each pair ``{0, p}`` on one static triangle
    (``{0, p, q}``) but inside a busy δ-window: the triangle path is
    smaller.  Hubs 0 and 1 share many common neighbours, but their
    multi-edges sit in a quiet stretch: the δ-window is smaller.
    Closing pairs carry multi-edges, and third edges sit exactly at
    ``± δ`` from the wedge edges.
    """
    d = TWO_PATH_DELTA
    edges = []
    node = 2
    for k in range(12):
        p, q, t = node, node + 1, 2 * k
        node += 2
        edges += [(0, p, t), (q, 0, t + 3), (p, q, t + d)]  # tie at t_i + δ
        edges.append((q, p, t + 3 - d))  # tie at t_j - δ
        if k % 3 == 0:
            edges += [(p, q, t + 1), (q, p, t + 1)]  # multi-edge closing pair
    commons = list(range(node, node + 15))
    edges += [(0, 1, 200), (1, 0, 200), (0, 1, 205)]
    edges += [(0, commons[0], 203), (commons[0], 1, 200 + d), (1, commons[1], 200 - d)]
    edges += [(commons[1], 0, 204), (commons[1], 0, 204)]
    for i, c in enumerate(commons):
        edges += [(0, c, 400 + 30 * i), (c, 1, 405 + 30 * i)]
    return TemporalGraph(edges)


def anchor_paths(g: TemporalGraph, delta: float):
    """Per-anchor path choice of the triangle kernel: (triangle, window)."""
    col = g.columnar()
    anchors = columnar_kernels._task_positions(col, None)
    we = columnar_kernels._window_bounds(col, delta)[3]
    window = we[anchors] - anchors - 1
    table = columnar_kernels.triangle_table(col)
    slot = table.edge_slot[col.inc_eid[anchors]]
    rows = table.indptr[slot + 1] - table.indptr[slot]
    on_tri = rows < window
    return on_tri & (rows > 0), ~on_tri & (window > 0)


def looped_task_positions(col, tasks, tail: int = 1) -> list:
    """Reference for ``_task_positions``: one range per task."""
    indptr = col.inc_indptr
    out = []
    for node, i_lo, i_hi in tasks:
        row_lo = int(indptr[node])
        limit = int(indptr[node + 1]) - row_lo - tail
        hi = limit if i_hi is None else min(i_hi, limit)
        out.extend(range(row_lo + i_lo, row_lo + hi))
    return out


class TestTaskPositions:
    """The one-pass task flattening equals the per-task loop."""

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("tail", [0, 1, 2])
    def test_matches_loop(self, seed, tail):
        rng = random.Random(seed)
        g = random_graph(seed, num_nodes=6 + seed % 4, num_edges=10 + 4 * seed)
        # Extra node ids past the last endpoint have empty CSR rows.
        g = TemporalGraph.from_canonical_arrays(
            g.sources, g.destinations, g.timestamps, num_nodes=g.num_nodes + 3
        )
        col = g.columnar()
        tasks = []
        for _ in range(rng.randrange(0, 25)):
            node = rng.randrange(g.num_nodes)
            degree = g.degree(node)
            lo = rng.randrange(0, degree + 3)  # lo >= limit included
            hi = rng.choice([None, rng.randrange(0, degree + 5)])  # past the end
            tasks.append((node, lo, hi))
        got = columnar_kernels._task_positions(col, tasks, tail=tail)
        assert got.tolist() == looped_task_positions(col, tasks, tail)

    def test_empty_task_list(self, paper_graph):
        got = columnar_kernels._task_positions(paper_graph.columnar(), [])
        assert got.tolist() == []


class TestTrianglePaths:
    """The per-anchor δ-window / static-triangle choice is exact."""

    def test_graph_drives_both_paths(self):
        g = two_path_graph()
        by_triangle, by_window = anchor_paths(g, TWO_PATH_DELTA)
        assert by_triangle.sum() >= 10 and by_window.sum() >= 10
        assert sum(count_triangle(g, TWO_PATH_DELTA).data) > 0

    @pytest.mark.parametrize("chunk_pairs", [1, 3, DEFAULT_CHUNK_PAIRS])
    def test_serial_matches_python(self, chunk_pairs):
        g = two_path_graph()
        for delta in (TWO_PATH_DELTA, 0, 3, 40):
            got = count_triangle_columnar(g, delta, chunk_pairs=chunk_pairs)
            assert list(got) == count_triangle(g, delta).data, delta

    @pytest.mark.parametrize("chunk_pairs", [1, 3, DEFAULT_CHUNK_PAIRS])
    def test_task_covers_match_python(self, chunk_pairs):
        g = two_path_graph()
        tasks = [t for b in build_batches(g, workers=3, thrd=4) for t in b.tasks]
        delta = TWO_PATH_DELTA
        for cover in (tasks, tasks[::2], tasks[1::3]):
            got = count_triangle_columnar(g, delta, cover, chunk_pairs=chunk_pairs)
            assert list(got) == count_triangle_tasks(g, delta, cover).data
        merged = sum(
            count_triangle_columnar(g, delta, [task], chunk_pairs=chunk_pairs)
            for task in tasks
        )
        assert list(merged) == count_triangle(g, delta).data

    @pytest.mark.parametrize("seed", range(8))
    def test_table_survives_delta_changes(self, seed):
        g = random_graph(seed, num_nodes=6 + seed % 5, num_edges=20 + 5 * seed)
        table = columnar_kernels.triangle_table(g.columnar())
        for delta in (0, 2, 6, 50):
            got = count_triangle_columnar(g, delta, chunk_pairs=1 + seed % 3)
            assert list(got) == count_triangle(g, delta).data
            assert columnar_kernels.triangle_table(g.columnar()) is table


class TestStaticTriangleEnumerator:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed, monkeypatch):
        g = random_graph(seed, num_nodes=5 + seed, num_edges=10 + 6 * seed)
        col = g.columnar()
        pairs = set(g.static_pairs())
        expected = [
            tri for tri in itertools.combinations(range(g.num_nodes), 3)
            if {tri[:2], tri[::2], tri[1:]} <= pairs
        ]
        for chunk_pairs in (1, 4, DEFAULT_CHUNK_PAIRS):
            monkeypatch.setattr(columnar_kernels, "DEFAULT_CHUNK_PAIRS", chunk_pairs)
            nodes, slots = enumerate_static_triangles(col.num_nodes, col.pair_keys)
            assert [tuple(row) for row in nodes.tolist()] == expected
            n = col.num_nodes
            for (a, b, c), sides in zip(nodes.tolist(), slots.tolist()):
                assert col.pair_keys[sides].tolist() == [a * n + b, a * n + c, b * n + c]

    def test_table_lists_each_triangle_under_its_three_pairs(self):
        g = two_path_graph()
        col = g.columnar()
        table = columnar_kernels.triangle_table(col)
        n = col.num_nodes
        for slot, key in enumerate(col.pair_keys.tolist()):
            a, b = divmod(key, n)
            lo, hi = table.indptr[slot], table.indptr[slot + 1]
            thirds = table.third[lo:hi].tolist()
            assert thirds == sorted(thirds)
            for w, s_a, s_b in zip(
                thirds, table.lo_slot[lo:hi].tolist(), table.hi_slot[lo:hi].tolist()
            ):
                assert s_a == col.pair_slot(a, w) and s_b == col.pair_slot(b, w)


class TestBackendAcrossAlgorithms:
    """Each algorithm runs its one fastest implementation.

    The per-algorithm equivalence (and category masking) assertions
    live in the systematic matrix of ``tests/test_conformance.py``,
    which also pins the python loops against the kernels.
    """

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_backend_metadata_resolution(self, paper_graph, algorithm):
        """No result records a kernel choice: there is none to make."""
        spec = get_algorithm(algorithm)
        kwargs = {} if spec.is_exact else {"seed": 7, "n_samples": 2}
        result = count_motifs(paper_graph, 6, algorithm=algorithm, **kwargs)
        assert "backend" not in result.meta
        assert not hasattr(spec, "backends")

    def test_auto_prefers_columnar_for_fast(self, paper_graph):
        """``fast`` builds the columnar store and runs its kernels."""
        result = count_motifs(paper_graph, 10)
        assert "columnar_build" in result.phase_seconds
        assert result.total() == 27

    def test_auto_is_python_for_bt(self, paper_graph):
        """``bt`` runs its python backtracking, exact like FAST."""
        result = count_motifs(paper_graph, 10, algorithm="bt")
        assert "columnar_build" not in result.phase_seconds
        assert result.same_counts(count_motifs(paper_graph, 10))


class TestBackendPlumbing:
    def test_unknown_backend_rejected(self, paper_graph):
        """The removed knob is refused as an unknown parameter."""
        with pytest.raises(ValidationError, match="backend"):
            count_motifs(paper_graph, 10, backend="columnar")
        with pytest.raises(TypeError):
            CountRequest(graph=paper_graph, delta=10, backend="columnar")

    def test_resolve_concretizes_auto(self, paper_graph):
        """Resolution fills the sampling defaults and the spec's params."""
        req = CountRequest(graph=paper_graph, delta=10).resolve(get_algorithm("fast"))
        assert (req.seed, req.n_samples, req.params) == (0, 1, {})
        req = CountRequest(graph=paper_graph, delta=10, algorithm="bts").resolve(
            get_algorithm("bts")
        )
        assert req.n_samples == 3
        assert req.params == {"q": 0.3, "window_factor": 5.0}

    def test_remove_centers_rejects_columnar(self, paper_graph):
        """Algorithm 2's center removal (python only) equals the kernel."""
        removed = count_triangle(paper_graph, 10, remove_centers=True)
        assert removed.multiplicity == 1
        tri = TriangleCounter(count_triangle_columnar(paper_graph, 10).tolist())
        assert removed.per_motif() == tri.per_motif()

    def test_phase_seconds_include_columnar_build(self, paper_graph):
        result = execute(CountRequest(graph=paper_graph, delta=10))
        assert "columnar_build" in result.phase_seconds
        assert "star_pair" in result.phase_seconds
        assert result.dominant_phase() is not None

    def test_replicate_phases_are_surfaced(self, paper_graph):
        result = count_motifs(
            paper_graph, 10, algorithm="bts", seed=0, n_samples=2, q=0.5
        )
        # phase_seconds partitions the runtime (inner phases summed
        # across replicates, or per-sample totals as fallback) ...
        assert result.phase_seconds
        assert result.dominant_phase() is not None
        # ... and per-sample wall-clock lives in meta, not mixed in:
        # sample[i] keys appear only as the all-or-nothing fallback.
        assert len(result.meta["sample_seconds"]) == 2
        sample_keys = {
            key for key in result.phase_seconds if key.startswith("sample[")
        }
        assert sample_keys in (set(), set(result.phase_seconds))


class TestHareColumnar:
    @pytest.mark.parametrize("schedule", ["dynamic", "static"])
    def test_parallel_columnar_matches_serial(self, schedule):
        g = powerlaw_temporal_graph(80, 900, seed=4)
        serial = python_fast_counts(g, 4000)
        parallel = hare_count(g, 4000, workers=2, schedule=schedule)
        assert serial.same_counts(parallel)
        assert parallel.meta["runtime"] == "pool"

    def test_single_worker_pool_fallback(self, paper_graph):
        parallel = count_motifs(paper_graph, 10, workers=2)
        assert parallel.total() == 27
