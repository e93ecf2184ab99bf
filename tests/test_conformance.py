"""Conformance matrix: one suite, every execution route.

Replaces the scattered pairwise equivalence tests that accumulated per
PR (serial-vs-HARE here, packed-vs-memory there) with one systematic
matrix over

* all seven registered algorithms,
* serial / shared-pool (started by ``REPRO_START_METHOD``) /
  persistent fork and spawn pools / HARE's static schedule
  (``hare_count(schedule="static")``),
* several δ values,

on a corpus of generated graphs (plus hypothesis-generated ones for
the serial route).  The conformance contract:

* every **exact full-grid** algorithm (``fast``, ``ex``,
  ``bruteforce``, ``bt``) produces *the same grid* as the reference —
  the paper's Algorithms 1 and 2 run as python loops
  (:func:`~repro.core.fast_star.count_star_pair`,
  :func:`~repro.core.fast_tri.count_triangle`) — on every route;
* ``twoscent`` (M26-only by design) agrees with the reference on M26
  and with its own serial run everywhere;
* the **sampling** algorithms (``bts``, ``ews``) are bit-identical to
  their own serial run for a fixed seed on every route — runtimes may
  never shift an estimate.

Each algorithm runs its fastest kernel; the python loops it replaced
are pinned against those kernels by :class:`TestKernelOracles`, on the
same corpus and on hypothesis graphs: FAST per whole graph and per
task cover, BTS per sampled block, EWS per fixed seed.

Parallel cells run with the result cache disabled, so the matrix
exercises real kernel execution on every runtime, not cache hits.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.baselines.sampling_bts import _block_grid, _sample_blocks
from repro.baselines.sampling_ews import _ews_python_counts
from repro.core.api import count_motifs
from repro.core.columnar_kernels import count_star_pair_columnar, count_triangle_columnar
from repro.core.fast_star import count_star_pair, count_star_pair_tasks
from repro.core.fast_tri import count_triangle, count_triangle_tasks
from repro.core.motifs import ALL_MOTIFS, PAIR_MOTIFS, motif_cell
from repro.core.registry import available_algorithms, get_algorithm
from repro.core.sampling_kernels import bts_columnar_block_grids, ews_columnar_counts
from repro.graph.generators import (
    powerlaw_temporal_graph,
    triangle_rich_graph,
    uniform_temporal_graph,
)
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.hare import hare_count
from repro.parallel.pool import WorkerPool
from repro.parallel.scheduler import build_batches
from repro.storage import open_packed, pack_graph
from tests.conftest import python_fast_counts, random_graph
from tests.core.test_properties import deltas, temporal_graphs

#: The graph corpus: name -> builder (fresh instance per use).
GRAPH_BUILDERS = {
    "ties": lambda: random_graph(3, num_nodes=6, num_edges=28, t_max=10),
    "sparse": lambda: random_graph(11, num_nodes=9, num_edges=22, t_max=40),
    "powerlaw": lambda: powerlaw_temporal_graph(30, 180, seed=5),
    "uniform": lambda: uniform_temporal_graph(12, 90, seed=2),
    "triangles": lambda: triangle_rich_graph(24, gap=3, seed=4),
}

DELTAS = (0, 4, 11)

#: Exact algorithms whose full grid must equal the FAST reference.
FULL_GRID_EXACT = ("fast", "ex", "bruteforce", "bt")

SAMPLING = ("bts", "ews")

SAMPLING_KWARGS = {"seed": 11, "n_samples": 2}


@pytest.fixture(scope="module")
def corpus():
    """Graphs and their python-loop references."""
    graphs = {name: build() for name, build in GRAPH_BUILDERS.items()}
    references = {
        (name, delta): python_fast_counts(g, delta)
        for name, g in graphs.items()
        for delta in DELTAS
    }
    return graphs, references


@pytest.fixture(scope="module")
def pools():
    """One persistent pool per start method, shared across the matrix."""
    with WorkerPool(2, "fork", result_cache=False) as fork_pool:
        with WorkerPool(2, "spawn", result_cache=False) as spawn_pool:
            yield {"fork": fork_pool, "spawn": spawn_pool}


def _variants(spec, pools):
    """Execution routes an algorithm supports: (label, extra kwargs)."""
    variants = [("serial", {})]
    if spec.parallel:
        variants.append(("shared-pool", {"workers": 2}))
        # Persistent-pool execution: HARE batches for fast, time slabs
        # for ex, block chunks for bts — all must stay exact under
        # either start method.
        variants.append(("pool-fork", {"workers": 2, "pool": pools["fork"]}))
        variants.append(("pool-spawn", {"workers": 2, "pool": pools["spawn"]}))
    if spec.name == "fast":
        variants.append(("static", {"workers": 2, "schedule": "static"}))
    return variants


def _count(graph, delta, algorithm, kwargs, **extra):
    """One matrix cell: ``count_motifs``, or HARE for the static schedule."""
    if "schedule" in kwargs:
        return hare_count(graph, delta, **kwargs, **extra)
    return count_motifs(graph, delta, algorithm=algorithm, **kwargs, **extra)


def test_matrix_covers_all_registered_algorithms():
    assert set(available_algorithms()) == set(FULL_GRID_EXACT) | {"twoscent"} | set(
        SAMPLING
    )


class TestExactConformance:
    @pytest.mark.parametrize("graph_name", sorted(GRAPH_BUILDERS))
    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("algorithm", FULL_GRID_EXACT)
    def test_full_grid_equals_reference(self, corpus, pools, graph_name, delta, algorithm):
        graphs, references = corpus
        graph = graphs[graph_name]
        reference = references[(graph_name, delta)]
        spec = get_algorithm(algorithm)
        for label, kwargs in _variants(spec, pools):
            result = _count(graph, delta, algorithm, kwargs)
            assert result.same_counts(reference), (algorithm, label)
            assert result.is_exact

    @pytest.mark.parametrize("graph_name", sorted(GRAPH_BUILDERS))
    @pytest.mark.parametrize("delta", DELTAS)
    def test_twoscent_m26_equals_reference(self, corpus, pools, graph_name, delta):
        graphs, references = corpus
        graph = graphs[graph_name]
        reference = references[(graph_name, delta)]
        spec = get_algorithm("twoscent")
        baseline = count_motifs(graph, delta, algorithm="twoscent")
        assert baseline["M26"] == reference["M26"]
        for label, kwargs in _variants(spec, pools):
            result = _count(graph, delta, "twoscent", kwargs)
            assert result.same_counts(baseline), label

    @pytest.mark.parametrize("categories", ["star", "pair", "triangle", "star_pair"])
    def test_category_masking_uniform_across_runtimes(self, corpus, pools, categories):
        graphs, references = corpus
        baseline = references[("ties", 4)].masked(categories)
        for label, kwargs in _variants(get_algorithm("fast"), pools):
            result = _count(graphs["ties"], 4, "fast", kwargs, categories=categories)
            assert result.same_counts(baseline), (categories, label)


class TestSamplingConformance:
    @pytest.mark.parametrize("graph_name", sorted(GRAPH_BUILDERS))
    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("algorithm", SAMPLING)
    def test_estimates_bit_identical_across_cells(
        self, corpus, pools, graph_name, delta, algorithm
    ):
        graphs, _ = corpus
        graph = graphs[graph_name]
        spec = get_algorithm(algorithm)
        baseline = count_motifs(graph, delta, algorithm=algorithm, **SAMPLING_KWARGS)
        assert not baseline.is_exact
        for label, kwargs in _variants(spec, pools):
            result = _count(graph, delta, algorithm, kwargs, **SAMPLING_KWARGS)
            assert np.array_equal(result.grid, baseline.grid), (algorithm, label)
            assert np.array_equal(result.stderr, baseline.stderr), (algorithm, label)


# ----------------------------------------------------------------------
# kernel-level oracles: python loops == the kernels the registry runs
# ----------------------------------------------------------------------

def assert_fast_kernels_match(graph: TemporalGraph, delta: float) -> None:
    """FAST-Star/FAST-Tri loops == columnar kernels, whole graph and covers."""
    star, pair = count_star_pair(graph, delta)
    star_col, pair_col = count_star_pair_columnar(graph, delta)
    assert star_col.tolist() == star.data
    assert pair_col.tolist() == pair.data
    assert count_triangle_columnar(graph, delta).tolist() == count_triangle(graph, delta).data
    # A HARE task cover: the batches of a two-worker plan with a low
    # degree threshold, so heavy nodes split into first-edge pieces.
    # The kernels anchor some star roles on a later edge than the
    # loops do, so single pieces may differ; the cover's sum may not.
    batches = build_batches(graph, workers=2, thrd=3)
    tasks = [task for batch in batches for task in batch.tasks]
    star, pair = count_star_pair_tasks(graph, delta, tasks)
    tri = count_triangle_tasks(graph, delta, tasks)
    sums = [np.zeros(24, np.int64), np.zeros(8, np.int64), np.zeros(24, np.int64)]
    for batch in batches:
        star_col, pair_col = count_star_pair_columnar(graph, delta, batch.tasks)
        sums[0] += star_col
        sums[1] += pair_col
        sums[2] += count_triangle_columnar(graph, delta, batch.tasks)
    assert [cells.tolist() for cells in sums] == [star.data, pair.data, tri.data]


def assert_bts_blocks_match(graph: TemporalGraph, delta: float, seed: int) -> None:
    """Every sampled block: ``_block_grid`` == the columnar block grid, bit for bit."""
    if graph.num_edges == 0:
        return
    W, q = 2.0 * max(delta, 1), 0.6
    blocks = _sample_blocks(graph, W, q, seed)
    for motifs in (ALL_MOTIFS, PAIR_MOTIFS):
        grids = bts_columnar_block_grids(
            graph, delta, blocks, W, q, [motif_cell(m) for m in motifs]
        )
        assert len(grids) == len(blocks)
        for block, grid in zip(blocks, grids):
            expected = _block_grid(graph, delta, motifs, block, W, q)
            assert np.array_equal(grid, expected), (block, len(motifs))


def assert_ews_tallies_match(graph: TemporalGraph, delta: float, seed: int) -> None:
    """``_ews_python_counts`` == ``ews_columnar_counts`` for one seed."""
    for p, q in ((0.5, 0.5), (1.0, 1.0)):
        expected = _ews_python_counts(graph, delta, p, q, np.random.default_rng(seed))
        tallies = ews_columnar_counts(graph, delta, p=p, q=q, seed=seed)
        for got, want in zip(tallies, expected):
            assert np.array_equal(got, want), (p, q)


class TestKernelOracles:
    @pytest.mark.parametrize("graph_name", sorted(GRAPH_BUILDERS))
    @pytest.mark.parametrize("delta", DELTAS)
    def test_fast_kernels_match_python_loops(self, corpus, graph_name, delta):
        graphs, _ = corpus
        assert_fast_kernels_match(graphs[graph_name], delta)

    @pytest.mark.parametrize("graph_name", sorted(GRAPH_BUILDERS))
    @pytest.mark.parametrize("delta", DELTAS)
    def test_bts_blocks_match_python(self, corpus, graph_name, delta):
        graphs, _ = corpus
        for seed in (0, 11):
            assert_bts_blocks_match(graphs[graph_name], delta, seed)

    @pytest.mark.parametrize("graph_name", sorted(GRAPH_BUILDERS))
    @pytest.mark.parametrize("delta", DELTAS)
    def test_ews_tallies_match_python(self, corpus, graph_name, delta):
        graphs, _ = corpus
        for seed in (0, 11):
            assert_ews_tallies_match(graphs[graph_name], delta, seed)


class TestHypothesisConformance:
    """Hypothesis-generated graphs through the serial route and the oracles."""

    @settings(max_examples=20, deadline=None)
    @given(graph=temporal_graphs(max_edges=24), delta=deltas)
    def test_exact_algorithms_agree(self, graph, delta):
        reference = count_motifs(graph, delta, algorithm="bruteforce")
        for algorithm in ("fast", "ex", "bt"):
            result = count_motifs(graph, delta, algorithm=algorithm)
            assert result.same_counts(reference), algorithm
        assert_fast_kernels_match(graph, delta)

    @settings(max_examples=10, deadline=None)
    @given(graph=temporal_graphs(max_edges=24), delta=deltas)
    def test_sampling_backend_invariance(self, graph, delta):
        """The python sampling loops and the kernels agree bit for bit."""
        assert_bts_blocks_match(graph, delta, seed=11)
        assert_ews_tallies_match(graph, delta, seed=11)


@pytest.fixture(scope="module")
def packed_corpus(tmp_path_factory, corpus):
    """Every corpus graph packed once (full layout) into a temp dir."""
    graphs, _ = corpus
    root = tmp_path_factory.mktemp("packed")
    paths = {}
    for name, graph in graphs.items():
        path = str(root / f"{name}.rgz")
        pack_graph(graph, path)
        paths[name] = path
    return paths


class TestMmapSourceConformance:
    """The ``mmap`` source axis: packed-file graphs through the matrix.

    A graph reopened zero-copy from a packed file must be
    indistinguishable from the in-memory original on every execution
    route — serial and persistent-pool runtimes under both start
    methods, the ``source=`` request threading, and the out-of-core
    shard-halo route.
    """

    @pytest.mark.parametrize("graph_name", sorted(GRAPH_BUILDERS))
    @pytest.mark.parametrize("delta", DELTAS)
    def test_packed_equals_reference(
        self, corpus, pools, packed_corpus, graph_name, delta
    ):
        _, references = corpus
        reference = references[(graph_name, delta)]
        with open_packed(packed_corpus[graph_name]) as packed:
            for label, kwargs in (
                ("serial", {}),
                ("pool-fork", {"workers": 2, "pool": pools["fork"]}),
                ("pool-spawn", {"workers": 2, "pool": pools["spawn"]}),
            ):
                result = count_motifs(packed.graph, delta, **kwargs)
                assert result.same_counts(reference), label
                assert result.is_exact

    @pytest.mark.parametrize("graph_name", sorted(GRAPH_BUILDERS))
    def test_source_request_threading(self, corpus, packed_corpus, graph_name):
        """``source=`` spec (fresh open inside execute) and shard budgets."""
        _, references = corpus
        reference = references[(graph_name, 4)]
        plain = count_motifs(None, 4, source=packed_corpus[graph_name])
        assert plain.same_counts(reference)
        assert plain.meta["source"] == packed_corpus[graph_name]
        sharded = count_motifs(
            None, 4, source=packed_corpus[graph_name], shard_budget=16
        )
        assert sharded.same_counts(reference)
        assert sharded.meta["sharding"] == "halo-union"

    def test_sampling_over_packed_source(self, corpus, packed_corpus):
        graphs, _ = corpus
        for algorithm in SAMPLING:
            baseline = count_motifs(
                graphs["ties"], 4, algorithm=algorithm, **SAMPLING_KWARGS
            )
            result = count_motifs(
                None, 4, source=packed_corpus["ties"], algorithm=algorithm,
                **SAMPLING_KWARGS,
            )
            assert np.array_equal(result.grid, baseline.grid), algorithm

    def test_edges_layout_equals_full(self, corpus, packed_corpus, tmp_path):
        """The edges-only layout rebuilds columnar arrays to the same counts."""
        graphs, references = corpus
        path = str(tmp_path / "ties-edges.rgz")
        pack_graph(graphs["ties"], path, layout="edges")
        for delta in DELTAS:
            result = count_motifs(None, delta, source=path)
            assert result.same_counts(references[("ties", delta)])


class TestPoolStaysExactOverSessions:
    """Repeated mixed traffic against one pool never drifts."""

    def test_interleaved_requests(self, corpus, pools):
        graphs, references = corpus
        pool = pools["fork"]
        for _ in range(2):
            for graph_name in ("ties", "powerlaw"):
                for delta in DELTAS:
                    result = count_motifs(
                        graphs[graph_name], delta, workers=2, pool=pool
                    )
                    assert result.same_counts(references[(graph_name, delta)])

    def test_empty_graph_everywhere(self, pools):
        empty = TemporalGraph([])
        for algorithm in FULL_GRID_EXACT:
            assert count_motifs(empty, 5, algorithm=algorithm).total() == 0
        assert count_motifs(empty, 5, workers=2, pool=pools["fork"]).total() == 0
        assert count_motifs(empty, 5, workers=2, pool=pools["spawn"]).total() == 0
