"""Cross-backend conformance matrix: one suite, every execution path.

Replaces the scattered pairwise equivalence tests that accumulated per
PR (python-vs-columnar here, serial-vs-HARE there) with one systematic
matrix over

* all seven registered algorithms,
* the ``python`` and ``columnar`` backends,
* serial / fork / spawn / persistent-pool execution,
* several δ values,

on a corpus of generated graphs (plus hypothesis-generated ones for
the serial dimensions).  The conformance contract:

* every **exact full-grid** algorithm (``fast``, ``ex``,
  ``bruteforce``, ``bt``) produces *the same grid* as the validated
  python-serial FAST reference, in every cell of the matrix;
* ``twoscent`` (M26-only by design) agrees with the reference on M26
  and with its own python-serial baseline everywhere;
* the **sampling** algorithms (``bts``, ``ews``) are bit-identical to
  their own python-serial baseline for a fixed seed, in every cell —
  backends and runtimes may never shift an estimate.

Parallel cells run with the result cache disabled, so the matrix
exercises real kernel execution on every runtime, not cache hits.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.api import count_motifs
from repro.core.registry import available_algorithms, get_algorithm
from repro.graph.generators import (
    powerlaw_temporal_graph,
    triangle_rich_graph,
    uniform_temporal_graph,
)
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.pool import WorkerPool
from repro.storage import open_packed, pack_graph
from tests.conftest import random_graph
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
    """Graphs, python-serial references, and per-algorithm baselines."""
    graphs = {name: build() for name, build in GRAPH_BUILDERS.items()}
    references = {
        (name, delta): count_motifs(g, delta, backend="python")
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
    """Execution variants an algorithm supports: (label, extra kwargs)."""
    variants = [("serial-python", {"backend": "python"})]
    variants.append(("serial-columnar", {"backend": "columnar"}))
    if spec.parallel:
        variants.append(("shared-pool", {"workers": 2, "start_method": "fork"}))
        # Persistent-pool execution: HARE batches for fast, time slabs
        # for ex, block chunks for bts — all must stay exact under
        # either start method and either kernel backend.
        variants.append(
            ("pool-fork", {"workers": 2, "pool": pools["fork"], "backend": "columnar"})
        )
        variants.append(
            ("pool-fork-python", {"workers": 2, "pool": pools["fork"], "backend": "python"})
        )
        variants.append(
            ("pool-spawn", {"workers": 2, "pool": pools["spawn"], "backend": "columnar"})
        )
    if spec.name == "fast":
        variants.append(("static", {"workers": 2, "schedule": "static"}))
    return variants


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
            result = count_motifs(graph, delta, algorithm=algorithm, **kwargs)
            assert result.same_counts(reference), (algorithm, label)
            assert result.is_exact

    @pytest.mark.parametrize("graph_name", sorted(GRAPH_BUILDERS))
    @pytest.mark.parametrize("delta", DELTAS)
    def test_twoscent_m26_equals_reference(self, corpus, pools, graph_name, delta):
        graphs, references = corpus
        graph = graphs[graph_name]
        reference = references[(graph_name, delta)]
        spec = get_algorithm("twoscent")
        baseline = count_motifs(graph, delta, algorithm="twoscent", backend="python")
        assert baseline["M26"] == reference["M26"]
        for label, kwargs in _variants(spec, pools):
            result = count_motifs(graph, delta, algorithm="twoscent", **kwargs)
            assert result.same_counts(baseline), label

    @pytest.mark.parametrize("categories", ["star", "pair", "triangle", "star_pair"])
    def test_category_masking_uniform_across_runtimes(self, corpus, pools, categories):
        graphs, _ = corpus
        graph = graphs["ties"]
        baseline = count_motifs(graph, 4, categories=categories, backend="python")
        for label, kwargs in _variants(get_algorithm("fast"), pools):
            result = count_motifs(graph, 4, categories=categories, **kwargs)
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
        baseline = count_motifs(
            graph, delta, algorithm=algorithm, backend="python", **SAMPLING_KWARGS
        )
        assert not baseline.is_exact
        for label, kwargs in _variants(spec, pools):
            result = count_motifs(
                graph, delta, algorithm=algorithm, **SAMPLING_KWARGS, **kwargs
            )
            assert np.array_equal(result.grid, baseline.grid), (algorithm, label)


class TestHypothesisConformance:
    """Hypothesis-generated graphs through the serial backend pairs."""

    @settings(max_examples=20, deadline=None)
    @given(graph=temporal_graphs(max_edges=24), delta=deltas)
    def test_exact_algorithms_agree(self, graph, delta):
        reference = count_motifs(graph, delta, algorithm="bruteforce")
        for algorithm in ("fast", "ex", "bt"):
            for backend in ("python", "columnar"):
                result = count_motifs(graph, delta, algorithm=algorithm, backend=backend)
                assert result.same_counts(reference), (algorithm, backend)

    @settings(max_examples=10, deadline=None)
    @given(graph=temporal_graphs(max_edges=24), delta=deltas)
    def test_sampling_backend_invariance(self, graph, delta):
        for algorithm in SAMPLING:
            py = count_motifs(
                graph, delta, algorithm=algorithm, backend="python", **SAMPLING_KWARGS
            )
            col = count_motifs(
                graph, delta, algorithm=algorithm, backend="columnar", **SAMPLING_KWARGS
            )
            assert np.array_equal(py.grid, col.grid), algorithm


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
    path — python/columnar kernels, serial and persistent-pool
    runtimes under both start methods, the ``source=`` request
    threading, and the out-of-core shard-halo route.
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
                ("serial-python", {"backend": "python"}),
                ("serial-columnar", {"backend": "columnar"}),
                ("pool-fork", {"workers": 2, "pool": pools["fork"], "backend": "columnar"}),
                ("pool-spawn", {"workers": 2, "pool": pools["spawn"], "backend": "columnar"}),
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
                graphs["ties"], 4, algorithm=algorithm, backend="python",
                **SAMPLING_KWARGS,
            )
            result = count_motifs(
                None, 4, source=packed_corpus["ties"], algorithm=algorithm,
                backend="python", **SAMPLING_KWARGS,
            )
            assert np.array_equal(result.grid, baseline.grid), algorithm

    def test_edges_layout_equals_full(self, corpus, packed_corpus, tmp_path):
        """The edges-only layout rebuilds columnar arrays to the same counts."""
        graphs, references = corpus
        path = str(tmp_path / "ties-edges.rgz")
        pack_graph(graphs["ties"], path, layout="edges")
        for delta in DELTAS:
            result = count_motifs(None, delta, source=path, backend="columnar")
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
