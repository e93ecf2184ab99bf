"""Shared-memory graph publication: publish/attach round trips."""

import os
import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.api import count_motifs
from repro.errors import StorageFormatError, ValidationError
from repro.graph.shared import attach_graph, publish_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.storage.format import DERIVED_SECTIONS, EDGE_SECTIONS, pack_graph
from tests.conftest import random_graph


def _with_timestamp_dtype(graph: TemporalGraph, dtype) -> TemporalGraph:
    return TemporalGraph.from_canonical_arrays(
        graph.sources, graph.destinations, graph.timestamps.astype(dtype),
        num_nodes=graph.num_nodes,
    )


class TestArrayBundles:
    """Segment lifecycle of one published graph."""

    def test_round_trip_values_and_meta(self, paper_graph):
        col = paper_graph.columnar()
        handle = publish_graph(paper_graph)
        try:
            attached = attach_graph(handle.name)
            got = attached.graph.columnar()
            for name in EDGE_SECTIONS + DERIVED_SECTIONS:
                arr = getattr(col, name)
                view = getattr(got, name)
                assert view.dtype == arr.dtype, name
                assert np.array_equal(view, arr), name
                assert not view.flags.writeable, name
            assert attached.num_nodes == paper_graph.num_nodes
            assert attached.num_edges == paper_graph.num_edges
            assert attached.graph.version == 0
            attached.close()
        finally:
            handle.close()

    def test_manifest_is_picklable(self, paper_graph):
        # The segment name is the whole manifest a worker receives.
        handle = publish_graph(paper_graph)
        try:
            attached = attach_graph(pickle.loads(pickle.dumps(handle.name)))
            assert np.array_equal(attached.graph.timestamps, paper_graph.timestamps)
            attached.close()
        finally:
            handle.close()

    def test_close_unlinks_segment(self, paper_graph):
        handle = publish_graph(paper_graph)
        handle.close()
        with pytest.raises(FileNotFoundError):
            attach_graph(handle.name)

    def test_close_is_idempotent(self, paper_graph):
        handle = publish_graph(paper_graph)
        handle.close()
        handle.close()
        assert handle.closed


def _owner_maps(segment: str) -> bool:
    """Whether this process currently maps the named shm segment."""
    with open("/proc/self/maps") as fh:
        return any(f"/dev/shm/{segment}" in line for line in fh)


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
)
class TestOwnerUnmapsAfterPublish:
    def test_segment_unmapped_but_attachable_and_unlinkable(self, paper_graph):
        col = paper_graph.columnar()
        handle = publish_graph(paper_graph)
        try:
            assert os.path.exists(f"/dev/shm/{handle.name}")
            assert not _owner_maps(handle.name)
            for _ in range(2):
                attached = attach_graph(handle.name)
                got = attached.graph.columnar()
                for name in ("src", "dst", "t", "pair_keys"):
                    assert np.array_equal(getattr(got, name), getattr(col, name)), name
                attached.close()
        finally:
            handle.close()
        assert not os.path.exists(f"/dev/shm/{handle.name}")

    def test_attach_leaves_no_descriptor_behind(self, paper_graph):
        # A view may outlive its handle's close(); once it dies, the
        # attach must hold no file descriptor.
        handle = publish_graph(paper_graph)
        try:
            before = len(os.listdir("/proc/self/fd"))
            attached = attach_graph(handle.name)
            view = attached.graph.timestamps
            attached.close()
            del attached, view
            assert len(os.listdir("/proc/self/fd")) == before
        finally:
            handle.close()

    @pytest.mark.parametrize("kind", ["paper", "empty", "float"])
    def test_segment_holds_the_packed_full_image(self, paper_graph, tmp_path, kind):
        graph = {
            "paper": paper_graph,
            "empty": TemporalGraph([]),
            "float": TemporalGraph([(0, 1, 0.5), (1, 2, 1.25), (0, 2, 2.75)]),
        }[kind]
        path = tmp_path / "g.rgz"
        pack_graph(graph, path, layout="full")
        packed = path.read_bytes()
        handle = publish_graph(graph)
        try:
            with open(f"/dev/shm/{handle.name}", "rb") as fh:
                assert fh.read(len(packed)) == packed
        finally:
            handle.close()


class TestGraphPublication:
    def test_counts_identical_after_attach(self, paper_graph):
        ref = count_motifs(paper_graph, 10)
        handle = publish_graph(paper_graph)
        try:
            attached = attach_graph(handle.name)
            assert count_motifs(attached.graph, 10).same_counts(ref)
            attached.close()
        finally:
            handle.close()

    def test_attached_columnar_is_prebuilt_and_zero_copy(self, paper_graph):
        col = paper_graph.columnar()
        handle = publish_graph(paper_graph)
        try:
            attached = attach_graph(handle.name)
            # The columnar store arrives ready-made (no O(m log m)
            # rebuild) and stamped valid against the fresh graph.
            assert attached.graph._columnar is not None
            assert attached.graph._columnar_version == attached.graph.version
            att_col = attached.graph.columnar()
            assert np.array_equal(att_col.inc_indptr, col.inc_indptr)
            assert np.array_equal(att_col.pair_keys, col.pair_keys)
            assert not att_col.src.flags.writeable
            assert not att_col.src.flags.owndata
            attached.close()
        finally:
            handle.close()

    def test_empty_graph_round_trip(self):
        handle = publish_graph(TemporalGraph([]))
        try:
            attached = attach_graph(handle.name)
            assert attached.graph.num_edges == 0
            assert count_motifs(attached.graph, 5).total() == 0
            attached.close()
        finally:
            handle.close()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_float_timestamps_round_trip(self, dtype):
        g = _with_timestamp_dtype(
            TemporalGraph([(0, 1, 0.5), (1, 0, 1.25), (0, 1, 2.75)]), dtype
        )
        handle = publish_graph(g)
        try:
            attached = attach_graph(handle.name)
            assert attached.graph.timestamps.dtype == dtype
            assert np.array_equal(attached.graph.timestamps, g.timestamps)
            assert count_motifs(attached.graph, 3.0).same_counts(count_motifs(g, 3.0))
            attached.close()
        finally:
            handle.close()

    def test_non_graph_manifest_rejected(self):
        # A segment that does not start with the .rgz magic is no graph.
        shm = shared_memory.SharedMemory(create=True, size=64)
        try:
            shm.buf[:8] = b"NOTAPACK"
            with pytest.raises(StorageFormatError, match="magic"):
                attach_graph(shm.name)
        finally:
            shm.close()
            shm.unlink()

    @pytest.mark.parametrize("seed", [0, 5])
    def test_random_graphs_round_trip(self, seed):
        g = random_graph(seed, num_nodes=8, num_edges=40)
        ref = count_motifs(g, 7)
        handle = publish_graph(g)
        try:
            attached = attach_graph(handle.name)
            assert count_motifs(attached.graph, 7).same_counts(ref)
            attached.close()
        finally:
            handle.close()


class TestCanonicalArrays:
    def test_zero_copy_adoption(self, paper_graph):
        g2 = TemporalGraph.from_canonical_arrays(
            paper_graph.sources, paper_graph.destinations, paper_graph.timestamps,
            num_nodes=paper_graph.num_nodes,
        )
        assert g2.sources is not None
        assert count_motifs(g2, 10).same_counts(count_motifs(paper_graph, 10))
        # Lazy views still work on the adopted columns.
        assert g2.degree(0) == paper_graph.degree(0)
        assert g2.pair_timeline(0, 1) == paper_graph.pair_timeline(0, 1)

    def test_identity_labels_are_lazy_but_complete(self, paper_graph):
        g2 = TemporalGraph.from_canonical_arrays(
            paper_graph.sources, paper_graph.destinations, paper_graph.timestamps,
            num_nodes=paper_graph.num_nodes,
        )
        # Labels are the internal ids, served without O(n) storage.
        assert not isinstance(g2._labels, list)
        assert g2.num_nodes == paper_graph.num_nodes
        assert g2.label(3) == 3
        assert g2.index(3) == 3
        with pytest.raises(KeyError):
            g2.index(g2.num_nodes)
        assert list(g2.edges())[0].t == next(paper_graph.edges()).t

    def test_unsorted_rejected(self):
        with pytest.raises(ValidationError, match="canonical"):
            TemporalGraph.from_canonical_arrays(
                np.array([0, 1]), np.array([1, 0]), np.array([5, 3])
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_timestamps_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            TemporalGraph.from_canonical_arrays(
                np.array([0, 1]), np.array([1, 0]), np.array([1.0, bad])
            )

    def test_identity_index_accepts_numpy_ints(self, paper_graph):
        g2 = TemporalGraph.from_canonical_arrays(
            paper_graph.sources, paper_graph.destinations, paper_graph.timestamps,
            num_nodes=paper_graph.num_nodes,
        )
        # Node ids commonly come out of numpy arrays; attached graphs
        # must treat them like regular graphs do.
        assert g2.index(np.int64(2)) == 2
        assert np.int64(2) in g2._index
        assert g2._index.get(np.int64(99)) is None

    def test_self_loops_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            TemporalGraph.from_canonical_arrays(
                np.array([0, 1]), np.array([0, 0]), np.array([1, 2])
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="equal lengths"):
            TemporalGraph.from_canonical_arrays(
                np.array([0]), np.array([1, 0]), np.array([1, 2])
            )
