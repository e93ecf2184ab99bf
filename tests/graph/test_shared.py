"""Shared-memory graph publication: publish/attach round trips."""

import os

import numpy as np
import pytest

from repro.core.api import count_motifs
from repro.errors import ValidationError
from repro.graph.shared import (
    ArrayBundleManifest,
    ArraySpec,
    AttachedArrays,
    SharedArrays,
    _publish_into_segment,
    attach_graph,
    publish_graph,
)
from repro.graph.temporal_graph import TemporalGraph
from tests.conftest import random_graph


class TestArrayBundles:
    """Segment lifecycle of one published graph bundle."""

    def test_round_trip_values_and_meta(self, paper_graph):
        col = paper_graph.columnar()
        handle = publish_graph(paper_graph)
        try:
            attached = attach_graph(handle.manifest)
            arrays = attached._attached.arrays
            expected = {
                "edge.src": paper_graph.sources,
                "edge.t": paper_graph.timestamps,
                "col.inc_dir": col.inc_dir,
                "col.pair_keys": col.pair_keys,
            }
            for name, arr in expected.items():
                got = arrays[name]
                assert got.dtype == arr.dtype, name
                assert np.array_equal(got, arr), name
                assert not got.flags.writeable, name
            meta = handle.manifest.metadata()
            assert meta["num_nodes"] == paper_graph.num_nodes
            assert meta["num_edges"] == paper_graph.num_edges
            assert meta["version"] == paper_graph.version
            attached.close()
        finally:
            handle.close()

    def test_manifest_is_picklable(self, paper_graph):
        import pickle

        handle = publish_graph(paper_graph)
        try:
            manifest = pickle.loads(pickle.dumps(handle.manifest))
            attached = attach_graph(manifest)
            assert np.array_equal(attached.graph.timestamps, paper_graph.timestamps)
            attached.close()
        finally:
            handle.close()

    def test_close_unlinks_segment(self, paper_graph):
        handle = publish_graph(paper_graph)
        manifest = handle.manifest
        handle.close()
        with pytest.raises(FileNotFoundError):
            attach_graph(manifest)

    def test_close_is_idempotent(self, paper_graph):
        handle = publish_graph(paper_graph)
        handle.close()
        handle.close()


def _owner_maps(segment: str) -> bool:
    """Whether this process currently maps the named shm segment."""
    with open("/proc/self/maps") as fh:
        return any(f"/dev/shm/{segment}" in line for line in fh)


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
)
class TestOwnerUnmapsAfterPublish:
    @pytest.mark.parametrize("kind", ["arrays", "graph"])
    def test_segment_unmapped_but_attachable_and_unlinkable(self, paper_graph, kind):
        # "arrays": a bare edge-column bundle; "graph": a whole graph,
        # columnar store included.
        expected = {
            "edge.src": paper_graph.sources,
            "edge.dst": paper_graph.destinations,
            "edge.t": paper_graph.timestamps,
        }
        if kind == "graph":
            expected["col.pair_keys"] = paper_graph.columnar().pair_keys
            handle = publish_graph(paper_graph)
        else:
            handle = SharedArrays(*_publish_into_segment(expected, meta=None))
        try:
            assert os.path.exists(f"/dev/shm/{handle.name}")
            assert not _owner_maps(handle.name)
            for _ in range(2):
                if kind == "graph":
                    attached = attach_graph(handle.manifest)
                    arrays = attached._attached.arrays
                else:
                    attached = AttachedArrays(handle.manifest)
                    arrays = attached.arrays
                for name, arr in expected.items():
                    assert np.array_equal(arrays[name], arr), name
                attached.close()
        finally:
            handle.close()
        assert not os.path.exists(f"/dev/shm/{handle.name}")


class TestGraphPublication:
    def test_counts_identical_after_attach(self, paper_graph):
        ref = count_motifs(paper_graph, 10)
        handle = publish_graph(paper_graph)
        try:
            attached = attach_graph(handle.manifest)
            assert count_motifs(attached.graph, 10).same_counts(ref)
            attached.close()
        finally:
            handle.close()

    def test_attached_columnar_is_prebuilt_and_zero_copy(self, paper_graph):
        col = paper_graph.columnar()
        handle = publish_graph(paper_graph)
        try:
            attached = attach_graph(handle.manifest)
            # The columnar store arrives ready-made (no O(m log m)
            # rebuild) and stamped valid against the fresh graph.
            assert attached.graph._columnar is not None
            assert attached.graph._columnar_version == attached.graph.version
            att_col = attached.graph.columnar()
            assert np.array_equal(att_col.inc_indptr, col.inc_indptr)
            assert np.array_equal(att_col.pair_keys, col.pair_keys)
            assert not att_col.src.flags.writeable
            attached.close()
        finally:
            handle.close()

    def test_empty_graph_round_trip(self):
        handle = publish_graph(TemporalGraph([]))
        try:
            attached = attach_graph(handle.manifest)
            assert attached.graph.num_edges == 0
            assert count_motifs(attached.graph, 5).total() == 0
            attached.close()
        finally:
            handle.close()

    def test_float_timestamps_round_trip(self):
        g = TemporalGraph([(0, 1, 0.5), (1, 0, 1.25), (0, 1, 2.75)])
        handle = publish_graph(g)
        try:
            attached = attach_graph(handle.manifest)
            assert attached.graph.timestamps.dtype == np.float64
            assert count_motifs(attached.graph, 3.0).same_counts(count_motifs(g, 3.0))
            attached.close()
        finally:
            handle.close()

    def test_non_graph_manifest_rejected(self):
        manifest = ArrayBundleManifest("unused", (ArraySpec("x", "<i8", (4,), 0),))
        with pytest.raises(ValidationError, match="graph bundle"):
            attach_graph(manifest)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_random_graphs_round_trip(self, seed):
        g = random_graph(seed, num_nodes=8, num_edges=40)
        ref = count_motifs(g, 7)
        handle = publish_graph(g)
        try:
            attached = attach_graph(handle.manifest)
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
