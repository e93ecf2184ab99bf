"""Property suite for the packed binary format.

Two contracts:

* **round trip** — for arbitrary random graphs (timestamp ties,
  multi-edges, empty graphs, float timestamps), pack → mmap-open
  reproduces every edge column and every derived columnar array
  bit-identically, and counts over the reopened graph match the
  original on exact and fixed-seed sampling algorithms alike;
* **corruption** — a damaged file (truncation anywhere, bad magic,
  version skew, header bit-flips, NaN/unsorted timestamps or
  out-of-range ids smuggled into the binary sections) raises a typed
  :mod:`repro.errors` exception at open time, never garbage counts.
"""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.api import count_motifs
from repro.errors import (
    ReproError,
    StorageFormatError,
    StorageVersionError,
    ValidationError,
)
from repro.graph.shared import publish_graph
from repro.graph.temporal_graph import TemporalGraph
from repro.storage.format import (
    DERIVED_SECTIONS,
    EDGE_SECTIONS,
    FORMAT_VERSION,
    MAGIC,
    is_packed_file,
    open_packed,
    pack_graph,
    read_header,
    section_span,
)
from tests.conftest import random_graph
from tests.core.test_properties import temporal_graphs

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def _sample_graph():
    return random_graph(seed=9, num_nodes=12, num_edges=120, t_max=40)


def _float_graph():
    return TemporalGraph([(0, 1, 0.5), (1, 2, 1.25), (0, 2, 2.75), (2, 0, 3.5)])


def _corrupt(path, offset: int, data: bytes) -> None:
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(data)


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(graph=temporal_graphs(max_edges=24))
    def test_columns_and_csr_bit_identical(self, graph, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("rt") / "g.rgz")
        pack_graph(graph, path)
        packed = open_packed(path)
        reference = graph.columnar()
        reopened = packed.graph.columnar()
        for name in EDGE_SECTIONS + DERIVED_SECTIONS:
            ref = getattr(reference, name)
            got = getattr(reopened, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name
        assert reopened.num_nodes == reference.num_nodes
        assert reopened.num_edges == reference.num_edges

    @settings(max_examples=10, deadline=None)
    @given(graph=temporal_graphs(max_edges=20))
    def test_counts_identical_after_reopen(self, graph, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("rt") / "g.rgz")
        pack_graph(graph, path)
        packed = open_packed(path)
        for delta in (0, 7):
            a = count_motifs(graph, delta)
            b = count_motifs(packed.graph, delta)
            assert a.same_counts(b), delta
        a = count_motifs(graph, 7, algorithm="bts", seed=3, n_samples=2)
        b = count_motifs(packed.graph, 7, algorithm="bts", seed=3, n_samples=2)
        assert np.array_equal(a.grid, b.grid)

    def test_edges_layout_round_trip(self, tmp_path):
        graph = _sample_graph()
        path = str(tmp_path / "edges.rgz")
        header = pack_graph(graph, path, layout="edges")
        assert header["layout"] == "edges"
        assert {s["name"] for s in header["sections"]} == set(EDGE_SECTIONS)
        packed = open_packed(path)
        reference = graph.columnar()
        reopened = packed.graph.columnar()  # rebuilt lazily, not mmapped
        for name in DERIVED_SECTIONS:
            assert np.array_equal(getattr(reopened, name), getattr(reference, name))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_float_timestamps_round_trip(self, tmp_path, dtype):
        # Timestamps are stored in their own dtype: widening float32
        # to float64 could move an edge across a δ boundary.
        base = _float_graph()
        graph = TemporalGraph.from_canonical_arrays(
            base.sources, base.destinations, base.timestamps.astype(dtype),
            num_nodes=base.num_nodes,
        )
        path = str(tmp_path / "float.rgz")
        pack_graph(graph, path)
        packed = open_packed(path)
        assert packed.graph.timestamps.dtype == dtype
        assert packed.graph.columnar().inc_time.dtype == dtype
        assert np.array_equal(packed.graph.timestamps, graph.timestamps)
        assert count_motifs(packed.graph, 2.5).same_counts(count_motifs(graph, 2.5))

    def test_longdouble_timestamps_refused(self, tmp_path):
        base = _float_graph()
        graph = TemporalGraph.from_canonical_arrays(
            base.sources, base.destinations, base.timestamps.astype(np.longdouble),
            num_nodes=base.num_nodes,
        )
        if graph.timestamps.dtype.itemsize == 8:  # pragma: no cover - longdouble is double
            pytest.skip("longdouble is float64 on this platform")
        with pytest.raises(ValidationError, match="cannot pack"):
            pack_graph(graph, str(tmp_path / "ld.rgz"))
        assert not os.listdir(tmp_path)
        # Shared-memory publication writes the same image.
        with pytest.raises(ValidationError, match="cannot pack"):
            publish_graph(graph)

    def test_empty_graph_round_trip(self, tmp_path):
        path = str(tmp_path / "empty.rgz")
        pack_graph(TemporalGraph([]), path)
        packed = open_packed(path)
        assert packed.num_edges == 0
        assert count_motifs(packed.graph, 5).total() == 0

    def test_zero_copy_views_into_mapping(self, tmp_path):
        graph = _sample_graph()
        path = str(tmp_path / "g.rgz")
        pack_graph(graph, path)
        packed = open_packed(path)
        src = packed.graph.sources
        assert not src.flags.owndata and not src.flags.writeable
        col = packed.graph.columnar()
        assert not col.inc_indptr.flags.owndata

    def test_pack_is_atomic_no_temp_left(self, tmp_path):
        path = str(tmp_path / "g.rgz")
        pack_graph(_sample_graph(), path)
        assert is_packed_file(path)
        leftovers = [f for f in os.listdir(tmp_path) if ".tmp-" in f]
        assert not leftovers

    def test_header_describes_file(self, tmp_path):
        path = str(tmp_path / "g.rgz")
        graph = _sample_graph()
        written = pack_graph(graph, path)
        header = read_header(path)
        assert header == written
        assert header["num_edges"] == graph.num_edges
        assert header["num_nodes"] == graph.num_nodes

    def test_pack_rejects_bad_inputs(self, tmp_path):
        with pytest.raises(ValidationError):
            pack_graph("not a graph", str(tmp_path / "x.rgz"))
        with pytest.raises(ValidationError):
            pack_graph(_sample_graph(), str(tmp_path / "x.rgz"), layout="spiral")


# ----------------------------------------------------------------------
# corruption: typed errors, never garbage counts
# ----------------------------------------------------------------------
@pytest.fixture()
def packed_path(tmp_path):
    path = str(tmp_path / "victim.rgz")
    pack_graph(_sample_graph(), path)
    return path


class TestCorruption:
    def test_truncation_anywhere_raises(self, packed_path):
        size = os.path.getsize(packed_path)
        blob = open(packed_path, "rb").read()
        # Preamble, header, first section, and last-byte truncations.
        for cut in (0, 5, 23, 40, size // 2, size - 1):
            with open(packed_path, "wb") as fh:
                fh.write(blob[:cut])
            with pytest.raises(StorageFormatError):
                open_packed(packed_path)

    def test_bad_magic(self, packed_path):
        _corrupt(packed_path, 0, b"NOTAPACK")
        with pytest.raises(StorageFormatError, match="magic"):
            open_packed(packed_path)

    def test_endian_sentinel_mismatch(self, packed_path):
        _corrupt(packed_path, len(MAGIC), struct.pack("<H", 0x3412))
        with pytest.raises(StorageFormatError, match="endian"):
            open_packed(packed_path)

    def test_version_skew(self, packed_path):
        # Version 1 carried a pair Bloom-filter section this build no
        # longer reads; a future version is equally unreadable.
        assert FORMAT_VERSION == 3
        for version in (1, FORMAT_VERSION + 9):
            _corrupt(packed_path, len(MAGIC) + 2, struct.pack("<H", version))
            with pytest.raises(StorageVersionError, match="re-pack"):
                open_packed(packed_path)

    def test_version_error_is_format_error(self):
        assert issubclass(StorageVersionError, StorageFormatError)
        assert issubclass(StorageFormatError, ReproError)
        assert issubclass(StorageFormatError, ValueError)

    def test_header_bitflip_fails_crc(self, packed_path):
        _corrupt(packed_path, 30, b"X")
        with pytest.raises(StorageFormatError, match="CRC|JSON|field|section"):
            open_packed(packed_path)

    def test_nonfinite_timestamps_in_binary(self, tmp_path):
        path = str(tmp_path / "float.rgz")
        pack_graph(_float_graph(), path)
        offset, _ = section_span(path, "t")
        _corrupt(path, offset, struct.pack("<d", float("nan")))
        with pytest.raises(StorageFormatError, match="finite"):
            open_packed(path)

    def test_unsorted_timestamps_in_binary(self, packed_path):
        offset, _ = section_span(packed_path, "t")
        _corrupt(packed_path, offset, struct.pack("<q", 2**40))
        with pytest.raises(StorageFormatError, match="sorted"):
            open_packed(packed_path)

    def test_out_of_range_node_id(self, packed_path):
        offset, _ = section_span(packed_path, "src")
        _corrupt(packed_path, offset, struct.pack("<q", 10**6))
        with pytest.raises(StorageFormatError, match="out of range"):
            open_packed(packed_path)

    def test_negative_node_id(self, packed_path):
        offset, _ = section_span(packed_path, "dst")
        _corrupt(packed_path, offset, struct.pack("<q", -3))
        with pytest.raises(StorageFormatError, match="out of range"):
            open_packed(packed_path)

    def test_smuggled_self_loop(self, packed_path):
        src_off, _ = section_span(packed_path, "src")
        dst_off, _ = section_span(packed_path, "dst")
        with open(packed_path, "rb") as fh:
            fh.seek(src_off)
            first_src = fh.read(8)
        _corrupt(packed_path, dst_off, first_src)
        with pytest.raises(StorageFormatError, match="self-loop"):
            open_packed(packed_path)

    def test_corrupt_csr_structure(self, packed_path):
        offset, _ = section_span(packed_path, "inc_indptr")
        _corrupt(packed_path, offset, struct.pack("<q", 99))
        with pytest.raises(StorageFormatError, match="CSR"):
            open_packed(packed_path)

    def test_corrupt_eid_index(self, packed_path):
        offset, _ = section_span(packed_path, "inc_eid")
        _corrupt(packed_path, offset, struct.pack("<q", 10**9))
        with pytest.raises(StorageFormatError, match="indices outside"):
            open_packed(packed_path)

    def test_is_packed_file_sniffing(self, packed_path, tmp_path):
        assert is_packed_file(packed_path)
        text = tmp_path / "edges.txt"
        text.write_text("0 1 2\n")
        assert not is_packed_file(str(text))
        assert not is_packed_file(str(tmp_path / "missing.rgz"))

    def test_plain_text_file_rejected(self, tmp_path):
        text = str(tmp_path / "edges.txt")
        with open(text, "w") as fh:
            fh.write("0 1 2\n1 2 3\n")
        with pytest.raises(StorageFormatError):
            open_packed(text)


# ----------------------------------------------------------------------
# version 2 files (written by the previous release's pack_graph)
# ----------------------------------------------------------------------
class TestVersion2:
    """``fixtures/v2_*.rgz`` were packed by the version-2 writer, whose
    full layout also stored a ``grp_id`` section; this build reads
    them and ignores that section."""

    @pytest.mark.parametrize("name, graph", [
        ("v2_full.rgz", random_graph(seed=3, num_nodes=8, num_edges=30, t_max=20)),
        ("v2_float_full.rgz", _float_graph()),
    ])
    def test_opens_with_identical_counts(self, name, graph):
        path = os.path.join(FIXTURES, name)
        with open(path, "rb") as fh:
            assert struct.unpack_from("<H", fh.read(), len(MAGIC) + 2) == (2,)
        packed = open_packed(path)
        assert packed.layout == "full"
        assert "grp_id" in {s["name"] for s in packed.header["sections"]}
        reference = graph.columnar()
        reopened = packed.graph.columnar()
        for section in EDGE_SECTIONS + DERIVED_SECTIONS:
            ref, got = getattr(reference, section), getattr(reopened, section)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), section
        for delta in (0, 2.5, 7):
            for algorithm in ("fast", "ex", "bruteforce"):
                a = count_motifs(graph, delta, algorithm=algorithm)
                b = count_motifs(packed.graph, delta, algorithm=algorithm)
                assert a.same_counts(b), (delta, algorithm)
        a = count_motifs(graph, 7, algorithm="bts", seed=3, n_samples=2)
        b = count_motifs(packed.graph, 7, algorithm="bts", seed=3, n_samples=2)
        assert np.array_equal(a.grid, b.grid)

    def test_new_files_drop_grp_id(self, tmp_path):
        path = str(tmp_path / "g.rgz")
        header = pack_graph(_sample_graph(), path)
        names = [s["name"] for s in header["sections"]]
        assert names == list(EDGE_SECTIONS + DERIVED_SECTIONS)
        assert "grp_id" not in names and "scalars" not in header
        small = str(tmp_path / "small.rgz")
        pack_graph(random_graph(seed=3, num_nodes=8, num_edges=30, t_max=20), small)
        assert os.path.getsize(small) < os.path.getsize(os.path.join(FIXTURES, "v2_full.rgz"))
