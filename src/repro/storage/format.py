"""Versioned binary columnar edge-store format (``repro pack`` / ``.rgz``).

The one columnar layout of the repository: a temporal graph is
*packed* once into a single image of timestamp-sorted edge columns plus
(optionally) every derived :class:`~repro.graph.columnar.ColumnarGraph`
array — the incidence CSR, the pair CSR and the composite rank keys
— and reopened in O(validation) through one
``mmap``.  Parse cost and columnar-build cost are paid at pack time,
not per run; at open time every array is a zero-copy view into the
mapping, so the kernel pages columns in on demand and a counting run
whose shard budget is far below the file size never needs the whole
graph resident.  The same image, written by the same
:func:`write_image` and read by the same :func:`map_image`, is what
:func:`repro.graph.shared.publish_graph` puts into shared memory for
the worker pool.

File layout (all integers little-endian)::

    offset 0   preamble, 24 bytes:  struct '<8sHHII4x'
               magic     8s   b"\\x89RGZ\\r\\n\\x1a\\n"  (PNG-style: binary
                               sniff byte + CRLF/LF mangling detectors)
               endian    u16  0x1234 sentinel (this format is LE-only)
               version   u16  FORMAT_VERSION
               hlen      u32  header JSON length in bytes
               hcrc      u32  zlib.crc32 of the header JSON bytes
    offset 24  header: UTF-8 JSON -- num_nodes, num_edges, layout
               ("edges" | "full") and a section table of
               {name, dtype, shape, offset, nbytes} entries
    data       sections, each 64-byte aligned; section offsets are
               relative to ``data_start = align64(24 + hlen)`` so the
               header never has to know its own length

Every open validates before any counting can happen: magic, endian
sentinel, version, header CRC, section bounds against the real file
size, timestamp finiteness/sortedness, node-id ranges, and (for the
``full`` layout) the structural invariants of the derived arrays.  A
shared-memory attach skips the O(m) range and structure checks: that
image was written by the program itself.
Corruption therefore surfaces as a typed
:class:`~repro.errors.StorageFormatError` /
:class:`~repro.errors.StorageVersionError` — never as garbage counts.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import StorageFormatError, StorageVersionError, ValidationError
from repro.graph.columnar import ColumnarGraph
# Edge-column sections (every layout), then the derived ColumnarGraph
# arrays ``layout="full"`` adds, in file order: both lists are defined
# once, by the columnar store itself.
from repro.graph.columnar import DERIVED_ARRAYS as DERIVED_SECTIONS
from repro.graph.columnar import EDGE_ARRAYS as EDGE_SECTIONS
from repro.graph.temporal_graph import TemporalGraph

#: First bytes of every packed file.  Modeled on the PNG signature: a
#: non-ASCII sniff byte, the format name, then CRLF and LF so text-mode
#: transfer corruption is caught by the magic check itself.
MAGIC = b"\x89RGZ\r\n\x1a\n"

#: Format version this build writes.  Version 2 dropped the pair
#: Bloom-filter section of version 1; version 3 dropped the unread
#: ``grp_id`` section (16 B/edge) and the always-empty ``scalars``
#: header field.
FORMAT_VERSION = 3

#: Versions this build reads: a version-2 file's ``grp_id`` section and
#: ``scalars`` field are ignored.
READABLE_VERSIONS = (2, FORMAT_VERSION)

#: Endianness sentinel stored as a little-endian u16; any other value
#: means the preamble was produced (or mangled) byte-swapped.
ENDIAN_SENTINEL = 0x1234

#: Section alignment: cache-line / SIMD friendly, and enough for any
#: dtype numpy will ever map over the sections.
ALIGNMENT = 64

#: Preamble layout (24 bytes): magic, endian sentinel, version, header
#: length, header CRC32, 4 pad bytes.
_PREAMBLE = struct.Struct("<8sHHII4x")

#: dtypes a section may declare: int64 for ids, CSR offsets and integer
#: timestamps, and every IEEE float a ``TemporalGraph`` can hold as
#: timestamps (stored as they are: widening would change δ
#: comparisons).  ``longdouble`` is refused: its bytes differ between
#: platforms.
_SECTION_DTYPES = ("<i8", "<f2", "<f4", "<f8")

LAYOUTS = ("full", "edges")


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _little_endian(arr: np.ndarray) -> np.ndarray:
    """A C-contiguous little-endian view/copy of ``arr`` for writing."""
    return np.ascontiguousarray(arr.astype(arr.dtype.newbyteorder("<"), copy=False))


# ----------------------------------------------------------------------
# write
# ----------------------------------------------------------------------
class Image(NamedTuple):
    """A packed graph laid out in memory, ready to be written.

    ``chunks`` are ``(absolute offset, bytes-like)`` pairs; the bytes
    between them (section alignment padding) are zero.
    """

    header: Dict[str, object]
    chunks: List[Tuple[int, object]]
    nbytes: int


def build_image(graph: TemporalGraph, layout: str = "full") -> Image:
    """Lay ``graph`` out as a packed image (see the module docstring).

    ``layout="full"`` also stores every derived :class:`ColumnarGraph`
    array (building the store first if needed); ``layout="edges"``
    only the three edge columns.  Nothing is copied: the section
    chunks are the graph's own (little-endian) arrays.
    """
    if not isinstance(graph, TemporalGraph):
        raise ValidationError(
            f"cannot pack a {type(graph).__name__}; need a TemporalGraph"
        )
    if layout not in LAYOUTS:
        raise ValidationError(f"unknown layout {layout!r}; choose from {LAYOUTS}")
    arrays = [graph.sources, graph.destinations, graph.timestamps]
    names = EDGE_SECTIONS
    if layout == "full":
        col = graph.columnar()
        arrays += [getattr(col, name) for name in DERIVED_SECTIONS]
        names += DERIVED_SECTIONS
    sections = []
    payload = []
    offset = 0
    for name, arr in zip(names, arrays):
        arr = _little_endian(arr)
        if arr.dtype.str not in _SECTION_DTYPES:
            raise ValidationError(
                f"cannot pack array of dtype {arr.dtype}; packable: {_SECTION_DTYPES}"
            )
        offset = _align(offset)
        sections.append({
            "name": name,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": int(arr.nbytes),
        })
        payload.append(arr)
        offset += arr.nbytes
    header = {
        "num_nodes": int(graph.num_nodes),
        "num_edges": int(graph.num_edges),
        "layout": layout,
        "sections": sections,
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    preamble = _PREAMBLE.pack(
        MAGIC, ENDIAN_SENTINEL, FORMAT_VERSION, len(header_bytes),
        zlib.crc32(header_bytes),
    )
    data_start = _align(_PREAMBLE.size + len(header_bytes))
    chunks: List[Tuple[int, object]] = [(0, preamble + header_bytes)]
    chunks += [
        (data_start + section["offset"], arr.reshape(-1).view(np.uint8))
        for section, arr in zip(sections, payload)
    ]
    return Image(header, chunks, data_start + offset)


def write_image(fd: int, image: Image) -> None:
    """Write ``image`` through descriptor ``fd`` (a file or a shm segment).

    Sizes the target first (a shm segment is created sized, and some
    platforms refuse to resize one), so padding and empty trailing
    sections read as zeros, then ``os.pwrite``-s each chunk in place:
    no page of the target is ever mapped into the writer's address
    space.
    """
    if os.fstat(fd).st_size != image.nbytes:
        os.ftruncate(fd, image.nbytes)
    for offset, data in image.chunks:
        written = 0
        while written < len(data):
            written += os.pwrite(fd, data[written:], offset + written)


def pack_graph(graph: TemporalGraph, path, *, layout: str = "full") -> Dict[str, object]:
    """Write ``graph`` to ``path`` in the packed binary format.

    ``layout="full"`` (default) also persists every derived
    :class:`ColumnarGraph` array so an open needs no columnar rebuild;
    ``layout="edges"`` stores only the three edge columns (smallest
    file, columnar arrays rebuilt lazily on first kernel use).  The
    write is atomic: bytes go to a same-directory temp file that is
    ``os.replace``-d over ``path`` only after an ``fsync``, so a
    crashed pack never leaves a half-written file under the real name.

    Returns the header dict actually written (section table included).
    """
    image = build_image(graph, layout)
    path = os.fspath(path)
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            write_image(fd, image)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # pragma: no cover - crash-path hygiene
            os.unlink(tmp)
    return image.header


# ----------------------------------------------------------------------
# open
# ----------------------------------------------------------------------
def is_packed_file(path) -> bool:
    """Whether ``path`` exists and starts with the packed-graph magic."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def read_header(path) -> Dict[str, object]:
    """Validate the preamble + header of ``path`` and return the header.

    The cheap half of :func:`open_packed` (no section mapping, no
    column validation) — what the CLI uses to describe a packed file.
    Raises :class:`StorageFormatError` / :class:`StorageVersionError`
    exactly like a full open would.
    """
    return _file_header(os.fspath(path))[0]


def _file_header(path: str) -> Tuple[Dict[str, object], int]:
    with open(path, "rb") as fh:
        fd = fh.fileno()
        return _parse_header(
            path, lambda off, n: os.pread(fd, n, off), os.fstat(fd).st_size
        )


def _parse_header(origin: str, read: Callable[[int, int], bytes],
                  size: int) -> Tuple[Dict[str, object], int]:
    """Check preamble and header of an image of ``size`` bytes.

    ``read(offset, n)`` returns up to ``n`` bytes at ``offset``.
    Returns the header and the absolute offset its sections count from.
    """
    blob = read(0, _PREAMBLE.size)
    if len(blob) < _PREAMBLE.size:
        raise StorageFormatError(
            f"{origin}: truncated preamble ({len(blob)} of {_PREAMBLE.size} bytes)"
        )
    magic, endian, version, hlen, hcrc = _PREAMBLE.unpack(blob)
    if magic != MAGIC:
        raise StorageFormatError(
            f"{origin}: not a packed graph (bad magic {magic!r})"
        )
    if endian != ENDIAN_SENTINEL:
        raise StorageFormatError(
            f"{origin}: endianness sentinel mismatch "
            f"(0x{endian:04x} != 0x{ENDIAN_SENTINEL:04x}); file was written "
            f"byte-swapped or corrupted"
        )
    if version not in READABLE_VERSIONS:
        raise StorageVersionError(
            f"{origin}: format version {version} is not readable by this build "
            f"(reads {READABLE_VERSIONS}); re-pack with `repro pack`"
        )
    if _PREAMBLE.size + hlen > size:
        raise StorageFormatError(
            f"{origin}: truncated header (declares {hlen} bytes, file has "
            f"{size - _PREAMBLE.size} past the preamble)"
        )
    header_bytes = read(_PREAMBLE.size, hlen)
    if len(header_bytes) != hlen or zlib.crc32(header_bytes) != hcrc:
        raise StorageFormatError(f"{origin}: header CRC mismatch (corrupted header)")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageFormatError(f"{origin}: header is not valid JSON: {exc}") from exc
    data_start = _align(_PREAMBLE.size + hlen)
    _check_header(origin, header, size, data_start)
    return header, data_start


def _check_header(path: str, header, size: int, data_start: int) -> None:
    if not isinstance(header, dict):
        raise StorageFormatError(f"{path}: header must be a JSON object")
    for key, kind in (("num_nodes", int), ("num_edges", int), ("layout", str),
                      ("sections", list)):
        if not isinstance(header.get(key), kind):
            raise StorageFormatError(f"{path}: header field {key!r} missing or mistyped")
    if header["layout"] not in LAYOUTS:
        raise StorageFormatError(f"{path}: unknown layout {header['layout']!r}")
    if header["num_nodes"] < 0 or header["num_edges"] < 0:
        raise StorageFormatError(f"{path}: negative graph dimensions in header")
    names = set()
    for section in header["sections"]:
        if not isinstance(section, dict):
            raise StorageFormatError(f"{path}: malformed section table entry")
        name = section.get("name")
        dtype = section.get("dtype")
        shape = section.get("shape")
        offset = section.get("offset")
        nbytes = section.get("nbytes")
        if (
            not isinstance(name, str)
            or dtype not in _SECTION_DTYPES
            or not isinstance(shape, list)
            or not all(isinstance(dim, int) and dim >= 0 for dim in shape)
            or not isinstance(offset, int)
            or not isinstance(nbytes, int)
            or offset < 0
            or nbytes < 0
        ):
            raise StorageFormatError(f"{path}: malformed section {name!r}")
        if name in names:
            raise StorageFormatError(f"{path}: duplicate section {name!r}")
        names.add(name)
        expect = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        if expect != nbytes:
            raise StorageFormatError(
                f"{path}: section {name!r} declares {nbytes} bytes for shape "
                f"{shape} dtype {dtype} (expected {expect})"
            )
        if data_start + offset + nbytes > size:
            raise StorageFormatError(
                f"{path}: section {name!r} extends past end of file "
                f"(truncated: needs {data_start + offset + nbytes} bytes, "
                f"file has {size})"
            )
    missing = set(EDGE_SECTIONS) - names
    if missing:
        raise StorageFormatError(f"{path}: missing edge sections {sorted(missing)}")
    if header["layout"] == "full":
        lost = set(DERIVED_SECTIONS) - names
        if lost:
            raise StorageFormatError(
                f"{path}: layout 'full' is missing derived sections {sorted(lost)}"
            )


def section_span(path, name: str) -> Tuple[int, int]:
    """Absolute ``(offset, nbytes)`` of one section inside ``path``.

    Debugging/testing helper: where a named section's bytes live in
    the file (corruption tests poke exactly these ranges).
    """
    path = os.fspath(path)
    header, data_start = _file_header(path)
    for section in header["sections"]:  # type: ignore[union-attr]
        if section["name"] == name:
            return data_start + int(section["offset"]), int(section["nbytes"])
    raise StorageFormatError(f"{path}: no section named {name!r}")


class PackedGraph:
    """An open packed image: zero-copy views plus the graph object.

    ``graph`` is a :class:`TemporalGraph` whose edge columns are views
    straight into the mapping (with the columnar store pre-attached for
    the ``full`` layout), so it drops into every existing counting
    path unchanged.  The mapping — a file's ``mmap`` or an attached
    shared-memory segment, named by ``path`` — stays alive as long as
    any array view references it (numpy's buffer chain pins it), so
    letting a :class:`PackedGraph` go out of scope mid-count is safe.
    """

    def __init__(self, path: str, header: Dict[str, object],
                 sections: Dict[str, np.ndarray], graph: TemporalGraph,
                 mapping, file_bytes: int) -> None:
        self.path = path
        self.header = header
        self.sections = sections
        self.graph = graph
        self.file_bytes = file_bytes
        self._mapping = mapping

    @property
    def num_nodes(self) -> int:
        return int(self.header["num_nodes"])  # type: ignore[arg-type]

    @property
    def num_edges(self) -> int:
        return int(self.header["num_edges"])  # type: ignore[arg-type]

    @property
    def layout(self) -> str:
        return str(self.header["layout"])

    def close(self) -> None:
        """Release this handle's references (best effort).

        The underlying mapping can only really close once every numpy
        view over it is gone; until then ``mmap`` refuses (exported
        buffers) and we leave the OS to reclaim it with the last view.
        """
        self.sections = {}
        self.graph = None  # type: ignore[assignment]
        if self._mapping is not None:
            try:
                self._mapping.close()
            except BufferError:
                pass
            self._mapping = None

    def __enter__(self) -> "PackedGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedGraph({self.path!r}, layout={self.layout!r}, "
            f"nodes={self.num_nodes}, edges={self.num_edges}, "
            f"bytes={self.file_bytes})"
        )


def open_packed(path) -> PackedGraph:
    """Open a packed graph file as zero-copy mmap-backed arrays.

    Validates everything the format promises (see the module
    docstring) and returns a :class:`PackedGraph` whose ``graph``
    behaves exactly like the in-memory original: counts over it are
    byte-identical on every algorithm.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if not size:
            raise StorageFormatError(f"{path}: empty file, not a packed graph")
        mapping = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)

    def release(off: int, nbytes: int) -> None:
        # Validation paged this section in; hand the (clean, read-only)
        # pages back so peak RSS tracks the counting working set, not
        # the whole file.  They re-fault from the page cache on demand
        # if a kernel touches them later.
        if not hasattr(mmap, "MADV_DONTNEED"):  # pragma: no cover
            return
        page = mmap.PAGESIZE
        start = (off + page - 1) // page * page
        end = (off + nbytes) // page * page
        if end > start:
            mapping.madvise(mmap.MADV_DONTNEED, start, end - start)

    return map_image(path, mapping, size, mapping, release=release)


def map_image(origin: str, buf, size: int, owner, *, trusted: bool = False,
              release: Optional[Callable[[int, int], None]] = None) -> PackedGraph:
    """Build the zero-copy graph over a packed image mapped as ``buf``.

    The one reader behind :func:`open_packed` (a file mapping) and
    :func:`repro.graph.shared.attach_graph` (a shared-memory segment).
    ``owner`` is the mapping object the returned handle closes (it is
    closed here if the image is rejected).  Magic, version, header and
    section bounds are always checked; ``trusted`` skips the O(m)
    content checks (node-id ranges, derived CSR structure) that only
    images from outside the program need.  ``release(offset, nbytes)``
    is called for each section whose contents validation read.
    """
    try:
        view = memoryview(buf).toreadonly()
        header, data_start = _parse_header(
            origin, lambda off, n: bytes(view[off:off + n]), size
        )
        sections: Dict[str, np.ndarray] = {}
        spans: Dict[str, Tuple[int, int]] = {}
        for section in header["sections"]:  # type: ignore[union-attr]
            off = data_start + int(section["offset"])
            nbytes = int(section["nbytes"])
            sections[str(section["name"])] = np.frombuffer(
                view[off:off + nbytes], dtype=np.dtype(str(section["dtype"]))
            ).reshape([int(dim) for dim in section["shape"]])
            spans[str(section["name"])] = (off, nbytes)
        graph = _assemble(origin, header, sections, trusted, None if release is None
                          else lambda name: release(*spans[name]))
    except BaseException:
        try:
            owner.close()
        except BufferError:  # pragma: no cover - views escaped mid-failure
            pass
        raise
    return PackedGraph(origin, header, sections, graph, owner, size)


def _assemble(path: str, header, sections: Dict[str, np.ndarray],
              trusted: bool, release=None) -> TemporalGraph:
    """Validate column contents and build the zero-copy graph object."""
    n = int(header["num_nodes"])
    m = int(header["num_edges"])
    src, dst, t = sections["src"], sections["dst"], sections["t"]
    for name in EDGE_SECTIONS:
        if sections[name].shape != (m,):
            raise StorageFormatError(
                f"{path}: edge section {name!r} has shape "
                f"{sections[name].shape}, expected ({m},)"
            )
    if src.dtype != np.int64 or dst.dtype != np.int64:
        raise StorageFormatError(f"{path}: src/dst sections must be int64")
    # Finite, sorted, self-loop-free: from_canonical_arrays checks
    # those on every path; ranges are only checked for outside images.
    if not trusted and m and (
        int(src.min()) < 0 or int(dst.min()) < 0
        or int(src.max()) >= n or int(dst.max()) >= n
    ):
        raise StorageFormatError(f"{path}: node ids out of range for num_nodes={n}")
    try:
        graph = TemporalGraph.from_canonical_arrays(src, dst, t, num_nodes=n)
    except ValidationError as exc:
        raise StorageFormatError(f"{path}: {exc}") from exc
    if header["layout"] == "full":
        if not trusted:
            _check_derived(path, sections, n, m, release)
        graph._columnar = ColumnarGraph._attach(sections)
        graph._columnar_version = graph._version
    return graph


def _check_derived(path: str, sections: Dict[str, np.ndarray],
                   n: int, m: int, release=None) -> None:
    """Structural invariants of the persisted columnar arrays.

    Cheap O(m) checks that catch tampering/corruption the kernels
    would otherwise turn into IndexErrors deep inside a count: CSR
    offsets monotone with the right endpoints, index arrays inside
    their ranges, parallel arrays the right length.  ``release`` (when
    given) is called with each section name whose *contents* were read,
    so a memory-mapped open can return the validated pages to the OS.
    """
    total = 2 * m

    def _shape(name: str, length: int) -> np.ndarray:
        arr = sections[name]
        if arr.shape != (length,):
            raise StorageFormatError(
                f"{path}: section {name!r} has shape {arr.shape}, "
                f"expected ({length},)"
            )
        return arr

    def _indptr(name: str, rows: int, entries: int) -> None:
        arr = _shape(name, rows)
        if len(arr) and (int(arr[0]) != 0 or int(arr[-1]) != entries
                         or np.any(np.diff(arr) < 0)):
            raise StorageFormatError(
                f"{path}: section {name!r} is not a valid CSR offset array"
            )
        if release is not None:
            release(name)

    def _bounded(name: str, length: int, hi: int) -> None:
        arr = _shape(name, length)
        if len(arr) and (int(arr.min()) < 0 or int(arr.max()) >= hi):
            raise StorageFormatError(
                f"{path}: section {name!r} holds indices outside [0, {hi})"
            )
        if release is not None:
            release(name)

    _indptr("inc_indptr", n + 1, total)
    _shape("inc_time", total)
    _bounded("inc_nbr", total, max(n, 1))
    _shape("inc_dir", total)
    _bounded("inc_eid", total, max(m, 1))
    _shape("inc_cum_in", total + 1)
    _bounded("inc_row", total, max(n, 1))
    _shape("inc_row_key", total)
    _bounded("grp_order", total, max(total, 1))
    _bounded("grp_inv", total, max(total, 1))
    _shape("grp_rank_key", total)
    _shape("grp_cum_in", total + 1)
    pair_keys = sections["pair_keys"]
    _indptr("pair_indptr", len(pair_keys) + 1, m)
    _shape("pair_time", m)
    _shape("pair_dir", m)
    _bounded("pair_eid", m, max(m, 1))
    _shape("pair_cum_in", m + 1)
    _shape("pair_rank_key", m)
