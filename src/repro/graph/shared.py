"""Shared-memory publication of graphs for the persistent worker pool.

The HARE framework of §IV-C assumes OpenMP threads reading one shared
graph.  Its process analogue here is the persistent
:class:`~repro.parallel.pool.WorkerPool`, whether its workers are
forked or spawned: the owner *publishes* a graph's columnar arrays into
one :mod:`multiprocessing.shared_memory` segment, and every worker
*attaches* zero-copy NumPy views over the same physical pages.

:func:`publish_graph` / :func:`attach_graph`
    A whole :class:`~repro.graph.temporal_graph.TemporalGraph`: the
    canonical edge columns plus every array of its
    :class:`~repro.graph.columnar.ColumnarGraph`, in one segment
    described by a picklable :class:`ArrayBundleManifest` (name →
    dtype/shape/offset) and reassembled on attach without any
    re-sorting or CSR rebuilding.

Lifecycle (see ``docs/architecture.md``)
    The **owner** calls :func:`publish_graph` (create, write through
    the descriptor, unmap: it keeps its own private arrays, so the
    segment's pages never enter its address space), ships the manifest
    to workers (it is tiny and picklable), and eventually calls
    :meth:`SharedGraph.close`, which unlinks the name.  Each **worker**
    calls :func:`attach_graph` (map, no copy) and
    :meth:`AttachedGraph.close` when evicting.  This relies on POSIX
    shared memory, where a linked name outlives every mapping and the
    physical segment lives until the last mapping closes, so the owner
    may unlink while workers still compute on it.
"""

from __future__ import annotations

import os
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.graph.columnar import ColumnarGraph
from repro.graph.temporal_graph import TemporalGraph

#: Byte alignment of each array inside a segment (cache-line friendly).
_ALIGN = 64


class _QuietSharedMemory(shared_memory.SharedMemory):
    """A ``SharedMemory`` whose destructor tolerates live array views.

    NumPy views over ``shm.buf`` may legally outlive the handle object
    (the attachment holder is garbage-collected while a result array
    is still referenced); the stdlib destructor then raises
    ``BufferError`` from ``mmap.close`` into the "exception ignored"
    stderr stream.  Unmapping simply waits until the views die — not an
    error worth a traceback.
    """

    def __del__(self) -> None:
        try:
            super().__del__()
        except BufferError:
            pass


def _untracked_attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker adoption.

    Python 3.13+ has ``track=False`` for attachments whose lifetime an
    owner manages explicitly, which is exactly our protocol (the
    publisher unlinks).  Earlier versions register attachments
    unconditionally (bpo-38119) — harmless here, because pool workers
    are children of the owner and therefore share its resource-tracker
    process: the duplicate registration collapses into the owner's
    entry and is cleared by the owner's ``unlink``.  (Attaching from a
    process tree that does not share the owner's tracker is outside
    this module's protocol on < 3.13.)
    """
    try:
        return _QuietSharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # pragma: no cover - Python < 3.13 path, version-dependent
        return _QuietSharedMemory(name=name)


@dataclass(frozen=True)
class ArraySpec:
    """Location of one array inside a shared segment."""

    name: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class ArrayBundleManifest:
    """Picklable description of one published array bundle.

    ``segment`` names the shared-memory block; ``arrays`` locate each
    named array inside it; ``meta`` carries small picklable extras
    (graph sizes, δ values, ...).  A manifest is all a worker needs to
    attach — ship it over any IPC channel.
    """

    segment: str
    arrays: Tuple[ArraySpec, ...]
    meta: Tuple[Tuple[str, object], ...] = ()

    def metadata(self) -> Dict[str, object]:
        return dict(self.meta)


#: Every owner handle whose segment is still linked, weakly held.
#: Pure accounting — lifecycle stays with the handles/finalizers.  The
#: serving catalog (and its tests) audit this to prove that graph
#: reloads reap the previous generation's segments instead of leaking
#: ``/dev/shm`` until process exit.
_LIVE_SEGMENTS: "weakref.WeakSet" = weakref.WeakSet()


def live_segments() -> Tuple[str, ...]:
    """Names of the shm segments this process currently owns (sorted).

    A snapshot for leak audits: a segment leaves the moment its owner
    handle is closed or collected.  Only *owned* (published) segments
    count — read-only attachments are the attaching process's concern.
    """
    return tuple(sorted(
        handle.name for handle in list(_LIVE_SEGMENTS) if not handle.closed
    ))


class SharedArrays:
    """Owner handle of one published bundle: the segment plus manifest.

    The owner's mapping is already gone once publication returns;
    ``close()`` unlinks the name — the owner-side end-of-life call.
    A finalizer does the same at garbage collection / interpreter exit,
    so abandoned handles never leak ``/dev/shm`` segments.
    """

    def __init__(self, shm: shared_memory.SharedMemory, manifest: ArrayBundleManifest) -> None:
        self._shm = shm
        self.manifest = manifest
        self.nbytes = shm.size
        self._finalizer = weakref.finalize(self, _destroy_segment, shm)
        _LIVE_SEGMENTS.add(self)

    def close(self) -> None:
        """Unlink the segment (idempotent)."""
        self._finalizer()
        _LIVE_SEGMENTS.discard(self)

    @property
    def closed(self) -> bool:
        """Whether the owner already unlinked this segment."""
        return not self._finalizer.alive

    @property
    def name(self) -> str:
        return self.manifest.segment

    def __enter__(self) -> "SharedArrays":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedArrays(segment={self.name!r}, nbytes={self.nbytes})"


def _destroy_segment(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:  # pragma: no cover - live exports keep the mapping
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


def _publish_into_segment(
    arrays: Mapping[str, np.ndarray], meta: Optional[Mapping[str, object]]
) -> Tuple[shared_memory.SharedMemory, ArrayBundleManifest]:
    specs = []
    offset = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        offset = -(-offset // _ALIGN) * _ALIGN
        specs.append(ArraySpec(name, arr.dtype.str, arr.shape, offset))
        offset += arr.nbytes
    shm = _QuietSharedMemory(create=True, size=max(offset, 1))
    try:
        # The owner keeps its private arrays and never reads the
        # segment, so it writes through the descriptor: no page of the
        # copy ever enters the owner's address space (or its RSS).
        for spec, arr in zip(specs, arrays.values()):
            data = np.ascontiguousarray(arr).reshape(-1).view(np.uint8)
            written = 0
            while written < data.size:
                written += os.pwrite(shm._fd, data[written:], spec.offset + written)
    except BaseException:
        _destroy_segment(shm)
        raise
    # Unmap now; the name stays linked, so workers can still attach
    # and the owner's close() can still unlink it.
    shm.close()
    manifest = ArrayBundleManifest(
        segment=shm.name,
        arrays=tuple(specs),
        meta=tuple(sorted((meta or {}).items())),
    )
    return shm, manifest


class AttachedArrays:
    """Worker-side view of a published bundle: zero-copy, read-only.

    Keep the instance alive as long as any of its ``arrays`` views is
    in use; ``close()`` unmaps (never unlinks — that is the owner's
    job) and is forgiving about views that still exist.
    """

    def __init__(self, manifest: ArrayBundleManifest) -> None:
        self.manifest = manifest
        self._shm = _untracked_attach(manifest.segment)
        self.arrays: Dict[str, np.ndarray] = {}
        for spec in manifest.arrays:
            count = int(np.prod(spec.shape)) if spec.shape else 1
            view = np.frombuffer(
                self._shm.buf, dtype=np.dtype(spec.dtype), count=count, offset=spec.offset
            ).reshape(spec.shape)
            view.flags.writeable = False
            self.arrays[spec.name] = view

    def close(self) -> None:
        """Unmap the segment (safe to call with views still alive)."""
        self.arrays = {}
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - caller still holds a view
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AttachedArrays(segment={self.manifest.segment!r}, n={len(self.arrays)})"


# ----------------------------------------------------------------------
# whole-graph publication
# ----------------------------------------------------------------------

_EDGE_PREFIX = "edge."
_COL_PREFIX = "col."


class SharedGraph(SharedArrays):
    """Owner handle of one published graph (see :func:`publish_graph`)."""

    def __init__(
        self, shm: shared_memory.SharedMemory, manifest: ArrayBundleManifest
    ) -> None:
        super().__init__(shm, manifest)
        meta = manifest.metadata()
        self.num_nodes = meta["num_nodes"]
        self.num_edges = meta["num_edges"]


def publish_graph(graph: TemporalGraph) -> SharedGraph:
    """Publish a graph's arrays into shared memory; return the handle.

    Copies the canonical edge columns and every array of
    ``graph.columnar()`` — forcing the columnar build first if needed,
    so the O(m log m) construction happens exactly once, in the owner,
    whichever backend the workers then run.  The handle's ``manifest``
    is what workers feed to :func:`attach_graph`.
    """
    arrays: Dict[str, np.ndarray] = {
        _EDGE_PREFIX + "src": graph.sources,
        _EDGE_PREFIX + "dst": graph.destinations,
        _EDGE_PREFIX + "t": graph.timestamps,
    }
    col = graph.columnar()
    scalars = []
    for name in ColumnarGraph.__slots__:
        if name == "delta_cache":
            continue
        value = getattr(col, name)
        if isinstance(value, np.ndarray):
            arrays[_COL_PREFIX + name] = value
        else:
            scalars.append((name, value))
    shm, manifest = _publish_into_segment(
        arrays,
        meta={
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "version": graph.version,
            "columnar_scalars": tuple(scalars),
        },
    )
    return SharedGraph(shm, manifest)


class AttachedGraph:
    """Worker-side reassembled graph over a shared segment.

    ``graph`` is a real :class:`TemporalGraph` whose edge columns and
    cached ``ColumnarGraph`` are zero-copy views into
    the shared pages; python-loop views (node sequences, pair index)
    are built lazily per process on first use.  ``close()`` drops the
    graph and unmaps.
    """

    def __init__(self, manifest: ArrayBundleManifest) -> None:
        self._attached = AttachedArrays(manifest)
        meta = manifest.metadata()
        arrays = self._attached.arrays
        self.graph = TemporalGraph.from_canonical_arrays(
            arrays[_EDGE_PREFIX + "src"],
            arrays[_EDGE_PREFIX + "dst"],
            arrays[_EDGE_PREFIX + "t"],
            num_nodes=int(meta["num_nodes"]),
        )
        col_arrays = {
            name[len(_COL_PREFIX):]: arr
            for name, arr in arrays.items()
            if name.startswith(_COL_PREFIX)
        }
        self.graph._columnar = ColumnarGraph._attach(
            col_arrays, dict(meta["columnar_scalars"])
        )
        self.graph._columnar_version = self.graph.version

    def close(self) -> None:
        """Release the local mapping (the owner's segment is untouched)."""
        self.graph = None  # type: ignore[assignment]
        self._attached.close()


def attach_graph(manifest: ArrayBundleManifest) -> AttachedGraph:
    """Attach to a published graph; see :class:`AttachedGraph`.

    Raises :class:`~repro.errors.ValidationError` when the manifest
    does not describe a graph bundle.
    """
    if _EDGE_PREFIX + "src" not in {spec.name for spec in manifest.arrays}:
        raise ValidationError(
            f"manifest for segment {manifest.segment!r} is not a graph bundle"
        )
    return AttachedGraph(manifest)

