"""Shared-memory publication of graphs for the persistent worker pool.

The HARE framework of §IV-C assumes OpenMP threads reading one shared
graph.  Its process analogue here is the persistent
:class:`~repro.parallel.pool.WorkerPool`, whether its workers are
forked or spawned: the owner *publishes* a graph into one
:mod:`multiprocessing.shared_memory` segment, and every worker
*attaches* zero-copy NumPy views over the same physical pages.

The segment holds exactly the bytes ``pack_graph(graph, path,
layout="full")`` would write to a file (:mod:`repro.storage.format`):
preamble, CRC'd header, 64-byte-aligned sections.  One writer fills
both, and one reader maps both, so the segment name is all a worker
needs to attach.

Lifecycle (see ``docs/architecture.md``)
    The **owner** calls :func:`publish_graph` (create, write through
    the descriptor, unmap: it keeps its own private arrays, so the
    segment's pages never enter its address space), sends the
    segment name to workers, and eventually calls
    :meth:`SharedGraph.close`, which unlinks the name.  Each **worker**
    calls :func:`attach_graph` (map, no copy) and closes the returned
    :class:`~repro.storage.format.PackedGraph` when evicting.  This
    relies on POSIX shared memory, where a linked name outlives every
    mapping and the physical segment lives until the last mapping
    closes, so the owner may unlink while workers still compute on it.
"""

from __future__ import annotations

import os
import weakref
from multiprocessing import shared_memory
from typing import Tuple

from repro.graph.temporal_graph import TemporalGraph
from repro.storage.format import PackedGraph, build_image, map_image, write_image


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


def _destroy_segment(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:  # pragma: no cover - live exports keep the mapping
        pass
    try:
        shm.unlink()
    except FileNotFoundError:
        pass


class SharedGraph:
    """Owner handle of one published graph (see :func:`publish_graph`).

    The owner's mapping is already gone once publication returns;
    ``close()`` unlinks the name — the owner-side end-of-life call.
    A finalizer does the same at garbage collection / interpreter exit,
    so abandoned handles never leak ``/dev/shm`` segments.
    """

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self.name: str = shm.name
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

    def __enter__(self) -> "SharedGraph":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedGraph(segment={self.name!r}, nbytes={self.nbytes})"


def publish_graph(graph: TemporalGraph) -> SharedGraph:
    """Publish a graph's full packed image into shared memory.

    Builds ``graph.columnar()`` first if needed, so the O(m log m)
    construction happens exactly once, in the owner.  Workers attach
    with :func:`attach_graph` and the handle's ``name``.
    """
    image = build_image(graph, "full")
    shm = _QuietSharedMemory(create=True, size=image.nbytes)
    try:
        # The owner keeps its private arrays and never reads the
        # segment, so it writes through the descriptor: no page of the
        # copy ever enters the owner's address space (or its RSS).
        write_image(shm._fd, image)
    except BaseException:
        _destroy_segment(shm)
        raise
    # Unmap now; the name stays linked, so workers can still attach
    # and the owner's close() can still unlink it.
    shm.close()
    return SharedGraph(shm)


def attach_graph(name: str) -> PackedGraph:
    """Map a published segment; return its zero-copy graph handle.

    The returned handle's ``graph`` is a real :class:`TemporalGraph`
    whose edge columns and pre-built ``ColumnarGraph`` are read-only
    views into the shared pages; python-loop views (node sequences,
    pair index) are built lazily per process on first use.  Its
    ``close()`` drops the graph and unmaps (never unlinks).  The
    image is the owner's own, so only the magic, version and header
    are checked, not the O(m) contents: a segment that is no packed
    graph raises :class:`~repro.errors.StorageFormatError`.
    """
    shm = _untracked_attach(name)
    # The mapping holds its own descriptor; close the attach one now,
    # or it stays open for good when a caller's views outlive close().
    os.close(shm._fd)
    shm._fd = -1
    return map_image(name, shm.buf, shm.size, shm, trusted=True)
