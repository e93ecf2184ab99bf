"""The serving daemon's multi-tenant graph catalog.

Named graphs, loaded once, shared by every request.  Two kinds of
source back a name:

* a **static** :class:`~repro.graph.temporal_graph.TemporalGraph` —
  the common case, a dataset loaded at daemon startup;
* a **live** source — anything with a ``version`` property and a
  ``live_graph()`` method (a
  :class:`~repro.graph.stream_store.StreamingEdgeStore`, or a
  :class:`~repro.core.streaming.StreamingMotifEngine`, whose store is
  unwrapped automatically).  When the source's version advances, the
  catalog *reloads gracefully*: the next lease snapshots the new
  graph, while requests already holding the previous generation finish
  on their old snapshot.  A retired generation's shared-memory
  segments are reaped the moment its last lease is returned (via
  :meth:`~repro.parallel.pool.WorkerPool.release`, which unlinks the
  pool-published segments; POSIX keeps the physical pages alive for
  any worker still mapping them).

Leases are the whole consistency story: :meth:`GraphCatalog.lease`
hands out a refcounted ``(graph, version)`` snapshot, and every
released lease gives the catalog a chance to reap.  Each generation
also carries a process-unique ``serial``: a source's version restarts
at 0 when its name is removed and re-added (a static graph's is always
0), so callers that key on "the same graph" — the service's dedupe
index and answer table — key on the serial, never on name + version.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, List

from repro.errors import UnknownGraphError, ValidationError
from repro.graph.temporal_graph import TemporalGraph

#: Serials of catalog generations, unique within the process.
_SERIALS = itertools.count()


class GraphLease:
    """A refcounted hold on one catalog generation's snapshot.

    Context-manager friendly; release is idempotent.  The snapshot is
    immutable — holding a lease across a source reload simply means
    finishing on the old graph.
    """

    __slots__ = ("name", "graph", "version", "serial", "_entry", "_released")

    def __init__(self, name: str, gen: "_Generation", entry) -> None:
        self.name = name
        self.graph = gen.graph
        self.version = gen.version
        self.serial = gen.serial
        self._entry = entry
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        self._entry._return(self.serial)

    def __enter__(self) -> "GraphLease":
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "released" if self._released else "held"
        return f"GraphLease({self.name!r}, version={self.version}, {state})"


class _Generation:
    """One snapshot of one named graph: the unit of reaping."""

    __slots__ = ("graph", "version", "serial", "active", "retired")

    def __init__(self, graph: TemporalGraph, version: int) -> None:
        self.graph = graph
        self.version = version
        self.serial = next(_SERIALS)
        self.active = 0
        self.retired = False


class _Entry:
    """Owner record for one catalog name (shares the catalog's lock)."""

    def __init__(self, catalog: "GraphCatalog", name: str, graph, source) -> None:
        self._catalog = catalog
        self.name = name
        self.source = source
        self.current = _Generation(graph, getattr(graph, "version", 0))
        #: Retired generations still pinned by in-flight leases.
        self.draining: List[_Generation] = []
        self.reloads = 0

    # -- called with the catalog lock held -----------------------------
    def refresh(self) -> None:
        """Snapshot the source again if its version advanced."""
        if self.source is None:
            return
        if self.source.version == self.current.version:
            return
        old = self.current
        graph = self.source.live_graph()
        self.current = _Generation(graph, self.source.version)
        self.reloads += 1
        old.retired = True
        if old.active == 0:
            self._catalog._reap(old)
        else:
            self.draining.append(old)

    def lease(self) -> GraphLease:
        self.refresh()
        gen = self.current
        gen.active += 1
        return GraphLease(self.name, gen, self)

    def retire_all(self) -> None:
        """Retire the live generation too (catalog remove/close)."""
        gen = self.current
        gen.retired = True
        if gen.active == 0:
            self._catalog._reap(gen)
        else:
            self.draining.append(gen)

    # -- called from GraphLease.release (takes the lock itself) --------
    def _return(self, serial: int) -> None:
        with self._catalog._lock:
            for gen in [self.current] + self.draining:
                if gen.serial == serial:
                    gen.active -= 1
                    if gen.retired and gen.active == 0:
                        self._catalog._reap(gen)
                        if gen in self.draining:
                            self.draining.remove(gen)
                    return


class GraphCatalog:
    """Named graphs for the serving layer (see the module docstring).

    ``pool`` is the :class:`~repro.parallel.pool.WorkerPool` whose
    shared-memory publications the catalog owns the lifecycle of:
    reaping a generation releases its segments there.  Without a pool
    the catalog is pure bookkeeping (useful in tests and serial
    deployments).
    """

    def __init__(self, pool=None) -> None:
        self._pool = pool
        self._entries: Dict[str, _Entry] = {}
        self._lock = threading.RLock()
        self.stats: Dict[str, int] = {"reloads": 0, "generations_reaped": 0}

    # -- management -----------------------------------------------------
    def add(self, name: str, source) -> None:
        """Register ``source`` as ``name``.

        Accepts a static :class:`TemporalGraph`, a live store, or an
        open :class:`~repro.storage.format.PackedGraph` (an on-disk
        packed graph: its mmap-backed graph object is what gets
        served; the mapping stays pinned by the arrays themselves).
        """
        if not name or not isinstance(name, str):
            raise ValidationError(f"graph name must be a non-empty string, got {name!r}")
        from repro.storage.format import PackedGraph

        if isinstance(source, PackedGraph):
            source = source.graph
        store = getattr(source, "store", source)
        is_live = hasattr(store, "live_graph") and hasattr(store, "version")
        if not is_live and not isinstance(source, TemporalGraph):
            raise ValidationError(
                f"catalog source must be a TemporalGraph or expose "
                f"live_graph()/version, got {type(source).__name__}"
            )
        with self._lock:
            if name in self._entries:
                raise ValidationError(f"graph {name!r} is already in the catalog")
            if is_live:
                self._entries[name] = _Entry(self, name, store.live_graph(), store)
                # live_graph() snapshots may lag behind version bumps
                # that happened mid-construction; stamp what we saw.
                self._entries[name].current.version = store.version
            else:
                self._entries[name] = _Entry(self, name, source, None)

    def remove(self, name: str) -> None:
        """Drop a name; its generations reap as their leases return."""
        with self._lock:
            entry = self._entries.pop(name, None)
            if entry is None:
                raise UnknownGraphError(f"graph {name!r} is not in the catalog")
            entry.retire_all()

    def close(self) -> None:
        """Retire every entry (drain-and-reap); the catalog stays usable."""
        with self._lock:
            for name in list(self._entries):
                entry = self._entries.pop(name)
                entry.retire_all()

    # -- queries --------------------------------------------------------
    def lease(self, name: str) -> GraphLease:
        """A refcounted snapshot of ``name`` (refreshing live sources)."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise UnknownGraphError(f"graph {name!r} is not in the catalog")
            before = entry.reloads
            lease = entry.lease()
            self.stats["reloads"] += entry.reloads - before
            return lease

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def describe(self) -> List[Dict[str, object]]:
        """JSON-safe summary rows for the ``catalog`` protocol op."""
        with self._lock:
            rows = []
            for name in sorted(self._entries):
                entry = self._entries[name]
                entry.refresh()
                gen = entry.current
                rows.append({
                    "name": name,
                    "version": gen.version,
                    "nodes": gen.graph.num_nodes,
                    "edges": gen.graph.num_edges,
                    "live": entry.source is not None,
                    "reloads": entry.reloads,
                    "draining": len(entry.draining),
                })
            return rows

    # -- internals ------------------------------------------------------
    def _reap(self, gen: _Generation) -> None:
        """Release a dead generation's pool segments (lock held)."""
        if self._pool is not None and not getattr(self._pool, "closed", True):
            self._pool.release(gen.graph)
        gen.graph = None  # type: ignore[assignment]
        self.stats["generations_reaped"] += 1
