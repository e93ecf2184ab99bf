"""The temporal graph data structure.

A temporal graph ``G = {V, E, T}`` (Definition 1 of the paper) is a
multiset of directed, timestamped edges ``(u, v, t)``.  This module
provides :class:`TemporalGraph`, an immutable, validated container that
precomputes exactly the two views the counting algorithms consume:

``S_u`` — the edge sequence of a center node ``u``
    Every edge incident to ``u``, each expressed as ``(t, v, dir)``
    where ``v`` is the node on the other side and ``dir`` says whether
    the edge points outward from or inward to ``u`` (Table I of the
    paper).  Sequences are sorted by the canonical total order described
    below.

``E(v, w)`` — the pair timeline
    Every edge between ``v`` and ``w`` regardless of direction, sorted
    by the same order, with the direction expressed relative to the pair.

Canonical edge order
--------------------
The paper assumes edges arrive in chronological order and treats
``t1 <= t2 <= ... <= tl``.  Equal timestamps make "chronological order"
ambiguous, so this implementation fixes a *total* order: edges are
sorted by ``(timestamp, input position)`` and then numbered ``0..m-1``.
Every algorithm in the repository — FAST, EX, BT, 2SCENT, the samplers
and the brute-force reference — breaks timestamp ties by this edge id,
which makes exact cross-algorithm comparisons well-defined even on
graphs with simultaneous edges.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.columnar import ColumnarGraph

#: Direction flag: the edge points outward from the center node (u -> v).
OUT = 0
#: Direction flag: the edge points inward to the center node (v -> u).
IN = 1

_SELF_LOOP_POLICIES = ("drop", "error")


class TemporalEdge(NamedTuple):
    """A single directed timestamped edge ``(u, v, t)``.

    ``u`` and ``v`` are node labels (any hashable), ``t`` is the
    timestamp (int or float).
    """

    u: Hashable
    v: Hashable
    t: float


class NodeSequence:
    """The time-ordered edge sequence ``S_u`` of one center node.

    The three parallel lists hold, for each incident edge in canonical
    order: its timestamp, the internal id of the node on the other
    side, and its direction (:data:`OUT` or :data:`IN`) with respect to
    the center.  ``eids`` holds the canonical edge ids, which the
    samplers and the brute-force reference use for exact tie-breaking.
    """

    __slots__ = ("node", "times", "nbrs", "dirs", "eids")

    def __init__(self, node: int) -> None:
        self.node = node
        self.times: List[float] = []
        self.nbrs: List[int] = []
        self.dirs: List[int] = []
        self.eids: List[int] = []

    def __len__(self) -> int:
        return len(self.times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeSequence(node={self.node}, length={len(self)})"


class _IdentityIndex:
    """Label→id mapping for graphs whose labels *are* the internal ids.

    The canonical-array constructor adopts another graph's dense id
    columns, so its label mapping is the identity on ``0..n-1``.
    Materializing that as a real dict costs O(n) memory per process —
    exactly what zero-copy shared-memory workers must not pay — while
    this view answers the same lookups in O(1) and no space.
    """

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n

    def __getitem__(self, label: int) -> int:
        if isinstance(label, (int, np.integer)) and 0 <= label < self.n:
            return int(label)
        raise KeyError(label)

    def get(self, label, default=None):
        if isinstance(label, (int, np.integer)) and 0 <= label < self.n:
            return int(label)
        return default

    def __contains__(self, label) -> bool:
        return isinstance(label, (int, np.integer)) and 0 <= label < self.n

    def __len__(self) -> int:
        return self.n


class TemporalGraph:
    """An immutable directed temporal graph.

    Parameters
    ----------
    edges:
        Iterable of ``(u, v, t)`` triples.  ``u`` and ``v`` may be any
        hashable labels (ints, strings, ...); timestamps may be ints or
        floats.  Duplicate edges (same endpoints and timestamp) are
        legal and kept — they are distinct temporal edges.
    on_self_loop:
        ``"drop"`` (default) silently discards self-loops, matching the
        paper's datasets which contain none; ``"error"`` raises
        :class:`~repro.errors.ValidationError`.

    Notes
    -----
    Node labels are mapped to dense internal ids ``0..n-1`` in order of
    first appearance.  All algorithm-facing accessors speak internal
    ids; :meth:`label` and :meth:`index` convert at the API boundary.
    """

    def __init__(
        self,
        edges: Iterable[Tuple[Hashable, Hashable, float]],
        *,
        on_self_loop: str = "drop",
    ) -> None:
        if on_self_loop not in _SELF_LOOP_POLICIES:
            raise ValidationError(
                f"on_self_loop must be one of {_SELF_LOOP_POLICIES}, got {on_self_loop!r}"
            )
        self._labels: List[Hashable] = []
        self._index: Dict[Hashable, int] = {}
        self.num_self_loops_dropped = 0

        srcs: List[int] = []
        dsts: List[int] = []
        times: List[float] = []
        for record in edges:
            try:
                u, v, t = record
            except (TypeError, ValueError) as exc:
                raise ValidationError(
                    f"edge records must be (u, v, t) triples, got {record!r}"
                ) from exc
            if not isinstance(t, (int, float, np.integer, np.floating)):
                raise ValidationError(f"timestamp must be numeric, got {t!r}")
            if isinstance(t, (float, np.floating)) and not math.isfinite(t):
                # NaN/inf poison the canonical sort and every δ-window
                # comparison; reject at construction like the parsers do.
                raise ValidationError(f"timestamp must be finite, got {t!r}")
            if u == v:
                if on_self_loop == "error":
                    raise ValidationError(f"self-loop edge ({u!r}, {v!r}, {t!r})")
                self.num_self_loops_dropped += 1
                continue
            srcs.append(self._intern(u))
            dsts.append(self._intern(v))
            times.append(t)

        order = sorted(range(len(times)), key=lambda i: (times[i], i))
        self._src = np.array([srcs[i] for i in order], dtype=np.int64)
        self._dst = np.array([dsts[i] for i in order], dtype=np.int64)
        ts = [times[i] for i in order]
        if all(isinstance(t, (int, np.integer)) for t in ts):
            self._t = np.array(ts, dtype=np.int64)
        else:
            self._t = np.array(ts, dtype=np.float64)

        self._version = 0
        self._sequences: Optional[List[NodeSequence]] = None
        self._pair_index: Optional[Dict[Tuple[int, int], Tuple[List[float], List[int], List[int]]]] = None
        self._edge_lists: Optional[Tuple[List[int], List[int], List[float]]] = None
        self._columnar: Optional["ColumnarGraph"] = None
        self._columnar_version = -1

    def _ensure_sequences(self) -> List[NodeSequence]:
        """Build the per-node ``S_u`` views lazily, on first access.

        Laziness means columnar-only consumers (the vectorized kernels,
        shared-memory pool workers running them) never pay the O(m)
        Python loop.
        """
        if self._sequences is None:
            self._rebuild_sequences()
        assert self._sequences is not None
        return self._sequences

    def _rebuild_sequences(self) -> None:
        self._sequences = [NodeSequence(u) for u in range(len(self._labels))]
        src_list = self._src.tolist()
        dst_list = self._dst.tolist()
        t_list = self._t.tolist()
        for eid in range(len(t_list)):
            s, d, t = src_list[eid], dst_list[eid], t_list[eid]
            seq = self._sequences[s]
            seq.times.append(t)
            seq.nbrs.append(d)
            seq.dirs.append(OUT)
            seq.eids.append(eid)
            seq = self._sequences[d]
            seq.times.append(t)
            seq.nbrs.append(s)
            seq.dirs.append(IN)
            seq.eids.append(eid)

    @property
    def version(self) -> int:
        """Monotone edit stamp of the edge columns.

        Starts at 0 and increases on every :meth:`invalidate_caches`
        call.  Derived views (the pair index, the plain-list edge view,
        the cached :class:`~repro.graph.columnar.ColumnarGraph`) record
        the version they were built at, so holding a stale reference
        across a mutation is detectable.
        """
        return self._version

    def invalidate_caches(self) -> None:
        """Drop every derived view after an in-place edge mutation.

        ``TemporalGraph`` is immutable through its public API, but code
        that owns the private edge columns (tests, subclasses, tooling
        that patches timestamps in place) historically could mutate them
        and keep receiving the *stale* cached ``ColumnarGraph`` — counts
        silently computed against the old edges.  This method is the
        sanctioned mutation protocol: after changing ``_src``/``_dst``/
        ``_t``, call it to drop every derived view (node sequences,
        the lazy pair index / edge lists / columnar store) and bump
        :attr:`version` so any cached-view holder can detect staleness.
        Mutations that never call it are still caught by the version
        stamp check inside :meth:`columnar`.
        """
        self._version += 1
        self._sequences = None
        self._pair_index = None
        self._edge_lists = None
        self._columnar = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _intern(self, label: Hashable) -> int:
        idx = self._index.get(label)
        if idx is None:
            idx = len(self._labels)
            self._index[label] = idx
            self._labels.append(label)
        return idx

    @classmethod
    def from_arrays(
        cls,
        src: Sequence[int],
        dst: Sequence[int],
        t: Sequence[float],
        **kwargs,
    ) -> "TemporalGraph":
        """Build a graph from three parallel arrays of equal length."""
        if not (len(src) == len(dst) == len(t)):
            raise ValidationError(
                f"parallel arrays must have equal lengths, got {len(src)}, {len(dst)}, {len(t)}"
            )
        return cls(zip(src, dst, t), **kwargs)

    @classmethod
    def from_canonical_arrays(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        t: np.ndarray,
        *,
        num_nodes: Optional[int] = None,
        labels: Optional[Sequence[Hashable]] = None,
    ) -> "TemporalGraph":
        """Wrap already-canonical edge columns without copying or sorting.

        The zero-copy constructor behind the shared-memory attach path
        (:func:`repro.graph.shared.attach_graph`): ``src``/``dst`` must
        hold dense internal ids, ``t`` must already be sorted by the
        canonical ``(t, input position)`` order, and self-loops must
        already be gone — exactly the state of another graph's edge
        columns.  The arrays are adopted as-is (int64/time dtype views;
        no re-interning), so a graph built here over shared-memory
        views stays zero-copy.  Node labels are the internal ids
        themselves, served by O(1) identity views (``range`` /
        :class:`_IdentityIndex`) rather than materialized per process —
        unless ``labels`` gives each internal id's label (one per node).
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        t = np.asarray(t)
        if not (len(src) == len(dst) == len(t)):
            raise ValidationError(
                f"parallel arrays must have equal lengths, got {len(src)}, {len(dst)}, {len(t)}"
            )
        if np.issubdtype(t.dtype, np.floating) and not np.isfinite(t).all():
            # Same boundary rule as every other construction path: NaN
            # also defeats the sortedness check below (all comparisons
            # false), so it must be rejected first.
            raise ValidationError("timestamps must be finite")
        if len(t) and np.any(t[1:] < t[:-1]):
            raise ValidationError("timestamps are not in canonical (sorted) order")
        if len(src) and bool(np.any(src == dst)):
            raise ValidationError("canonical edge columns must not contain self-loops")
        if labels is not None:
            num_nodes = len(labels)
        n = int(num_nodes) if num_nodes is not None else (
            int(max(src.max(), dst.max())) + 1 if len(src) else 0
        )
        graph = cls.__new__(cls)
        if labels is None:
            graph._labels = range(n)  # identity labels, O(1) memory
            graph._index = _IdentityIndex(n)
        else:
            graph._labels = list(labels)
            graph._index = dict(zip(graph._labels, range(n)))
        graph.num_self_loops_dropped = 0
        graph._src = src
        graph._dst = dst
        graph._t = t if np.issubdtype(t.dtype, np.floating) else t.astype(np.int64, copy=False)
        graph._version = 0
        graph._sequences = None
        graph._pair_index = None
        graph._edge_lists = None
        graph._columnar = None
        graph._columnar_version = -1
        return graph

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of distinct nodes that appear on at least one edge."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of temporal edges (a multiset count)."""
        return int(self._t.shape[0])

    @property
    def timestamps(self) -> np.ndarray:
        """All timestamps in canonical order (read-only view)."""
        view = self._t.view()
        view.flags.writeable = False
        return view

    @property
    def sources(self) -> np.ndarray:
        """Internal source ids in canonical order (read-only view)."""
        view = self._src.view()
        view.flags.writeable = False
        return view

    @property
    def destinations(self) -> np.ndarray:
        """Internal destination ids in canonical order (read-only view)."""
        view = self._dst.view()
        view.flags.writeable = False
        return view

    @property
    def time_span(self) -> float:
        """``max(t) - min(t)``, or 0 for graphs with fewer than two edges."""
        if self.num_edges < 2:
            return 0
        return self._t[-1] - self._t[0]

    def label(self, node: int) -> Hashable:
        """Return the original label of internal node id ``node``."""
        return self._labels[node]

    def index(self, label: Hashable) -> int:
        """Return the internal id of node ``label`` (KeyError if absent)."""
        return self._index[label]

    def degree(self, node: int) -> int:
        """Total number of temporal edges incident to ``node``.

        This is the temporal degree ``d_u = |S_u|`` of §IV-A (each
        multi-edge counts separately), the quantity HARE's scheduler
        balances on.
        """
        return len(self._ensure_sequences()[node])

    def degrees(self) -> np.ndarray:
        """Array of temporal degrees ``d_u`` indexed by internal node id.

        Computed vectorized (one :func:`np.bincount` over the edge
        columns) so schedulers and statistics never loop over nodes in
        Python.
        """
        if self.num_edges == 0:
            return np.zeros(self.num_nodes, dtype=np.int64)
        return (
            np.bincount(self._src, minlength=self.num_nodes)
            + np.bincount(self._dst, minlength=self.num_nodes)
        ).astype(np.int64)

    # ------------------------------------------------------------------
    # algorithm-facing views
    # ------------------------------------------------------------------
    def node_sequence(self, node: int) -> NodeSequence:
        """Return ``S_u`` for internal node id ``node``.

        The returned object is shared, not copied; callers must not
        mutate it.
        """
        return self._ensure_sequences()[node]

    def sequences(self) -> List[NodeSequence]:
        """All node sequences, indexed by internal node id."""
        return self._ensure_sequences()

    def pair_timeline(self, a: int, b: int) -> Tuple[List[float], List[int], List[int]]:
        """Return ``E(a, b)``: all edges between ``a`` and ``b``.

        Returns three parallel lists ``(times, dirs, eids)`` in canonical
        order, where ``dirs[k]`` is :data:`OUT` if the edge goes from
        ``min(a, b)`` to ``max(a, b)`` — i.e. directions are normalised
        to the smaller internal id.  Callers needing the direction
        relative to a specific endpoint flip when that endpoint is the
        larger id.  Missing pairs return three empty lists.
        """
        if self._pair_index is None:
            self._build_pair_index()
        assert self._pair_index is not None
        key = (a, b) if a < b else (b, a)
        entry = self._pair_index.get(key)
        if entry is None:
            return ([], [], [])
        return entry

    def _build_pair_index(self) -> None:
        index: Dict[Tuple[int, int], Tuple[List[float], List[int], List[int]]] = {}
        src_list = self._src.tolist()
        dst_list = self._dst.tolist()
        t_list = self._t.tolist()
        for eid in range(len(t_list)):
            s, d = src_list[eid], dst_list[eid]
            if s < d:
                key, direction = (s, d), OUT
            else:
                key, direction = (d, s), IN
            entry = index.get(key)
            if entry is None:
                entry = ([], [], [])
                index[key] = entry
            entry[0].append(t_list[eid])
            entry[1].append(direction)
            entry[2].append(eid)
        self._pair_index = index

    def edge_lists(self) -> Tuple[List[int], List[int], List[float]]:
        """Plain-list views ``(src, dst, t)`` in canonical order, cached.

        Python-loop algorithms (BT, 2SCENT, brute force) index edges
        heavily; plain lists are several times faster than numpy
        scalar indexing, and callers repeat per block/pattern, so the
        conversion is done once.  Callers must not mutate the lists.
        """
        if self._edge_lists is None:
            self._edge_lists = (
                self._src.tolist(),
                self._dst.tolist(),
                self._t.tolist(),
            )
        return self._edge_lists

    def ensure_pair_index(self) -> None:
        """Force the lazy pair index to be built now.

        Benchmarks call this to keep the build out of a timed region;
        counting code builds it lazily on first use.
        """
        if self._pair_index is None:
            self._build_pair_index()

    def columnar(self) -> "ColumnarGraph":
        """The cached columnar (structure-of-arrays) view of this graph.

        Built lazily on first access; see
        :class:`repro.graph.columnar.ColumnarGraph` for the array
        layout (timestamp-sorted edge columns, incidence CSR, pair
        CSR).  The vectorized counting kernels selected with
        ``backend="columnar"`` consume this view; the worker pool
        publishes it into shared memory once per graph.

        The cache is stamped with :attr:`version` when built and
        rebuilt automatically if the graph was mutated in place (see
        :meth:`invalidate_caches`), so callers can never observe a
        columnar view of edges that no longer exist.
        """
        if self._columnar is None or self._columnar_version != self._version:
            from repro.graph.columnar import ColumnarGraph

            self._columnar = ColumnarGraph(self)
            self._columnar_version = self._version
        return self._columnar

    def static_pairs(self) -> List[Tuple[int, int]]:
        """All unordered node pairs ``(a, b)``, ``a < b``, with edges."""
        self.ensure_pair_index()
        assert self._pair_index is not None
        return list(self._pair_index.keys())

    def static_neighbors(self, node: int) -> List[int]:
        """Distinct neighbours of ``node`` in the induced static graph."""
        return sorted(set(self._ensure_sequences()[node].nbrs))

    # ------------------------------------------------------------------
    # iteration / conversion
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[TemporalEdge]:
        """Iterate edges in canonical order, with original labels."""
        for s, d, t in zip(self._src.tolist(), self._dst.tolist(), self._t.tolist()):
            yield TemporalEdge(self._labels[s], self._labels[d], t)

    def internal_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate ``(src, dst, t)`` with internal ids, canonical order."""
        yield from zip(self._src.tolist(), self._dst.tolist(), self._t.tolist())

    def __len__(self) -> int:
        return self.num_edges

    def __repr__(self) -> str:
        return (
            f"TemporalGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"span={self.time_span})"
        )

    def __eq__(self, other: object) -> bool:
        """Label-level equality: same edges, same canonical order.

        Internal interning order is an implementation detail — two
        graphs are equal iff their labelled edge sequences match, so a
        save/load round-trip compares equal even though node ids were
        re-interned in file order.
        """
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        if self.num_edges != other.num_edges:
            return False
        return all(a == b for a, b in zip(self.edges(), other.edges()))

    def __hash__(self) -> int:  # pragma: no cover - graphs are dict keys nowhere
        return id(self)
