"""Time-sharded counting with δ-overlap halos (out-of-core execution).

The decomposition behind ROADMAP item 2: split the canonical edge
sequence at cut points ``0 = c_0 < c_1 < ... < c_k = m``, give shard
``i`` the *slice* ``S_i = [c_i, E_i)`` where::

    E_i = searchsorted(t, t[c_{i+1} - 1] + delta, side="right")

(``E_{k-1} = m`` for the last shard) — its own edges plus the δ-overlap
**halo** ``H_i = [c_{i+1}, E_i)`` — count every slice independently
with any exact registered algorithm, and union by subtracting the halo
double counts::

    total = sum_i count(S_i) - sum_i count(H_i)

Why this is exact, for *any* cut points: classify each δ-motif
instance (canonical edge triple ``e1 < e2 < e3``) by its earliest edge.
The owner shard ``j`` (``c_j <= e1 < c_{j+1}``) always counts it —
``t[e3] <= t[e1] + delta <= t[c_{j+1}-1] + delta``, so ``e3 < E_j`` and
the whole triple lies in ``S_j``.  A non-owner slice ``i < j`` counts
it iff ``e3 < E_i``; but then the triple also lies entirely inside the
halo ``H_i`` (``e1 >= c_j >= c_{i+1}``), so the subtraction cancels it
— and shards after the owner never see ``e1`` at all.  Net count: one.
The identity holds cell-by-cell on the deduplicated 6×6 grid because
the grid is linear in the triple multiset, and each slice is a
complete pass over a contiguous canonical range (slicing preserves
relative canonical order and tie-breaking, so every exact algorithm —
fast/HARE, ex, bruteforce, bt, twoscent — produces
its whole-graph answer restricted to the slice).

Sampling estimators (``bts``/``ews``) do not decompose: they draw one
global RNG stream anchored at ``times[0]`` over the whole block range,
so per-shard runs cannot reproduce a fixed-seed whole-graph estimate.
The registry therefore runs them on the whole-graph view unchanged
(trivially bit-identical — the mmap-backed arrays equal the in-memory
ones) and records the passthrough in ``meta["sharding"]``.

:meth:`ShardedGraph.units` is the one unit plan and
:meth:`ShardedGraph.reduce` the one reduction; :func:`sharded_count`
runs the units in process and
:class:`~repro.distributed.cluster.ClusterExecutor` farms them to
worker daemons.  Where a plan cuts never changes a count, so a
request sets only ``shard_budget`` (it bounds memory); every other cut
is chosen by the code that builds the :class:`ShardedGraph`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ValidationError, check_delta
from repro.graph.temporal_graph import TemporalGraph

#: Default shard budget (own edges per shard) when none is specified.
DEFAULT_SHARD_EDGES = 1 << 20


def slice_canonical(graph: TemporalGraph, lo: int, hi: int) -> TemporalGraph:
    """Zero-copy graph over canonical edge ids ``[lo, hi)``.

    Slicing contiguous canonical ranges preserves sortedness and
    tie-breaking, so the result is itself canonical; node ids keep the
    parent's space (``num_nodes`` unchanged) so no relabeling is needed
    anywhere.  Shared by :func:`sharded_count` and the distributed
    worker daemon (which slices its own ``.rgz`` mmap by the
    coordinator's ``[lo, hi)`` ranges).
    """
    if not (0 <= lo <= hi <= graph.num_edges):
        raise ValidationError(
            f"slice [{lo}, {hi}) out of range for {graph.num_edges} edges"
        )
    return TemporalGraph.from_canonical_arrays(
        graph.sources[lo:hi],
        graph.destinations[lo:hi],
        graph.timestamps[lo:hi],
        num_nodes=graph.num_nodes,
    )


@dataclass(frozen=True)
class Unit:
    """One ``ΣS − ΣH`` term: a canonical edge range with a sign."""

    uid: int
    shard: int
    kind: str  # "slice" | "halo"
    lo: int
    hi: int
    sign: int


@dataclass(frozen=True)
class Shard:
    """One planned slice: own range ``[own_lo, own_hi)`` plus halo."""

    index: int
    own_lo: int
    own_hi: int
    halo_hi: int

    @property
    def own_edges(self) -> int:
        return self.own_hi - self.own_lo

    @property
    def halo_edges(self) -> int:
        return self.halo_hi - self.own_hi

    @property
    def slice_edges(self) -> int:
        return self.halo_hi - self.own_lo


class ShardedGraph:
    """Shard-halo plan over one graph (see module docstring).

    ``source`` is a :class:`TemporalGraph` or an open
    :class:`~repro.storage.format.PackedGraph` (the out-of-core case:
    slices then view disjoint ranges of the mmap, so peak RSS tracks
    the shard budget, not the file size).  At most one cut mode may be
    given:

    ``max_shard_edges``
        Budget of *own* edges per shard (default
        :data:`DEFAULT_SHARD_EDGES`); cut points every that many edges.
        A request's ``shard_budget`` sets it.
    ``num_shards``
        Split the edge sequence into that many near-equal shards — the
        cluster's default plan and the serving layer's local fallback.
    ``boundaries``
        Explicit interior canonical-edge-id cut points, strictly
        increasing inside ``(0, num_edges)`` — what the equivalence
        property tests randomize over.
    """

    def __init__(
        self,
        source,
        *,
        max_shard_edges: Optional[int] = None,
        num_shards: Optional[int] = None,
        boundaries: Optional[Sequence[int]] = None,
    ) -> None:
        graph = getattr(source, "graph", source)
        if not isinstance(graph, TemporalGraph):
            raise ValidationError(
                f"ShardedGraph needs a TemporalGraph or PackedGraph, "
                f"got {type(source).__name__}"
            )
        given = sum(x is not None for x in (max_shard_edges, num_shards, boundaries))
        if given > 1:
            raise ValidationError(
                "give at most one of max_shard_edges / num_shards / boundaries"
            )
        self.graph = graph
        m = graph.num_edges
        if boundaries is not None:
            cuts = [int(b) for b in boundaries]
            if any(b <= 0 or b >= m for b in cuts) or any(
                b2 <= b1 for b1, b2 in zip(cuts, cuts[1:])
            ):
                raise ValidationError(
                    f"boundaries must be strictly increasing interior edge ids "
                    f"in (0, {m}), got {boundaries!r}"
                )
            self._cuts = [0] + cuts + [m]
        elif num_shards is not None:
            if num_shards < 1:
                raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
            k = min(int(num_shards), max(m, 1))
            edges = np.linspace(0, m, k + 1).astype(np.int64)
            self._cuts = sorted(set(int(c) for c in edges)) if m else [0, 0]
        else:
            budget = DEFAULT_SHARD_EDGES if max_shard_edges is None else int(max_shard_edges)
            if budget < 1:
                raise ValidationError(f"max_shard_edges must be >= 1, got {budget}")
            self.max_shard_edges = budget
            self._cuts = list(range(0, m, budget)) + [m] if m else [0, 0]
            return
        self.max_shard_edges = max(
            b2 - b1 for b1, b2 in zip(self._cuts, self._cuts[1:])
        ) if m else 0

    @property
    def num_shards(self) -> int:
        return len(self._cuts) - 1

    def plan(self, delta: float) -> List[Shard]:
        """The shard slices for one δ: own ranges plus halo extents."""
        check_delta(delta)
        t = self.graph.timestamps
        m = self.graph.num_edges
        shards: List[Shard] = []
        for i, (lo, hi) in enumerate(zip(self._cuts, self._cuts[1:])):
            if hi >= m:
                halo_hi = m
            else:
                halo_hi = int(np.searchsorted(t, t[hi - 1] + delta, side="right"))
            shards.append(Shard(index=i, own_lo=lo, own_hi=hi, halo_hi=halo_hi))
        return shards

    def units(self, delta: float) -> List[Unit]:
        """The plan's signed ``ΣS − ΣH`` terms, in canonical order.

        One ``+1`` slice unit ``[own_lo, halo_hi)`` and one ``−1`` halo
        unit ``[own_hi, halo_hi)`` per shard; a range of fewer than
        three edges holds no motif and gets no unit.
        """
        units: List[Unit] = []
        for shard in self.plan(delta):
            for kind, lo, sign in (("slice", shard.own_lo, 1), ("halo", shard.own_hi, -1)):
                if shard.halo_hi - lo >= 3:
                    units.append(Unit(len(units), shard.index, kind, lo, shard.halo_hi, sign))
        return units

    def reduce(self, request, units: Sequence[Unit], grids, phases, extra=None):
        """Sum one exact grid per unit as ``ΣS − ΣH`` into a result.

        The one reduction behind every executor: the sum runs in
        canonical unit order in int64 (no float step, so any magnitude
        stays exact), and a grid that is not integer-typed is refused
        rather than rounded.  ``extra`` adds executor-specific meta
        keys after the six shared ones.
        """
        from repro.core.counters import MotifCounts

        total = np.zeros((6, 6), dtype=np.int64)
        for unit, grid in zip(units, grids):
            grid = np.asarray(grid)
            if grid.dtype.kind != "i":
                raise ValidationError(
                    f"{unit.kind}[{unit.shard}] grid must be integer-typed, "
                    f"got {grid.dtype}"
                )
            total += unit.sign * grid
        assert not np.any(total < 0), "halo union produced a negative cell (bug)"
        plan = self.plan(request.delta)
        return MotifCounts(
            total,
            algorithm=request.algorithm,
            delta=request.delta,
            is_exact=True,
            phase_seconds=phases,
            meta={
                "sharding": "halo-union",
                "shards": self.num_shards,
                "slice_runs": len(units),
                "halo_edges": sum(s.halo_edges for s in plan),
                "max_slice_edges": max((s.slice_edges for s in plan), default=0),
                "shard_budget": self.max_shard_edges,
                **(extra or {}),
            },
        )


def sharded_count(request, spec, sharded: Optional[ShardedGraph] = None):
    """Run a *resolved* exact :class:`CountRequest` via the halo union.

    The registry's sharding routing target: plans the request's graph
    by its ``shard_budget`` — or counts over ``sharded``, a prebuilt
    plan of the same graph (the serving layer's fallback and the
    random-cut tests) — runs one registry execution per unit and
    reduces them with :meth:`ShardedGraph.reduce`.  Unit requests
    inherit every execution knob except ``pool`` (a persistent pool
    would accumulate one shared-memory publication per transient
    slice) and the sampling fields (meaningless for exact algorithms
    once resolved).
    """
    from repro.core.registry import execute

    if sharded is None:
        sharded = ShardedGraph(request.graph, max_shard_edges=request.shard_budget)
    units = sharded.units(request.delta)
    phases = {"pack_slices": 0.0}
    grids = []
    for unit in units:
        request.check_deadline()
        tick = time.perf_counter()
        piece = slice_canonical(sharded.graph, unit.lo, unit.hi)
        phases["pack_slices"] += time.perf_counter() - tick
        sub = execute(
            dataclasses.replace(
                request,
                graph=piece,
                source=None,
                shard_budget=None,
                cluster=None,
                seed=None,
                n_samples=None,
                pool=None,
                request_id=None,
            )
        )
        for phase, seconds in sub.phase_seconds.items():
            phases[phase] = phases.get(phase, 0.0) + seconds
        grids.append(sub.grid)
    return sharded.reduce(request, units, grids, phases)