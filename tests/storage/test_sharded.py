"""Shard-equivalence properties: halo-unioned counts == whole-graph counts.

The correctness pin for :mod:`repro.storage.sharded`: for *random* δ
and *random* shard boundaries, the ΣS − ΣH halo union must be
bit-identical to the whole-graph count on every registered algorithm —
the four full-grid exact algorithms and ``twoscent`` through the
per-slice decomposition, and the fixed-seed ``bts``/``ews`` estimates
through the documented whole-graph passthrough.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.api import count_motifs
from repro.core.registry import CountRequest, execute, get_algorithm
from repro.errors import ValidationError
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.executor import START_METHOD_ENV
from repro.storage import ShardedGraph, Unit, open_packed, pack_graph
from repro.storage.sharded import sharded_count
from tests.conftest import python_fast_counts, random_graph
from tests.core.test_properties import deltas, temporal_graphs

EXACT = ("fast", "ex", "bruteforce", "bt", "twoscent")
SAMPLING = ("bts", "ews")


def _draw_cuts(data, graph):
    """A plan of ``graph`` over random interior cut points (one shard
    when none are drawn).  Cut points are no request field, so the plan
    goes to :func:`sharded_count` directly."""
    m = graph.num_edges
    k = data.draw(st.integers(min_value=0, max_value=min(4, m - 1))) if m > 1 else 0
    cuts = data.draw(st.sets(st.integers(1, m - 1), min_size=k, max_size=k)) if k else ()
    return ShardedGraph(graph, boundaries=sorted(cuts))


def _halo_union(sharded, delta, algorithm):
    spec = get_algorithm(algorithm)
    request = CountRequest(
        graph=sharded.graph, delta=delta, algorithm=algorithm
    ).resolve(spec)
    return sharded_count(request, spec, sharded)


class TestHaloUnionEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(graph=temporal_graphs(max_edges=22), delta=deltas, data=st.data())
    def test_random_boundaries_all_exact_algorithms(self, graph, delta, data):
        sharded = _draw_cuts(data, graph)
        for algorithm in EXACT:
            whole = count_motifs(graph, delta, algorithm=algorithm)
            pieces = _halo_union(sharded, delta, algorithm)
            assert np.array_equal(whole.grid, pieces.grid), (
                algorithm, sharded.plan(delta),
            )
            assert pieces.is_exact

    @settings(max_examples=12, deadline=None)
    @given(graph=temporal_graphs(max_edges=22), delta=deltas,
           budget=st.integers(min_value=1, max_value=22))
    def test_random_boundaries_fixed_seed_sampling(self, graph, delta, budget):
        """Sampling estimators ignore any cut (one global RNG stream):
        a random budget changes nothing."""
        for algorithm in SAMPLING:
            whole = count_motifs(
                graph, delta, algorithm=algorithm, seed=11, n_samples=2
            )
            pieces = count_motifs(
                graph, delta, algorithm=algorithm, seed=11, n_samples=2,
                shard_budget=budget,
            )
            assert np.array_equal(whole.grid, pieces.grid), algorithm
            assert "sharding" in pieces.meta

    @settings(max_examples=10, deadline=None)
    @given(graph=temporal_graphs(max_edges=24), delta=deltas,
           budget=st.integers(min_value=1, max_value=30))
    def test_budget_sharding_matches(self, graph, delta, budget):
        whole = count_motifs(graph, delta)
        pieces = count_motifs(graph, delta, shard_budget=budget)
        assert np.array_equal(whole.grid, pieces.grid), budget

    def test_backends_and_categories_through_shards(self):
        """Shard unions equal the whole-graph count and the python loops."""
        graph = random_graph(seed=2, num_nodes=10, num_edges=80, t_max=30)
        reference = python_fast_counts(graph, 9)
        for categories in ("all", "star", "pair", "triangle", "star_pair"):
            whole = count_motifs(graph, 9, categories=categories)
            pieces = count_motifs(graph, 9, categories=categories, shard_budget=17)
            assert np.array_equal(whole.grid, pieces.grid), categories
            assert pieces.same_counts(reference.masked(categories)), categories

    def test_parallel_slices_match(self, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "fork")
        graph = random_graph(seed=6, num_nodes=10, num_edges=90, t_max=40)
        whole = count_motifs(graph, 12)
        pieces = count_motifs(graph, 12, workers=2, shard_budget=25)
        assert np.array_equal(whole.grid, pieces.grid)


class TestPlanning:
    def test_plan_partitions_and_respects_budget(self):
        graph = random_graph(seed=4, num_nodes=10, num_edges=103, t_max=50)
        sharded = ShardedGraph(graph, max_shard_edges=20)
        plan = sharded.plan(7)
        assert plan[0].own_lo == 0
        assert plan[-1].own_hi == graph.num_edges
        assert plan[-1].halo_hi == graph.num_edges
        t = graph.timestamps
        for a, b in zip(plan, plan[1:]):
            assert a.own_hi == b.own_lo  # own ranges partition [0, m)
        for shard in plan:
            assert 0 < shard.own_edges <= 20
            assert shard.halo_hi >= shard.own_hi
            if shard.halo_edges:
                # Every halo edge is inside the δ-window of some own edge.
                assert t[shard.halo_hi - 1] <= t[shard.own_hi - 1] + 7

    def test_num_shards_split(self):
        graph = random_graph(seed=4, num_nodes=8, num_edges=40, t_max=20)
        sharded = ShardedGraph(graph, num_shards=4)
        assert sharded.num_shards == 4
        assert sum(s.own_edges for s in sharded.plan(3)) == 40

    def test_sharded_over_packed_graph(self, tmp_path):
        graph = random_graph(seed=8, num_nodes=12, num_edges=100, t_max=35)
        path = str(tmp_path / "g.rgz")
        pack_graph(graph, path)
        packed = open_packed(path)
        whole = count_motifs(graph, 10)
        pieces = count_motifs(packed, 10, shard_budget=30)
        assert np.array_equal(whole.grid, pieces.grid)
        assert pieces.meta["sharding"] == "halo-union"

    def test_meta_provenance(self):
        graph = random_graph(seed=1, num_nodes=8, num_edges=50, t_max=25)
        result = count_motifs(graph, 6, shard_budget=13)
        meta = result.meta
        assert meta["sharding"] == "halo-union"
        assert meta["shards"] == 4
        assert meta["shard_budget"] == 13
        assert meta["halo_edges"] >= 0
        assert meta["slice_runs"] >= meta["shards"]
        assert meta["max_slice_edges"] <= 13 + meta["halo_edges"]

    def test_registry_shard_budget_routing(self):
        graph = random_graph(seed=3, num_nodes=9, num_edges=70, t_max=30)
        whole = execute(CountRequest(graph=graph, delta=8.0))
        routed = execute(CountRequest(graph=graph, delta=8.0, shard_budget=15))
        assert np.array_equal(whole.grid, routed.grid)
        assert routed.meta["sharding"] == "halo-union"

    def test_empty_and_tiny_graphs(self):
        assert count_motifs(TemporalGraph([]), 3, shard_budget=5).total() == 0
        tiny = TemporalGraph([(0, 1, 0), (1, 2, 1)])
        assert count_motifs(tiny, 3, shard_budget=1).total() == 0


class TestUnitsAndReducer:
    def test_units_are_the_signed_plan_terms(self):
        graph = random_graph(seed=4, num_nodes=10, num_edges=103, t_max=50)
        sharded = ShardedGraph(graph, max_shard_edges=20)
        plan = sharded.plan(7)
        units = sharded.units(7)
        assert [u.uid for u in units] == list(range(len(units)))
        for unit in units:
            shard = plan[unit.shard]
            assert unit.hi == shard.halo_hi and unit.hi - unit.lo >= 3
            expected = (shard.own_lo, 1) if unit.kind == "slice" else (shard.own_hi, -1)
            assert (unit.lo, unit.sign) == expected
        kept = {(u.shard, u.kind) for u in units}
        for shard in plan:  # only sub-3-edge ranges are dropped
            assert ((shard.index, "slice") in kept) == (shard.slice_edges >= 3)
            assert ((shard.index, "halo") in kept) == (shard.halo_edges >= 3)

    def _one_shard(self):
        graph = random_graph(seed=2, num_nodes=6, num_edges=12, t_max=10)
        m = graph.num_edges
        units = [Unit(0, 0, "slice", 0, m, 1), Unit(1, 0, "halo", m, m, -1)]
        return ShardedGraph(graph, num_shards=1), CountRequest(graph=graph, delta=5.0), units

    def test_reducer_is_exact_past_float53(self):
        sharded, request, units = self._one_shard()
        big = np.zeros((6, 6), dtype=np.int64)
        big[2, 3] = 2**53 + 1
        empty = np.zeros((6, 6), dtype=np.int64)
        result = sharded.reduce(request, units, [big, empty], {})
        assert int(result.grid[2, 3]) == 2**53 + 1
        assert result.grid.dtype == np.int64 and result.is_exact
        assert result.meta["slice_runs"] == 2

    def test_reducer_refuses_non_integer_grids(self):
        sharded, request, units = self._one_shard()
        grids = [np.full((6, 6), 2.0), np.zeros((6, 6), dtype=np.int64)]
        with pytest.raises(ValidationError):
            sharded.reduce(request, units, grids, {})


class TestValidation:
    def test_bad_boundaries(self):
        graph = random_graph(seed=0, num_nodes=6, num_edges=20, t_max=10)
        for bad in ([0], [20], [5, 5], [7, 3], [-1]):
            with pytest.raises(ValidationError):
                ShardedGraph(graph, boundaries=bad)

    def test_conflicting_specs(self):
        graph = random_graph(seed=0, num_nodes=6, num_edges=20, t_max=10)
        with pytest.raises(ValidationError):
            ShardedGraph(graph, max_shard_edges=5, num_shards=2)

    def test_bad_budget_and_shards(self):
        graph = random_graph(seed=0, num_nodes=6, num_edges=20, t_max=10)
        with pytest.raises(ValidationError):
            ShardedGraph(graph, max_shard_edges=0)
        with pytest.raises(ValidationError):
            ShardedGraph(graph, num_shards=0)
        with pytest.raises(ValidationError):
            ShardedGraph("nope")
        with pytest.raises(ValidationError):
            ShardedGraph(graph).plan(-1)

    def test_request_validation(self):
        graph = random_graph(seed=0, num_nodes=6, num_edges=20, t_max=10)
        with pytest.raises(ValidationError):
            CountRequest(graph=graph, delta=5.0, shard_budget=0)
        with pytest.raises(ValidationError):
            CountRequest(delta=5.0)  # neither graph nor source
