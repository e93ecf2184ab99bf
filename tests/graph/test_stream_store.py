"""Unit tests for the appendable/evictable columnar edge store."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import ValidationError
from repro.graph.stream_store import StreamingEdgeStore
from repro.graph.temporal_graph import TemporalGraph


def store_with(edges, **kwargs):
    store = StreamingEdgeStore(**kwargs)
    store.extend(edges)
    return store


class TestIngest:
    def test_append_and_counts(self):
        store = StreamingEdgeStore()
        assert store.append("a", "b", 1)
        assert store.append("b", "a", 2)
        assert store.num_live == 2
        assert store.num_seen == 2
        assert store.t_latest == 2
        assert store.t_earliest == 1

    def test_self_loops_dropped_by_default(self):
        store = StreamingEdgeStore()
        assert not store.append(3, 3, 1)
        assert store.num_live == 0
        assert store.num_self_loops_dropped == 1

    def test_self_loop_error_policy(self):
        store = StreamingEdgeStore(on_self_loop="error")
        with pytest.raises(ValidationError):
            store.append(3, 3, 1)

    def test_non_numeric_timestamp_rejected(self):
        store = StreamingEdgeStore()
        with pytest.raises(ValidationError):
            store.append(0, 1, "noon")

    def test_malformed_record_rejected(self):
        store = StreamingEdgeStore()
        with pytest.raises(ValidationError):
            store.extend([(0, 1)])

    def test_version_bumps_on_append_and_evict(self):
        store = StreamingEdgeStore()
        v0 = store.version
        store.append(0, 1, 5)
        assert store.version > v0
        v1 = store.version
        store.evict_before(10)
        assert store.version > v1


class TestEviction:
    def test_evict_before_removes_and_sets_watermark(self):
        store = store_with([(0, 1, t) for t in range(10)])
        evicted = store.evict_before(4)
        assert evicted == 4
        assert store.watermark == 4
        assert store.num_live == 6
        assert store.num_evicted == 4
        assert store.num_seen == 10

    def test_watermark_never_regresses(self):
        store = store_with([(0, 1, t) for t in range(10)])
        store.evict_before(5)
        assert store.evict_before(3) == 0
        assert store.watermark == 5

    def test_late_arrivals_dropped_below_watermark(self):
        store = store_with([(0, 1, t) for t in range(10)])
        store.evict_before(5)
        assert not store.append(0, 1, 4)
        assert store.num_dropped_late == 1
        # At-watermark arrivals are inside the closed window: accepted.
        assert store.append(0, 1, 5)

    def test_evict_exact_boundary_is_exclusive(self):
        store = store_with([(0, 1, 1), (0, 1, 2), (0, 1, 3)])
        store.evict_before(2)
        assert [t for _, _, t in store.live_edges()] == [2, 3]

    def test_compaction_preserves_contents(self):
        edges = [(i % 5, (i + 1) % 5, i) for i in range(100)]
        store = store_with(edges)
        store.evict_before(90)  # forces compaction (>half dead)
        assert store.live_edges() == edges[90:]


class TestRunsAndMerging:
    def test_many_flushes_merge_runs(self):
        store = StreamingEdgeStore(max_runs=2)
        for base in range(10):
            store.extend([(0, 1, base * 10 + k) for k in range(5)])
            store.slice_arrays()  # force a flush per batch
        assert len(store._runs) <= 3  # merged below the cap
        assert store.num_live == 50

    def test_interleaved_out_of_order_runs_slice_in_arrival_order(self):
        store = StreamingEdgeStore(max_runs=1)
        store.extend([(0, 1, 5), (1, 2, 1)])
        store.slice_arrays()
        store.extend([(2, 3, 3), (3, 4, 1)])
        assert store.live_edges() == [(0, 1, 5), (1, 2, 1), (2, 3, 3), (3, 4, 1)]


class TestSlicing:
    def test_slice_bounds_inclusive_lo_exclusive_hi(self):
        store = store_with([(0, 1, t) for t in (1, 2, 3, 4, 5)])
        src, dst, t = store.slice_arrays(2, 5)
        assert t.tolist() == [2, 3, 4]

    def test_slice_graph_matches_batch_canonical_order(self):
        # Heavy timestamp ties, shuffled arrival: the slice graph must
        # break ties exactly like a batch TemporalGraph over the same
        # arrival sequence.
        edges = [(i % 4, (i + 1) % 4, (i * 7) % 3) for i in range(30)]
        store = store_with(edges)
        sliced = store.slice_graph(None, None)
        batch = TemporalGraph(edges)
        assert np.array_equal(sliced.timestamps, batch.timestamps)
        # Same canonical (src, dst) sequence modulo label interning.
        batch_ids = [
            (batch.index(u), batch.index(v)) for u, v, _ in batch.edges()
        ]
        slice_ids = list(zip(sliced.sources.tolist(), sliced.destinations.tolist()))
        # Store ids equal first-appearance interning of the arrival
        # stream, which is exactly TemporalGraph's rule.
        assert slice_ids == batch_ids

    def test_empty_slice(self):
        store = store_with([(0, 1, 10)])
        src, dst, t = store.slice_arrays(20, None)
        assert len(src) == len(dst) == len(t) == 0
        assert store.slice_graph(20, None).num_edges == 0

    def test_live_edges_preserve_labels(self):
        store = store_with([("alice", "bob", 3), ("bob", "carol", 1)])
        assert store.live_edges() == [("alice", "bob", 3), ("bob", "carol", 1)]

    def test_float_and_int_timestamps_mix(self):
        store = store_with([(0, 1, 1), (1, 2, 2.5), (2, 0, 3)])
        _, _, t = store.slice_arrays()
        assert t.tolist() == [1.0, 2.5, 3.0]


class TestValidation:
    def test_bad_max_runs(self):
        with pytest.raises(ValidationError):
            StreamingEdgeStore(max_runs=0)

    def test_bad_self_loop_policy(self):
        with pytest.raises(ValidationError):
            StreamingEdgeStore(on_self_loop="ignore")


# ----------------------------------------------------------------------
# property tests: store invariants under arbitrary op sequences
# ----------------------------------------------------------------------

@st.composite
def op_sequences(draw):
    """Random interleavings of appends (tie-heavy) and evictions."""
    n_ops = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n_ops):
        if draw(st.booleans()) or not ops:
            u = draw(st.integers(min_value=0, max_value=5))
            v = draw(st.integers(min_value=0, max_value=5))
            if u == v:
                v = (v + 1) % 6
            t = draw(st.integers(min_value=0, max_value=12))
            ops.append(("append", u, v, t))
        else:
            ops.append(("evict", draw(st.integers(min_value=0, max_value=14))))
    return ops


def replay_reference(ops):
    """Pure-python model of the store's accept/evict semantics."""
    accepted = []  # (u, v, t) in arrival order
    watermark = None
    for op in ops:
        if op[0] == "append":
            _, u, v, t = op
            if watermark is None or t >= watermark:
                accepted.append((u, v, t))
        else:
            cutoff = op[1]
            if watermark is None or cutoff > watermark:
                watermark = cutoff
    live = [e for e in accepted if watermark is None or e[2] >= watermark]
    return accepted, live, watermark


class TestStoreProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops=op_sequences(), max_runs=st.integers(min_value=1, max_value=6))
    def test_eviction_never_drops_in_window_edges(self, ops, max_runs):
        """Exactly the in-window suffix survives — nothing more or less."""
        store = StreamingEdgeStore(max_runs=max_runs)
        for op in ops:
            if op[0] == "append":
                store.append(op[1], op[2], op[3])
            else:
                store.evict_before(op[1])
        _, live, watermark = replay_reference(ops)
        assert store.live_edges() == live
        assert store.watermark == watermark
        assert store.num_live == len(live)

    @settings(max_examples=60, deadline=None)
    @given(ops=op_sequences())
    def test_lazy_merge_preserves_arrival_order_tie_stamps(self, ops):
        """Aggressive merging and no merging agree edge-for-edge.

        Arrival order is the tie-break stamp: a batch rebuild of the
        live set must see the same canonical order whichever run
        layout the store happens to hold, including after merges.
        """
        eager = StreamingEdgeStore(max_runs=1)   # merge on every flush
        lazy = StreamingEdgeStore(max_runs=64)   # effectively never merge
        for op in ops:
            if op[0] == "append":
                eager.append(op[1], op[2], op[3])
                lazy.append(op[1], op[2], op[3])
            else:
                eager.evict_before(op[1])
                lazy.evict_before(op[1])
            # Force different internal layouts at every step.
            eager.slice_arrays(None, None)
        assert eager.live_edges() == lazy.live_edges()
        assert eager.live_graph() == lazy.live_graph()

    @settings(max_examples=60, deadline=None)
    @given(ops=op_sequences())
    def test_version_stamp_tracks_every_mutation(self, ops):
        """Accepted appends and real evictions bump the version; slices
        taken after any mutation reflect the post-mutation state."""
        store = StreamingEdgeStore()
        accepted_model = []
        watermark = None
        for op in ops:
            before = store.version
            if op[0] == "append":
                _, u, v, t = op
                accepted = store.append(u, v, t)
                timely = watermark is None or t >= watermark
                assert accepted == timely
                if accepted:
                    accepted_model.append((u, v, t))
                    assert store.version == before + 1
                else:
                    assert store.version == before
            else:
                cutoff = op[1]
                evicted = store.evict_before(cutoff)
                if watermark is None or cutoff > watermark:
                    watermark = cutoff
                survivors = [e for e in accepted_model if e[2] >= watermark]
                assert evicted == len(accepted_model) - len(survivors)
                accepted_model = survivors
                if evicted:
                    assert store.version == before + 1
                else:
                    assert store.version == before
            # The slice never serves stale state.
            assert store.live_edges() == [
                e for e in accepted_model
                if watermark is None or e[2] >= watermark
            ]

    @settings(max_examples=40, deadline=None)
    @given(ops=op_sequences())
    def test_slice_graph_columnar_never_stale(self, ops):
        """Columnar views derived from slices reflect every mutation.

        ``slice_graph`` returns a fresh ``TemporalGraph`` whose
        ``columnar()`` is stamped against that graph's version — so a
        view cached across store mutations can always be detected as
        belonging to an older graph object, never silently reused.
        """
        store = StreamingEdgeStore()
        previous = None
        for op in ops:
            if op[0] == "append":
                store.append(op[1], op[2], op[3])
            else:
                store.evict_before(op[1])
            graph = store.live_graph()
            col = graph.columnar()
            assert col.num_edges == store.num_live
            assert np.array_equal(np.sort(col.t), col.t)
            if previous is not None and store.num_live != previous.num_edges:
                # The old columnar view belongs to the old graph; the
                # new slice never reuses it.
                assert previous.columnar() is not col
            previous = graph


@st.composite
def mixed_stores(draw):
    """A store after random appends/evictions, with a random slice."""
    labels = st.sampled_from(["a", "b", "c", 7, 3, 40, "z", 0])
    times = st.one_of(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=40).map(lambda x: x / 2),
    )
    store = StreamingEdgeStore(max_runs=draw(st.integers(min_value=1, max_value=4)))
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        if draw(st.integers(min_value=0, max_value=4)):
            batch = draw(st.lists(st.tuples(labels, labels, times), max_size=12))
            store.extend(batch)
        else:
            store.evict_before(draw(st.integers(min_value=0, max_value=18)))
    bounds = st.one_of(st.none(), st.integers(min_value=0, max_value=22))
    return store, draw(bounds), draw(bounds)


@settings(max_examples=120, deadline=None)
@given(case=mixed_stores())
def test_slice_graph_is_the_interned_from_arrays_graph(case):
    """The NumPy slice build equals ``from_arrays`` over the same slice:
    ids by first appearance, canonical order, timestamp dtype, labels."""
    store, t_lo, t_hi = case
    src, dst, t = store.slice_arrays(t_lo, t_hi)
    reference = TemporalGraph.from_arrays(src.tolist(), dst.tolist(), t.tolist())
    graph = store.slice_graph(t_lo, t_hi)
    for column in ("sources", "destinations", "timestamps"):
        got, want = getattr(graph, column), getattr(reference, column)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    labels = [reference.label(i) for i in range(reference.num_nodes)]
    assert [graph.label(i) for i in range(graph.num_nodes)] == labels
    assert all(graph.index(label) == i for i, label in enumerate(labels))
    assert graph == reference
