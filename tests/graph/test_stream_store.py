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
    def test_interleaved_out_of_order_runs_slice_in_arrival_order(self):
        store = StreamingEdgeStore()
        store.extend([(0, 1, 5), (1, 2, 1)])
        store.slice_arrays()
        store.extend([(2, 3, 3), (3, 4, 1)])
        assert store.live_edges() == [(0, 1, 5), (1, 2, 1), (2, 3, 3), (3, 4, 1)]


class TestAtomicBatches:
    """A batch is validated whole before the store changes at all."""

    @staticmethod
    def state(store):
        return (store.num_live, store.num_nodes, store.version, store.num_evicted,
                store.num_dropped_late, store.num_self_loops_dropped,
                store.snapshot_state(), store.live_edges())

    @pytest.mark.parametrize("bad", [
        (4, 5),                      # not a triple
        (4, 5, "x"),                 # non-numeric timestamp
        (4, 5, float("nan")),        # non-finite timestamp
        (4, 5, float("inf")),
        ([4], 5, 3),                 # unhashable label
        (4, 5, 2**70),               # integer beyond int64
    ])
    def test_bad_record_rejects_the_whole_batch(self, bad):
        store = store_with([(0, 1, 1), (1, 2, 2)])
        store.evict_before(1)
        before = self.state(store)
        with pytest.raises(ValidationError):
            store.extend([(1, 2, 3.0), (0, 0, 4), (2, 3, 0), (7, 8, 5), bad])
        assert self.state(store) == before

    def test_short_record_after_a_good_one_changes_nothing(self):
        store = StreamingEdgeStore()
        with pytest.raises(ValidationError):
            store.extend([(1, 2, 3.0), (4, 5)])
        assert store.num_live == 0
        assert store.num_nodes == 0

    def test_self_loop_error_policy_rejects_the_whole_batch(self):
        store = StreamingEdgeStore(on_self_loop="error")
        with pytest.raises(ValidationError, match="self-loop"):
            store.extend(iter([(0, 1, 1), (2, 2, 2)]))
        assert store.num_live == 0 and store.version == 0

    def test_stage_changes_nothing_and_commit_applies(self):
        store = store_with([(0, 1, 5)])
        store.evict_before(2)
        before = self.state(store)
        batch = store.stage([("a", "b", 7), (0, 0, 6), (0, 1, 1), ("b", 0, 3)])
        assert self.state(store) == before
        assert (len(batch.t), batch.num_late, batch.num_self_loops) == (2, 1, 1)
        assert batch.t_min == 3
        assert store.commit(batch) == 2
        assert store.live_edges() == [(0, 1, 5), ("a", "b", 7), ("b", 0, 3)]
        assert store.snapshot_state()["labels"] == [0, 1, "a", "b"]
        assert (store.num_dropped_late, store.num_self_loops_dropped) == (1, 1)

    def test_stale_staged_batch_is_refused(self):
        store = StreamingEdgeStore()
        batch = store.stage([(0, 1, 1)])
        store.evict_before(5)  # moves the watermark only: (0, 1, 1) is now late
        with pytest.raises(ValidationError, match="staged"):
            store.commit(batch)
        assert store.num_live == 0

    @pytest.mark.parametrize("cutoff", [float("nan"), np.float64("nan"), "x", None])
    def test_bad_cutoff_refused(self, cutoff):
        store = store_with([(0, 1, t) for t in range(5)])
        with pytest.raises(ValidationError, match="cutoff"):
            store.evict_before(cutoff)
        assert store.num_live == 5 and store.watermark is None

    def test_float_batch_promotes_an_int_run(self):
        store = store_with([(0, 1, 1), (1, 2, 3)])
        store.extend([(2, 3, 2.5), (3, 4, 1.25)])
        src, dst, t = store.slice_arrays()
        assert t.dtype == np.float64
        assert t.tolist() == [1.0, 3.0, 2.5, 1.25]
        assert store.canonical_arrays()[2].tolist() == [1.0, 1.25, 2.5, 3.0]

    def test_canonical_arrays_are_the_sorted_run(self):
        store = store_with([(0, 1, 5), (1, 2, 1), (2, 3, 5), (3, 4, 1)])
        src, dst, t = store.canonical_arrays()
        assert t.tolist() == [1, 1, 5, 5]
        assert list(zip(src.tolist(), dst.tolist())) == [(1, 2), (3, 4), (0, 1), (2, 3)]
        assert not t.flags.writeable
        store.evict_before(10)
        assert [a.dtype for a in store.canonical_arrays()] == [np.int64] * 3


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


@st.composite
def model_ops(draw):
    """append / extend / evict calls over a tiny label set and time range."""
    labels = st.sampled_from(["a", "b", 3, 7, 0])
    times = st.one_of(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=40).map(lambda x: x / 2),
    )
    record = st.tuples(labels, labels, times)
    op = st.one_of(
        st.tuples(st.just("append"), record),
        st.tuples(st.just("extend"), st.lists(record, max_size=8)),
        st.tuples(st.just("evict"), st.one_of(
            st.integers(min_value=0, max_value=22),
            st.integers(min_value=0, max_value=44).map(lambda x: x / 2),
        )),
    )
    return draw(st.lists(op, min_size=1, max_size=25))


class ListModel:
    """What a store must report, kept as a plain list of accepted edges."""

    def __init__(self):
        self.accepted = []  # (u, v, t) in arrival order, evicted ones too
        self.labels = []
        self.watermark = None
        self.t_latest = None
        self.float_run = False
        self.evicted = self.late = self.loops = self.version = 0

    def live(self):
        wm = self.watermark
        return [e for e in self.accepted if wm is None or e[2] >= wm]

    def extend(self, records):
        batch = []
        for u, v, t in records:
            if u == v:
                self.loops += 1
            elif self.watermark is not None and t < self.watermark:
                self.late += 1
            else:
                batch.append((u, v, t))
        if batch:
            has_float = any(isinstance(t, float) for _, _, t in batch)
            # The run's dtype promotes; it restarts when the run was empty.
            self.float_run = has_float or (self.float_run and bool(self.live()))
        for u, v, t in batch:
            for label in (u, v):
                if label not in self.labels:
                    self.labels.append(label)
            if self.t_latest is None or t > self.t_latest:
                self.t_latest = t
        self.accepted.extend(batch)
        self.version += len(batch)
        return len(batch)

    def evict(self, cutoff):
        if self.watermark is not None and cutoff <= self.watermark:
            return 0
        count = sum(1 for e in self.live() if e[2] < cutoff)
        self.watermark = cutoff
        self.evicted += count
        self.version += 1 if count else 0
        return count

    def check(self, store, bounds):
        live = self.live()
        assert store.live_edges() == live
        assert store.num_live == len(live) and len(store) == len(live)
        assert store.num_seen == len(self.accepted)
        assert store.num_evicted == self.evicted
        assert store.num_dropped_late == self.late
        assert store.num_self_loops_dropped == self.loops
        assert store.num_nodes == len(self.labels)
        assert store.version == self.version
        assert store.watermark == self.watermark
        assert store.t_earliest == (min(e[2] for e in live) if live else None)
        src, dst, t = store.canonical_arrays()
        assert [(self.labels[s], self.labels[d], ts)
                for s, d, ts in zip(src.tolist(), dst.tolist(), t.tolist())] == sorted(
            live, key=lambda e: e[2])  # stable: arrival order breaks ties
        state = store.snapshot_state()
        assert state["labels"] == self.labels
        assert state["t_latest"] == self.t_latest
        assert type(state["t_latest"]) is type(self.t_latest)
        assert type(state["watermark"]) is type(self.watermark)
        assert (state["num_evicted"], state["num_dropped_late"],
                state["num_self_loops_dropped"], state["version"]) == (
            self.evicted, self.late, self.loops, self.version)
        for t_lo, t_hi in bounds:
            want = [e for e in live
                    if (t_lo is None or e[2] >= t_lo) and (t_hi is None or e[2] < t_hi)]
            src, dst, t = store.slice_arrays(t_lo, t_hi)
            assert [(self.labels[s], self.labels[d], ts)
                    for s, d, ts in zip(src.tolist(), dst.tolist(), t.tolist())] == want
            assert src.dtype == dst.dtype == np.int64
            assert t.dtype == (np.float64 if want and self.float_run else np.int64)


class TestStoreProperties:
    @settings(max_examples=60, deadline=None)
    @given(ops=op_sequences())
    def test_eviction_never_drops_in_window_edges(self, ops):
        """Exactly the in-window suffix survives — nothing more or less."""
        store = StreamingEdgeStore()
        for op in ops:
            if op[0] == "append":
                store.append(op[1], op[2], op[3])
            else:
                store.evict_before(op[1])
        _, live, watermark = replay_reference(ops)
        assert store.live_edges() == live
        assert store.watermark == watermark
        assert store.num_live == len(live)

    @settings(max_examples=150, deadline=None)
    @given(ops=model_ops(), bounds=st.lists(
        st.tuples(st.one_of(st.none(), st.integers(0, 22)),
                  st.one_of(st.none(), st.integers(0, 22))),
        min_size=1, max_size=3))
    def test_store_matches_list_model(self, ops, bounds):
        """The store against a plain list of accepted edges.

        Interleaved ``append``/``extend``/``evict_before`` calls with
        out-of-order arrivals, ties, late records, self-loops and mixed
        int/float timestamps; after each call every observable agrees.
        """
        store = StreamingEdgeStore()
        model = ListModel()
        for op in ops:
            if op[0] == "append":
                assert store.append(*op[1]) == (model.extend([op[1]]) == 1)
            elif op[0] == "extend":
                assert store.extend(op[1]) == model.extend(op[1])
            else:
                assert store.evict_before(op[1]) == model.evict(op[1])
            model.check(store, bounds)


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
    store = StreamingEdgeStore()
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
