"""Streaming engine tests: replay vs batch recount, window semantics.

The central property (ISSUE 3 acceptance): a streaming replay of a
shuffled synthetic graph produces counts **bit-identical** to a batch
``count_motifs`` recount of the live edge set at *every* checkpoint,
across the python and columnar kernels, with and without a sliding
window — timestamp ties, late arrivals and multi-edges included.
"""

import json
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import stream_kernels
from repro.core.api import count_motifs, stream_motifs
from repro.core.registry import (
    StreamRequest,
    get_algorithm,
    open_stream,
    streaming_algorithms,
)
from repro.core.streaming import PHASES, StreamingMotifEngine
from repro.errors import ValidationError
from repro.graph.temporal_graph import TemporalGraph


@st.composite
def edge_streams(draw, max_nodes=7, max_edges=26, max_t=18):
    """A shuffled arrival sequence of random edges with heavy ties."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    edges = []
    for _ in range(m):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u == v:
            v = (v + 1) % n
        t = draw(st.integers(min_value=0, max_value=max_t))
        edges.append((u, v, t))
    return draw(st.permutations(edges))


deltas = st.integers(min_value=0, max_value=12)


def replay_and_compare(edges, delta, window=None, every=5, batch=3):
    """Assert checkpoint counts == batch recount of the live set."""
    engine = open_stream(StreamRequest(delta=delta, window=window))
    checkpoints = 0
    for cp in engine.replay(edges, checkpoint_every=every, batch_edges=batch):
        checkpoints += 1
        live = engine.live_edges()
        batch_counts = count_motifs(TemporalGraph(live), delta)
        assert (cp.counts.grid == batch_counts.grid).all(), (
            f"checkpoint {cp.seq}: streaming {cp.counts.total()} != "
            f"batch {batch_counts.total()}"
        )
        assert cp.edges_seen == cp.edges_live + cp.edges_expired
    return checkpoints


@settings(max_examples=60, deadline=None)
@given(edges=edge_streams(), delta=deltas)
def test_shuffled_replay_matches_batch_recount_unbounded(edges, delta):
    """Append-only: live set == everything seen, fully independent oracle."""
    engine = open_stream(StreamRequest(delta=delta))
    seen = []
    for cp in engine.replay(edges, checkpoint_every=6, batch_edges=4):
        seen = [tuple(e) for e in edges[: cp.edges_seen]]
        batch = count_motifs(TemporalGraph(seen), delta)
        assert (cp.counts.grid == batch.grid).all()
        assert engine.live_edges() == seen


@settings(max_examples=60, deadline=None)
@given(
    edges=edge_streams(),
    delta=deltas,
    window=st.integers(min_value=1, max_value=20),
)
def test_shuffled_replay_matches_batch_recount_windowed(edges, delta, window):
    replay_and_compare(edges, delta, window=float(window))


@settings(max_examples=40, deadline=None)
@given(edges=edge_streams(), delta=deltas, window=st.integers(min_value=2, max_value=15))
def test_in_order_window_live_set_is_time_suffix(edges, delta, window):
    """In-order replay: live set == {t >= t_latest - W}, independently."""
    ordered = sorted(edges, key=lambda e: e[2])
    engine = open_stream(StreamRequest(delta=delta, window=float(window)))
    for cp in engine.replay(ordered, checkpoint_every=7):
        processed = ordered[: cp.edges_seen + cp.edges_dropped_late]
        expected = [e for e in processed if e[2] >= cp.t_latest - window]
        assert engine.live_edges() == expected
        assert cp.edges_dropped_late == 0  # in-order streams never drop


@settings(max_examples=30, deadline=None)
@given(edges=edge_streams(max_edges=18), delta=deltas)
def test_python_and_columnar_checkpoints_identical(edges, delta):
    """The two kernel sets the slice size rule picks between must agree
    checkpoint by checkpoint: force each for every slice."""
    grids = []
    for min_edges in (10**9, 0):  # python loops only, then columnar only
        with mock.patch.object(stream_kernels, "AUTO_COLUMNAR_MIN_EDGES", min_edges):
            engine = open_stream(StreamRequest(delta=delta, window=9.0))
            grids.append(
                [cp.counts.grid.copy() for cp in engine.replay(edges, checkpoint_every=5)]
            )
    assert len(grids[0]) == len(grids[1])
    for a, b in zip(grids[0], grids[1]):
        assert (a == b).all()


class TestEngineBasics:
    def test_checkpoint_phase_seconds_keys(self):
        engine = open_stream(StreamRequest(delta=5.0, window=30.0))
        engine.ingest([(0, 1, 0), (1, 0, 2), (0, 1, 4)])
        cp = engine.checkpoint()
        assert set(cp.phase_seconds) == set(PHASES)
        assert cp.counts.phase_seconds == cp.phase_seconds
        assert all(v >= 0 for v in cp.phase_seconds.values())

    def test_phase_seconds_reset_between_checkpoints(self):
        engine = open_stream(StreamRequest(delta=5.0))
        engine.ingest([(0, 1, t) for t in range(20)])
        first = engine.checkpoint()
        second = engine.checkpoint()  # no work in between
        assert sum(first.phase_seconds.values()) > 0
        assert sum(second.phase_seconds.values()) == pytest.approx(0.0, abs=1e-3)

    def test_as_dict_shape(self):
        engine = open_stream(StreamRequest(delta=5.0))
        engine.ingest([(0, 1, 0), (1, 0, 1), (0, 1, 2)])
        payload = engine.checkpoint().as_dict(per_motif=True)
        json.dumps(payload)  # JSON-serialisable
        for key in (
            "checkpoint", "t_latest", "watermark", "edges_seen", "edges_live",
            "edges_expired", "edges_dropped_late", "total",
            "phase_seconds", "dominant_phase", "counts",
        ):
            assert key in payload
        assert "backend" not in payload
        assert payload["total"] == sum(payload["counts"].values())

    def test_categories_masking(self):
        edges = [(0, 1, 0), (1, 0, 1), (0, 1, 2), (1, 2, 2), (2, 0, 3)]
        engine = open_stream(StreamRequest(delta=10.0, categories="triangle"))
        engine.ingest(edges)
        cp = engine.checkpoint()
        batch = count_motifs(TemporalGraph(edges), 10.0, categories="triangle")
        assert (cp.counts.grid == batch.grid).all()
        assert cp.counts.total() == batch.total() > 0

    def test_counts_does_not_advance_checkpoint_seq(self):
        engine = open_stream(StreamRequest(delta=5.0))
        engine.ingest([(0, 1, 0), (1, 0, 1), (0, 1, 2)])
        total = engine.counts().total()
        cp = engine.checkpoint()
        assert cp.seq == 1
        assert cp.counts.total() == total

    def test_late_edges_reported_not_counted(self):
        engine = open_stream(StreamRequest(delta=2.0, window=5.0))
        engine.ingest([(0, 1, t) for t in range(10)])
        assert engine.store.watermark == pytest.approx(4.0)
        engine.ingest([(0, 1, 0.5)])  # far below the watermark
        cp = engine.checkpoint()
        assert cp.edges_dropped_late == 1
        batch = count_motifs(TemporalGraph(engine.live_edges()), 2.0)
        assert (cp.counts.grid == batch.grid).all()

    def test_workers_microbatch_matches_serial(self, monkeypatch):
        # Every dirty slice takes the pool route.
        monkeypatch.setattr(stream_kernels, "DEFAULT_PARALLEL_MIN_EDGES", 1)
        edges = [((i * 3) % 11, (i * 7 + 1) % 11, i % 40) for i in range(300)]
        serial = open_stream(StreamRequest(delta=8.0, window=25.0))
        forked = open_stream(StreamRequest(delta=8.0, window=25.0, workers=2))
        for engine in (serial, forked):
            engine.ingest(edges)
        assert (serial.checkpoint().counts.grid == forked.checkpoint().counts.grid).all()

    def test_stream_motifs_final_checkpoint_covers_tail(self):
        edges = [(0, 1, t) for t in range(10)]
        cps = list(stream_motifs(edges, 100.0, checkpoint_every=4))
        assert [cp.edges_seen for cp in cps] == [4, 8, 10]
        batch = count_motifs(TemporalGraph(edges), 100.0)
        assert cps[-1].counts.total() == batch.total()


class TestRegistryIntegration:
    def test_fast_declares_streaming(self):
        assert "fast" in streaming_algorithms()
        assert get_algorithm("fast").streaming
        assert "streaming" in get_algorithm("fast").describe()

    def test_non_streaming_algorithm_rejected(self):
        with pytest.raises(ValidationError, match="does not support streaming"):
            open_stream(StreamRequest(delta=1.0, algorithm="bt"))

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValidationError, match="unknown algorithm"):
            open_stream(StreamRequest(delta=1.0, algorithm="nope"))

    def test_engine_type(self):
        engine = open_stream(StreamRequest(delta=1.0))
        assert isinstance(engine, StreamingMotifEngine)

    def test_baselines_have_no_streaming_mode(self):
        with pytest.raises(ValidationError, match="does not support streaming"):
            open_stream(StreamRequest(delta=1.0, algorithm="twoscent"))


class TestStreamRequestValidation:
    def test_negative_delta(self):
        with pytest.raises(ValidationError):
            StreamRequest(delta=-1.0)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf")])
    def test_non_finite_delta(self, delta):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            StreamRequest(delta=delta)

    def test_nonpositive_window(self):
        with pytest.raises(ValidationError):
            StreamRequest(delta=1.0, window=0.0)

    def test_bad_backend(self):
        """Kernel choice is internal: the request has no backend knob."""
        with pytest.raises(TypeError):
            StreamRequest(delta=1.0, backend="columnar")

    def test_no_parallel_threshold_knob(self):
        """The pool-route slice threshold is a module constant
        (``stream_kernels.DEFAULT_PARALLEL_MIN_EDGES``), not a field."""
        with pytest.raises(TypeError):
            StreamRequest(delta=1.0, workers=2, parallel_min_edges=1)

    def test_bad_categories(self):
        with pytest.raises(ValidationError):
            StreamRequest(delta=1.0, categories="everything")

    def test_bad_checkpoint_every(self):
        with pytest.raises(ValidationError):
            StreamRequest(delta=1.0, checkpoint_every=0)

    def test_bad_workers(self):
        with pytest.raises(ValidationError):
            StreamRequest(delta=1.0, workers=0)

    def test_unknown_param_rejected_on_resolve(self):
        with pytest.raises(ValidationError, match="unknown parameter"):
            open_stream(StreamRequest(delta=1.0, params={"zeta": 3}))


class TestIngestValidation:
    def test_malformed_record_raises_validation_error(self):
        engine = open_stream(StreamRequest(delta=1.0))
        with pytest.raises(ValidationError, match="triples"):
            engine.ingest([(0, 1)])

    def test_stream_motifs_validates_eagerly(self):
        # A plain function, not a generator function: bad requests
        # surface at the call site, like count_motifs.
        with pytest.raises(ValidationError):
            stream_motifs([], -5.0)
