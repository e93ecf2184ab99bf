"""Worker wire protocol: codecs, cluster specs, op handling, request fields."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.registry import CountRequest, get_algorithm
from repro.distributed import WorkerDaemon, parse_cluster
from repro.distributed import protocol
from repro.errors import StorageFormatError, ValidationError
from repro.graph.temporal_graph import TemporalGraph
from repro.storage import ShardedGraph

from tests.conftest import random_edges


def make_graph(seed: int = 5, num_nodes: int = 40, num_edges: int = 300) -> TemporalGraph:
    rng = random.Random(seed)
    return TemporalGraph(random_edges(rng, num_nodes, num_edges, t_max=150))


# ---------------------------------------------------------------------------
# edge-slice codec
# ---------------------------------------------------------------------------

def test_edge_slice_round_trip_is_exact():
    graph = make_graph()
    payload = protocol.encode_edge_slice(graph, 50, 220)
    assert payload["format"] == "repro.distributed.edges/1"
    assert payload["num_edges"] == 170
    rebuilt = protocol.decode_edge_slice(payload)
    assert rebuilt.num_nodes == graph.num_nodes
    assert np.array_equal(rebuilt.sources, graph.sources[50:220])
    assert np.array_equal(rebuilt.destinations, graph.destinations[50:220])
    assert np.array_equal(rebuilt.timestamps, graph.timestamps[50:220])
    assert protocol.edge_slice_bytes(payload) > 0


def test_edge_slice_rejects_bad_range_and_payload():
    graph = make_graph()
    with pytest.raises(ValidationError):
        protocol.encode_edge_slice(graph, 10, graph.num_edges + 1)
    with pytest.raises(ValidationError):
        protocol.decode_edge_slice({"format": "bogus/9"})
    payload = protocol.encode_edge_slice(graph, 0, 10)
    payload["src"]["data"] = "!!! not base64 !!!"
    with pytest.raises(ValidationError):
        protocol.decode_edge_slice(payload)
    truncated = protocol.encode_edge_slice(graph, 0, 10)
    truncated["num_edges"] = 9  # columns no longer match the declaration
    with pytest.raises(ValidationError):
        protocol.decode_edge_slice(truncated)


# ---------------------------------------------------------------------------
# count-spec codec
# ---------------------------------------------------------------------------

def test_count_spec_round_trip_excludes_deployment_knobs():
    request = CountRequest(
        graph=make_graph(), delta=20.0, algorithm="ex", categories="star",
        workers=4,
    ).resolve(get_algorithm("ex"))
    spec = protocol.encode_count_spec(request)
    assert set(spec) <= protocol.SPEC_FIELDS
    assert "workers" not in spec and "pool" not in spec
    parsed = protocol.parse_count_spec(spec)
    assert parsed["algorithm"] == "ex"
    assert parsed["categories"] == "star"
    assert parsed["delta"] == 20.0


def test_count_spec_rejects_unknown_fields_and_missing_delta():
    with pytest.raises(ValidationError):
        protocol.parse_count_spec({"delta": 5.0, "workers": 8})
    with pytest.raises(ValidationError):
        protocol.parse_count_spec({"algorithm": "fast"})
    with pytest.raises(ValidationError):
        protocol.parse_count_spec("not an object")


# ---------------------------------------------------------------------------
# cluster address parsing
# ---------------------------------------------------------------------------

def test_parse_cluster_accepts_string_and_sequence():
    assert parse_cluster("a:1, b:2 ,") == ("a:1", "b:2")
    assert parse_cluster(["a:1", "b:2"]) == ("a:1", "b:2")


@pytest.mark.parametrize("bad", [None, "", ",", "hostonly", "host:", "host:port",
                                 "host:0", "host:70000"])
def test_parse_cluster_rejects_malformed(bad):
    with pytest.raises(ValidationError):
        parse_cluster(bad)


# ---------------------------------------------------------------------------
# daemon op handling (direct, no sockets)
# ---------------------------------------------------------------------------

@pytest.fixture
def daemon():
    with WorkerDaemon() as d:
        yield d


def test_unknown_op_and_shapes_are_validation_errors(daemon):
    with pytest.raises(ValidationError):
        daemon.handle_message({"op": "frobnicate"})
    with pytest.raises(ValidationError):
        daemon.handle_message({"op": "open"})  # no source
    with pytest.raises(ValidationError):
        daemon.handle_message({"op": "count_slice", "source": "x",
                               "spec": {"delta": 1.0, "workers": 3}})


def test_open_missing_file_is_a_placement_fact_not_an_error(daemon):
    result = daemon.handle_message({"op": "open", "source": "/nonexistent/g.rgz"})
    assert result == {"held": False}


def test_count_slice_on_unheld_source_is_an_error(daemon):
    with pytest.raises(StorageFormatError):
        daemon.handle_message({
            "op": "count_slice", "source": "/nonexistent/g.rgz",
            "lo": 0, "hi": 10, "spec": {"delta": 1.0},
        })


def test_count_slice_range_validation(daemon, tmp_path):
    from repro.storage import pack_graph

    graph = make_graph()
    path = str(tmp_path / "g.rgz")
    pack_graph(graph, path)
    probe = daemon.handle_message({"op": "open", "source": path})
    assert probe["held"] and probe["num_edges"] == graph.num_edges
    with pytest.raises(ValidationError):
        daemon.handle_message({
            "op": "count_slice", "source": path,
            "lo": 5, "hi": graph.num_edges + 1, "spec": {"delta": 1.0},
        })


def test_count_edges_matches_local_count(daemon):
    from repro.core.api import count_motifs

    graph = make_graph()
    payload = protocol.encode_edge_slice(graph, 0, graph.num_edges)
    result = daemon.handle_message({
        "op": "count_edges", "edges": payload, "spec": {"delta": 25.0},
    })
    counts = protocol.decode_counts(result["counts"])
    local = count_motifs(graph, 25.0, algorithm="fast")
    assert np.array_equal(counts.grid.astype(np.int64), local.grid)
    assert daemon.stats["bytes_received"] > 0
    assert daemon.describe_stats()["slices_served"] == 1


@pytest.mark.parametrize("backend", ["auto", "python", "columnar", "numba"])
def test_count_spec_with_legacy_backend_is_accepted(daemon, backend):
    """Older coordinators send a kernel choice; whatever it names, the
    field is dropped and the slice counts as without it."""
    from repro.core.api import count_motifs

    assert "backend" not in protocol.parse_count_spec({"delta": 25.0, "backend": backend})
    graph = make_graph()
    payload = protocol.encode_edge_slice(graph, 0, graph.num_edges)
    result = daemon.handle_message({
        "op": "count_edges", "edges": payload,
        "spec": {"delta": 25.0, "backend": backend},
    })
    counts = protocol.decode_counts(result["counts"])
    local = count_motifs(graph, 25.0, algorithm="fast")
    assert np.array_equal(counts.grid.astype(np.int64), local.grid)


def test_count_spec_with_legacy_hare_fields_is_accepted(daemon):
    """Older coordinators send HARE's ``thrd``/``schedule``; neither
    ever changed a count, so both are dropped and the slice counts as
    without them.  New specs no longer carry them."""
    from repro.core.api import count_motifs

    legacy = {"delta": 25.0, "thrd": 3.0, "schedule": "static"}
    parsed = protocol.parse_count_spec(legacy)
    assert "thrd" not in parsed and "schedule" not in parsed
    assert parsed == protocol.parse_count_spec({"delta": 25.0})
    graph = make_graph()
    spec = protocol.encode_count_spec(
        CountRequest(graph=graph, delta=25.0).resolve(get_algorithm("fast"))
    )
    assert set(spec) == protocol.SPEC_FIELDS
    payload = protocol.encode_edge_slice(graph, 0, graph.num_edges)
    result = daemon.handle_message({"op": "count_edges", "edges": payload, "spec": legacy})
    counts = protocol.decode_counts(result["counts"])
    local = count_motifs(graph, 25.0, algorithm="fast")
    assert np.array_equal(counts.grid.astype(np.int64), local.grid)


def test_hello_reports_identity(daemon):
    hello = daemon.handle_message({"op": "hello"})
    assert hello["workers"] == 1
    assert hello["protocol"] == protocol.PROTOCOL_VERSION


# ---------------------------------------------------------------------------
# CountRequest field validation (shard_budget is the one cut knob)
# ---------------------------------------------------------------------------

def test_request_rejects_multiple_cut_modes():
    """Only ``shard_budget`` cuts; the other cut modes are no fields."""
    with pytest.raises(TypeError):
        CountRequest(graph=make_graph(), delta=5.0, shard_budget=100, num_shards=4)
    with pytest.raises(TypeError):
        CountRequest(graph=make_graph(), delta=5.0, shard_boundaries=(10, 20))


def test_request_normalizes_boundaries_and_cluster():
    """Cut points live on the plan, which normalizes them to edge ids."""
    plan = ShardedGraph(make_graph(), boundaries=[10.0, 20]).plan(5.0)
    assert [(s.own_lo, s.own_hi) for s in plan] == [(0, 10), (10, 20), (20, 300)]
    with pytest.raises(ValidationError):
        CountRequest(graph=make_graph(), delta=5.0, shard_budget=0)
    request = CountRequest(graph=make_graph(), delta=5.0, cluster=" a:1 ,b:2")
    assert request.cluster == "a:1,b:2"
    with pytest.raises(ValidationError):
        CountRequest(graph=make_graph(), delta=5.0, cluster="nonsense")
