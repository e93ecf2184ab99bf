"""Protocol codec and typed-error-mapping tests (no sockets)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.api import count_motifs
from repro.errors import (
    BackpressureError,
    DeadlineExceededError,
    ParallelExecutionError,
    QuotaExceededError,
    ReproError,
    UnknownGraphError,
    ValidationError,
)
from repro.serve.protocol import (
    canonical_counts_bytes,
    classify_error,
    decode_counts,
    encode_counts,
    error_response,
    ok_response,
    parse_count,
    raise_from_response,
)
from tests.conftest import random_graph


# ---------------------------------------------------------------------------
# error mapping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("exc, code, status", [
    (ValidationError("bad"), "bad_request", 400),
    (UnknownGraphError("nope"), "unknown_graph", 404),
    (QuotaExceededError("over"), "quota_exceeded", 429),
    (BackpressureError("full"), "overloaded", 429),
    (DeadlineExceededError("late"), "deadline_exceeded", 504),
    (ParallelExecutionError("boom"), "execution_failed", 500),
    (ReproError("generic"), "error", 500),
    (RuntimeError("not ours"), "internal", 500),
])
def test_classify_error_table(exc, code, status):
    assert classify_error(exc) == (code, status)


def test_error_response_round_trips_to_same_exception_type():
    for exc in (
        ValidationError("v"), UnknownGraphError("g"), QuotaExceededError("q"),
        BackpressureError("b"), DeadlineExceededError("d"),
        ParallelExecutionError("p"),
    ):
        envelope = error_response(exc, request_id="r1")
        assert envelope["ok"] is False
        assert envelope["id"] == "r1"
        with pytest.raises(type(exc)):
            raise_from_response(json.loads(json.dumps(envelope)))


def test_unknown_code_degrades_to_repro_error():
    envelope = {"ok": False, "error": {"code": "from_the_future", "message": "?"}}
    with pytest.raises(ReproError):
        raise_from_response(envelope)


def test_ok_response_passes_through():
    envelope = ok_response({"x": 1}, request_id="abc")
    assert raise_from_response(envelope) is envelope
    assert envelope["result"] == {"x": 1}
    assert envelope["id"] == "abc"


def test_malformed_envelope_rejected():
    with pytest.raises(ValidationError):
        raise_from_response({"result": 1})


# ---------------------------------------------------------------------------
# counts codec
# ---------------------------------------------------------------------------

def test_encode_decode_exact_counts_round_trip():
    counts = count_motifs(random_graph(5, 8, 60), 10.0, algorithm="fast")
    payload = json.loads(json.dumps(encode_counts(counts)))
    back = decode_counts(payload)
    assert np.array_equal(back.grid, counts.grid)
    assert back.grid.dtype == counts.grid.dtype
    assert back.is_exact and back.stderr is None
    assert back.algorithm == counts.algorithm
    assert back.delta == counts.delta
    assert back.phase_seconds == dict(counts.phase_seconds)
    assert canonical_counts_bytes(back) == canonical_counts_bytes(counts)


def test_encode_decode_sampling_counts_round_trip():
    counts = count_motifs(
        random_graph(6, 8, 80), 10.0, algorithm="bts", seed=3, n_samples=2
    )
    back = decode_counts(json.loads(json.dumps(encode_counts(counts))))
    assert not back.is_exact
    assert back.grid.dtype == np.float64
    assert np.array_equal(back.grid, counts.grid)
    assert np.array_equal(back.stderr, counts.stderr)
    assert canonical_counts_bytes(back) == canonical_counts_bytes(counts)


def test_decode_counts_rejects_unknown_format():
    with pytest.raises(ValidationError):
        decode_counts({"format": "something/else"})


@pytest.mark.parametrize("cell", [2.5, 2**63, 2**64])
def test_decode_exact_counts_rejects_inexact_cells(cell):
    """A fractional or out-of-int64 cell fails typed, never truncates."""
    payload = json.loads(json.dumps(encode_counts(
        count_motifs(random_graph(5, 8, 60), 10.0, algorithm="fast")
    )))
    payload["grid"][0][0] = cell
    with pytest.raises(ValidationError):
        decode_counts(payload)


def test_canonical_bytes_ignore_provenance_but_not_answers():
    graph = random_graph(7, 8, 60)
    a = count_motifs(graph, 10.0, algorithm="fast")
    b = count_motifs(graph, 10.0, algorithm="fast", workers=2)
    # Same answer, different runtime label/timings: identical bytes.
    assert a.algorithm != b.algorithm  # hare[2] relabel
    assert canonical_counts_bytes(a) == canonical_counts_bytes(b)
    c = count_motifs(graph, 15.0, algorithm="fast")
    assert canonical_counts_bytes(a) != canonical_counts_bytes(c)


# ---------------------------------------------------------------------------
# count-op parsing
# ---------------------------------------------------------------------------

def test_parse_count_normalizes_defaults():
    fields = parse_count({"op": "count", "graph": "g", "delta": 5})
    assert fields["graph"] == "g"
    assert fields["delta"] == 5.0
    assert fields["algorithm"] == "fast"
    assert fields["categories"] == "all"
    assert "backend" not in fields
    assert fields["tenant"] == "default"
    assert fields["timeout"] is None and fields["id"] is None
    assert fields["params"] == {}


@pytest.mark.parametrize("message", [
    {"op": "count", "delta": 5},                         # no graph
    {"op": "count", "graph": "", "delta": 5},            # empty graph
    {"op": "count", "graph": "g"},                       # no delta
    {"op": "count", "graph": "g", "delta": "wat"},       # non-numeric delta
    {"op": "count", "graph": "g", "delta": 5, "workers": 4},   # reserved knob
    {"op": "count", "graph": "g", "delta": 5, "bogus": 1},     # typo field
    {"op": "count", "graph": "g", "delta": 5, "params": []},   # non-dict params
    {"op": "count", "graph": "g", "delta": 5, "timeout": 0},   # non-positive
    {"op": "count", "graph": "g", "delta": 5, "timeout": "x"},
    {"op": "count", "graph": "g", "delta": 5, "tenant": ""},
    {"op": "count", "graph": "g", "delta": 5, "id": 7},
])
def test_parse_count_rejects_malformed(message):
    with pytest.raises(ValidationError):
        parse_count(message)
