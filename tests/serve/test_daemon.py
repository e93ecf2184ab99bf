"""End-to-end daemon tests: unix-socket JSONL, HTTP, typed wire errors."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.api import count_motifs
from repro.errors import (
    DeadlineExceededError,
    QuotaExceededError,
    ReproError,
    UnknownGraphError,
    ValidationError,
)
from repro.serve import MotifService, ServeClient, ServeDaemon, ServiceConfig
from repro.serve.protocol import PROTOCOL_VERSION, canonical_counts_bytes, decode_counts

from tests.serve.conftest import hold_executions, running_daemon


# ---------------------------------------------------------------------------
# unix socket + client
# ---------------------------------------------------------------------------

def test_ping_and_introspection_ops(served):
    _, socket_path = served
    with ServeClient(socket_path) as client:
        pong = client.ping()
        assert pong["version"] == PROTOCOL_VERSION
        assert "demo" in [row["name"] for row in client.catalog()]
        assert "fast" in [spec["name"] for spec in client.algorithms()]
        stats = client.stats()
        assert "answered" in stats and "pool" in stats


def test_served_exact_counts_are_byte_identical(served, graph):
    _, socket_path = served
    with ServeClient(socket_path) as client:
        for delta in (15.0, 45.0):
            served_counts = client.count("demo", delta)
            direct = count_motifs(graph, delta, algorithm="fast")
            assert canonical_counts_bytes(served_counts) == canonical_counts_bytes(direct)
            assert served_counts.is_exact


def test_served_repeat_is_answered_at_admission(served, graph):
    _, socket_path = served
    direct = canonical_counts_bytes(count_motifs(graph, 25.0, algorithm="fast"))
    with ServeClient(socket_path) as client:
        first = client.count("demo", 25.0)
        repeat = client.count("demo", 25.0)
        stats = client.stats()
    assert canonical_counts_bytes(first) == canonical_counts_bytes(repeat) == direct
    assert stats["executions"] == 1 and stats["answer_hits"] == 1


def test_legacy_backend_field_is_answered_from_the_table(served, graph):
    """An older client's ``"backend"`` field is accepted and ignored: the
    request is the same computation as one without it."""
    _, socket_path = served
    with ServeClient(socket_path) as client:
        first = client.count("demo", 27.0)
        before = client.stats()
        reply = client.request(
            {"op": "count", "graph": "demo", "delta": 27.0, "backend": "columnar"}
        )
        after = client.stats()
        specs = client.algorithms()
    assert canonical_counts_bytes(decode_counts(reply["result"])) == (
        canonical_counts_bytes(first)
    )
    assert after["answer_hits"] == before["answer_hits"] + 1
    assert after["executions"] == before["executions"] == 1
    assert all("backends" not in spec for spec in specs)


def test_served_sampling_counts_reproduce_fixed_seed(served, graph):
    _, socket_path = served
    with ServeClient(socket_path) as client:
        served_counts = client.count(
            "demo", 30.0, algorithm="bts", seed=7, n_samples=3
        )
        direct = count_motifs(graph, 30.0, algorithm="bts", seed=7, n_samples=3)
        assert canonical_counts_bytes(served_counts) == canonical_counts_bytes(direct)
        assert np.array_equal(served_counts.stderr, direct.stderr)


def test_wire_errors_arrive_typed(served):
    _, socket_path = served
    with ServeClient(socket_path) as client:
        with pytest.raises(UnknownGraphError):
            client.count("missing", 10.0)
        with pytest.raises(ValidationError):
            client.count("demo", 10.0, algorithm="not-real")
        with pytest.raises(ValidationError):
            client.request({"op": "count", "graph": "demo"})  # no delta
        with pytest.raises(ReproError):
            client.request({"op": "warp"})  # unknown op
        # The connection survives every error above.
        assert client.ping()["version"] == PROTOCOL_VERSION


def direct_fields(delta: float, tenant: str) -> dict:
    return {
        "graph": "demo", "delta": delta, "algorithm": "fast",
        "categories": "all", "seed": None,
        "n_samples": None, "params": {}, "tenant": tenant,
        "timeout": 30.0, "id": None,
    }


def test_deadline_and_quota_errors_cross_the_wire(graph):
    service = MotifService(ServiceConfig(workers=1, tenant_quota=1))
    service.add_graph("demo", graph)
    try:
        with running_daemon(service) as (_, socket_path):
            with ServeClient(socket_path) as client:
                # A held direct submission keeps the dispatcher busy
                # while the wire request waits in the queue past its
                # deadline; the hold lifts after 0.2 s.
                started, release = hold_executions(service)
                blocker = service.submit(direct_fields(50.0, "dave"))
                assert started.wait(60)
                timer = threading.Timer(0.2, release.set)
                timer.start()
                try:
                    with pytest.raises(DeadlineExceededError):
                        client.count("demo", 20.0, timeout=0.01)
                finally:
                    timer.join()
                blocker.result(60)

                # Pin carol's only quota slot with a held direct
                # submission; the wire request for a *different* delta
                # arrives and is turned away with a typed 429-class
                # error.
                started, release = hold_executions(service)
                held = service.submit(direct_fields(35.0, "carol"))
                try:
                    with pytest.raises(QuotaExceededError):
                        client.count("demo", 36.0, tenant="carol")
                finally:
                    release.set()
                held.result(60)
    finally:
        service.close()


def test_concurrent_clients_share_one_execution(graph):
    service = MotifService(ServiceConfig(workers=2))
    service.add_graph("demo", graph)
    try:
        with running_daemon(service) as (_, socket_path):
            # Hold the first execution until all five requests are in.
            started, release = hold_executions(service)
            results, errors = [], []

            def hit() -> None:
                try:
                    with ServeClient(socket_path) as client:
                        results.append(client.count("demo", 28.0))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=hit) for _ in range(5)]
            for t in threads:
                t.start()
            try:
                assert started.wait(60)
                admitted_by = time.monotonic() + 60
                while service.stats["requests"] < 5 and time.monotonic() < admitted_by:
                    time.sleep(0.01)
            finally:
                release.set()
            for t in threads:
                t.join(timeout=120)
            assert not errors
            assert len(results) == 5
            for counts in results[1:]:
                assert np.array_equal(counts.grid, results[0].grid)
            assert service.stats["executions"] == 1
            assert service.stats["coalesced"] == 4
    finally:
        service.close()


def test_malformed_json_line_gets_bad_request_envelope(served):
    _, socket_path = served
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(socket_path)
    try:
        sock.sendall(b"this is not json\n")
        reply = json.loads(sock.makefile("rb").readline())
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad_request"
    finally:
        sock.close()


@pytest.mark.parametrize("delta", ["NaN", "Infinity", "-1"])
def test_count_with_bad_delta_gets_bad_request(served, delta):
    # Python's json parses the NaN/Infinity literals a client may send.
    _, socket_path = served
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(socket_path)
    try:
        line = '{"op": "count", "graph": "demo", "delta": %s}\n' % delta
        sock.sendall(line.encode())
        reply = json.loads(sock.makefile("rb").readline())
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad_request"
        assert "finite and non-negative" in reply["error"]["message"]
    finally:
        sock.close()


def test_request_id_echoes_back(served):
    _, socket_path = served
    with ServeClient(socket_path) as client:
        envelope = client.request(
            {"op": "count", "graph": "demo", "delta": 12.0, "id": "req-42"}
        )
        assert envelope["id"] == "req-42"
        bad = {"op": "count", "graph": "nope", "delta": 1.0, "id": "req-43"}
        with pytest.raises(UnknownGraphError):
            client.request(bad)


def test_client_rejects_missing_socket(tmp_path):
    with pytest.raises(ReproError):
        ServeClient(str(tmp_path / "absent.sock"))


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------

@pytest.fixture
def http_served(graph):
    service = MotifService(ServiceConfig(workers=2))
    service.add_graph("demo", graph)
    try:
        with running_daemon(service, http=True) as (daemon, _):
            host, port = daemon.http_address
            yield service, f"http://{host}:{port}"
    finally:
        service.close()


def _http_json(url, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read())


def test_http_count_matches_direct(http_served, graph):
    _, base = http_served
    status, envelope = _http_json(
        base + "/v1/count", {"graph": "demo", "delta": 25.0}
    )
    assert status == 200 and envelope["ok"] is True
    from repro.serve.protocol import decode_counts

    served_counts = decode_counts(envelope["result"])
    direct = count_motifs(graph, 25.0, algorithm="fast")
    assert canonical_counts_bytes(served_counts) == canonical_counts_bytes(direct)


def test_http_status_codes_follow_error_classes(http_served):
    _, base = http_served
    status, envelope = _http_json(base + "/v1/ping")
    assert status == 200 and envelope["result"]["version"] == PROTOCOL_VERSION

    with pytest.raises(urllib.error.HTTPError) as info:
        _http_json(base + "/v1/count", {"graph": "ghost", "delta": 1.0})
    assert info.value.code == 404
    assert json.loads(info.value.read())["error"]["code"] == "unknown_graph"

    with pytest.raises(urllib.error.HTTPError) as info:
        _http_json(base + "/v1/count", {"graph": "demo", "delta": "wat"})
    assert info.value.code == 400

    with pytest.raises(urllib.error.HTTPError) as info:
        _http_json(base + "/v1/nowhere")
    assert info.value.code == 404


def test_daemon_requires_at_least_one_transport(graph):
    service = MotifService(ServiceConfig(workers=1))
    service.add_graph("demo", graph)
    try:
        with pytest.raises(ValidationError):
            ServeDaemon(service)
    finally:
        service.close()
