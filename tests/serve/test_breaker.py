"""Serving-layer degradation: circuit breaker, fallback, reconnect.

A catalog graph bound to a dead cluster must degrade gracefully: the
request is answered by local sharded counting (bit-identical — the
repo-wide invariant), the graph's circuit breaker opens after the
configured number of consecutive failures so later requests skip the
dead cluster entirely, and with fallback disabled the caller gets a
typed :class:`~repro.errors.ClusterDegradedError` carrying a
retry-after hint — across the wire protocol too.  Separately, the
blocking :class:`ServeClient` must survive a daemon restart by
reconnecting and resending.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import threading

import numpy as np
import pytest

from repro.core.api import count_motifs
from repro.distributed import WorkerDaemon
from repro.distributed import health as _health
from repro.distributed.health import RetryPolicy
from repro.errors import ClusterDegradedError, ReproError
from repro.serve import MotifService, ServiceConfig
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    canonical_counts_bytes,
    error_response,
    ok_response,
    raise_from_response,
)

from tests.serve.test_service import count_fields

#: host:port nothing listens on (port 1 is root-only and unused).
DEAD_CLUSTER = "127.0.0.1:1"


@pytest.fixture
def fast_policy(monkeypatch):
    """Make dead-cluster connects fail in milliseconds, not minutes."""
    policy = RetryPolicy(connect_timeout=0.3, op_timeout=5.0, max_attempts=1,
                         backoff_base=0.01, backoff_max=0.02)
    monkeypatch.setattr(_health, "DEFAULT_RETRY_POLICY", policy)
    return policy


def cluster_service(graph, **config_overrides):
    kwargs = dict(workers=2, breaker_threshold=2, breaker_reset=0.25)
    kwargs.update(config_overrides)
    svc = MotifService(ServiceConfig(**kwargs))
    svc.add_graph("demo", graph, cluster=DEAD_CLUSTER)
    return svc


def test_dead_cluster_falls_back_to_identical_local_counts(graph, fast_policy):
    direct = count_motifs(graph, 40.0, algorithm="fast")
    svc = cluster_service(graph)
    try:
        counts = svc.submit(count_fields(delta=40.0)).result(60)
        assert np.array_equal(counts.grid, direct.grid), (
            "degraded local counts diverged from direct counting"
        )
        meta = counts.meta["cluster"]
        assert meta["degraded"] is True
        assert meta["breaker_state"] in ("closed", "open")
        stats = svc.describe_stats()
        assert stats["cluster_failures"] >= 1
        assert stats["cluster_fallbacks"] >= 1
        assert stats["breakers"]["demo"]["state"] in ("closed", "open")
    finally:
        svc.close()


def test_live_cluster_serves_identical_counts(graph):
    with WorkerDaemon() as worker:
        svc = MotifService(ServiceConfig(workers=2))
        svc.add_graph("demo", graph, cluster=worker.start())
        try:
            for delta in (30.0, 45.0):
                counts = svc.submit(count_fields(delta=delta)).result(60)
                direct = count_motifs(graph, delta, algorithm="fast")
                assert canonical_counts_bytes(counts) == canonical_counts_bytes(direct)
                assert counts.meta["cluster"]["breaker_state"] == "closed"
            stats = svc.describe_stats()
            assert stats["executions"] == stats["batched_deltas"] == 2
            assert stats["cluster_failures"] == stats["cluster_fallbacks"] == 0
        finally:
            svc.close()


def test_breaker_opens_and_short_circuits_the_dead_cluster(graph, fast_policy):
    svc = cluster_service(graph)
    try:
        # threshold=2: two failed cluster attempts open the breaker.
        svc.submit(count_fields(delta=40.0)).result(60)
        svc.submit(count_fields(delta=41.0)).result(60)
        stats = svc.describe_stats()
        assert stats["cluster_failures"] == 2
        assert stats["breakers"]["demo"]["state"] == "open"
        assert stats["breakers"]["demo"]["retry_after_seconds"] > 0

        # Open breaker: the next request never touches the cluster —
        # it degrades immediately (failures stay put, fallbacks grow).
        counts = svc.submit(count_fields(delta=42.0)).result(60)
        assert counts.meta["cluster"]["degraded"] is True
        stats = svc.describe_stats()
        assert stats["cluster_failures"] == 2
        assert stats["cluster_fallbacks"] == 3
    finally:
        svc.close()


def test_fallback_disabled_raises_typed_with_retry_after(graph, fast_policy):
    svc = cluster_service(graph, cluster_fallback=False)
    try:
        with pytest.raises(ClusterDegradedError) as info:
            svc.submit(count_fields(delta=40.0)).result(60)
        assert "demo" in str(info.value)
        assert info.value.retry_after >= 0.0
        assert svc.describe_stats()["cluster_degraded"] >= 1
    finally:
        svc.close()


def test_cluster_degraded_round_trips_the_wire_protocol():
    error = ClusterDegradedError("cluster for graph 'g' is unavailable",
                                 retry_after=3.5)
    envelope = error_response(error, request_id="r1")
    assert envelope["error"]["code"] == "cluster_degraded"
    assert envelope["error"]["status"] == 503
    assert envelope["error"]["retry_after"] == 3.5
    with pytest.raises(ClusterDegradedError) as info:
        raise_from_response(envelope)
    assert info.value.retry_after == 3.5


# ----------------------------------------------------------------------
# ServeClient reconnect-with-backoff
# ----------------------------------------------------------------------

class OneShotServer:
    """A unix-socket server that answers one request per connection,
    then slams the connection shut — every follow-up request on a
    persistent client needs a reconnect, like a restarted daemon."""

    def __init__(self):
        self.tmpdir = tempfile.mkdtemp(prefix="reproserve-reconnect")
        self.socket_path = os.path.join(self.tmpdir, "serve.sock")
        self.requests = 0
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self.socket_path)
        self._listener.listen(8)
        self._listener.settimeout(0.2)
        self._stopping = False
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while True:
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                if self._stopping:
                    return
                continue
            except OSError:
                return
            try:
                line = conn.makefile("rb").readline()
                if line:
                    self.requests += 1
                    reply = ok_response({"pong": True, "n": self.requests})
                    conn.sendall(json.dumps(reply).encode() + b"\n")
            except OSError:
                pass
            finally:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                conn.close()

    def stop(self):
        self._stopping = True
        self._thread.join(timeout=5)
        self._listener.close()
        if os.path.exists(self.socket_path):
            os.remove(self.socket_path)
        os.rmdir(self.tmpdir)


def test_client_reconnects_transparently_after_server_drop():
    server = OneShotServer()
    try:
        client = ServeClient(server.socket_path, timeout=5.0)
        try:
            assert client.ping()["n"] == 1
            assert client.reconnects == 0
            # The server dropped the connection after the first reply;
            # the next request must reconnect and resend, invisibly.
            assert client.ping()["n"] == 2
            assert client.reconnects == 1
            assert client.ping()["n"] == 3
            assert client.reconnects == 2
        finally:
            client.close()
    finally:
        server.stop()


def test_client_fails_fast_when_server_never_comes_back():
    server = OneShotServer()
    path = server.socket_path
    client = ServeClient(path, timeout=5.0,
                         reconnect_policy=RetryPolicy(
                             connect_timeout=0.3, max_attempts=2,
                             backoff_base=0.01, backoff_max=0.02, jitter=0.0))
    try:
        assert client.ping()["n"] == 1
        server.stop()  # daemon gone for good, socket path removed
        with pytest.raises(ReproError) as info:
            client.ping()
        assert path in str(info.value)
    finally:
        client.close()


def test_initial_connect_still_fails_fast(tmp_path):
    missing = str(tmp_path / "no-daemon.sock")
    with pytest.raises(ReproError) as info:
        ServeClient(missing)
    assert missing in str(info.value)
