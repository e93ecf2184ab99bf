"""Fixtures for the serving-layer tests: graphs and a daemon harness."""

from __future__ import annotations

import asyncio
import os
import tempfile
import threading
from contextlib import contextmanager

import pytest

from repro.graph.temporal_graph import TemporalGraph
from repro.serve import MotifService, ServeDaemon, ServiceConfig

from tests.conftest import random_edges


def service_graph(seed: int = 11, num_nodes: int = 40, num_edges: int = 500) -> TemporalGraph:
    """A deterministic mid-size graph with motifs in every category."""
    import random

    rng = random.Random(seed)
    return TemporalGraph(random_edges(rng, num_nodes, num_edges, t_max=300))


@pytest.fixture
def graph() -> TemporalGraph:
    return service_graph()


def hold_executions(svc: MotifService):
    """Make ``svc``'s executions wait; returns ``(started, release)`` events."""
    started, release = threading.Event(), threading.Event()
    run = svc._run

    def held(*args, **kwargs):
        started.set()
        assert release.wait(60), "test never released the held execution"
        return run(*args, **kwargs)

    svc._run = held
    return started, release


@contextmanager
def running_daemon(service: MotifService, *, http: bool = False):
    """Run a :class:`ServeDaemon` on a fresh unix socket in a thread.

    Yields ``(daemon, socket_path)``; tears the transports and loop
    down afterwards (the caller owns the service's lifecycle).
    """
    tmpdir = tempfile.mkdtemp(prefix="reproserve", dir="/tmp")
    socket_path = os.path.join(tmpdir, "serve.sock")
    daemon = ServeDaemon(
        service,
        socket_path=socket_path,
        http_port=0 if http else None,
    )
    ready = threading.Event()
    holder = {}

    def run_loop() -> None:
        loop = asyncio.new_event_loop()
        holder["loop"] = loop
        asyncio.set_event_loop(loop)
        loop.run_until_complete(daemon.start())
        ready.set()
        loop.run_forever()

    thread = threading.Thread(target=run_loop, daemon=True, name="serve-test-loop")
    thread.start()
    assert ready.wait(20), "daemon failed to start"
    try:
        yield daemon, socket_path
    finally:
        loop = holder["loop"]
        asyncio.run_coroutine_threadsafe(daemon.stop(), loop).result(20)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=20)
        loop.close()
        try:
            os.unlink(socket_path)
        except FileNotFoundError:
            pass
        os.rmdir(tmpdir)


@pytest.fixture
def served(graph):
    """A running daemon over a 2-worker service holding ``graph`` as "demo"."""
    service = MotifService(ServiceConfig(workers=2))
    service.add_graph("demo", graph)
    try:
        with running_daemon(service) as (daemon, socket_path):
            yield service, socket_path
    finally:
        service.close()
