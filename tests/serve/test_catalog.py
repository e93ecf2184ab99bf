"""Graph catalog tests: leases, graceful reload, segment reaping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import count_motifs
from repro.errors import UnknownGraphError, ValidationError
from repro.graph.shared import live_segments
from repro.graph.stream_store import StreamingEdgeStore
from repro.parallel.pool import WorkerPool
from repro.serve import GraphCatalog, MotifService, ServiceConfig
from repro.serve.protocol import canonical_counts_bytes

from tests.serve.conftest import service_graph


def fill_store(store: StreamingEdgeStore, n: int, *, t0: int = 0, seed: int = 1):
    import random

    rng = random.Random(seed)
    for i in range(n):
        u = rng.randrange(30)
        v = rng.randrange(30)
        if u == v:
            v = (v + 1) % 30
        store.append(u, v, t0 + i)


# ---------------------------------------------------------------------------
# bookkeeping (no pool)
# ---------------------------------------------------------------------------

def test_add_lease_remove_static_graph():
    catalog = GraphCatalog()
    graph = service_graph()
    catalog.add("g", graph)
    assert "g" in catalog and catalog.names() == ["g"]
    with catalog.lease("g") as lease:
        assert lease.graph is graph
    catalog.remove("g")
    assert "g" not in catalog
    with pytest.raises(UnknownGraphError):
        catalog.lease("g")
    with pytest.raises(UnknownGraphError):
        catalog.remove("g")


def test_add_rejects_duplicates_and_bad_sources():
    catalog = GraphCatalog()
    catalog.add("g", service_graph())
    with pytest.raises(ValidationError):
        catalog.add("g", service_graph())
    with pytest.raises(ValidationError):
        catalog.add("bad", object())
    with pytest.raises(ValidationError):
        catalog.add("", service_graph())


def test_lease_release_is_idempotent():
    catalog = GraphCatalog()
    catalog.add("g", service_graph())
    lease = catalog.lease("g")
    lease.release()
    lease.release()


def test_live_source_reload_old_lease_keeps_old_snapshot():
    store = StreamingEdgeStore()
    fill_store(store, 200)
    catalog = GraphCatalog()
    catalog.add("s", store)

    old = catalog.lease("s")
    old_version = old.version
    old_edges = old.graph.num_edges

    fill_store(store, 100, t0=500, seed=2)  # version advances
    new = catalog.lease("s")
    assert new.version != old_version
    assert new.graph.num_edges == old_edges + 100
    # The old lease still sees its snapshot, untouched.
    assert old.graph.num_edges == old_edges
    # Same-version leases share one generation (no re-snapshot).
    again = catalog.lease("s")
    assert again.graph is new.graph
    for lease in (old, new, again):
        lease.release()
    assert catalog.stats["reloads"] == 1


def test_streaming_engine_source_unwraps_to_its_store():
    from repro.core.registry import StreamRequest, open_stream

    engine = open_stream(StreamRequest(delta=10.0))
    engine.ingest([(0, 1, 0.0), (1, 2, 1.0), (2, 0, 2.0)])
    catalog = GraphCatalog()
    catalog.add("live", engine)
    with catalog.lease("live") as lease:
        assert lease.graph.num_edges == 3
    engine.ingest([(0, 2, 3.0)])
    with catalog.lease("live") as lease:
        assert lease.graph.num_edges == 4


# ---------------------------------------------------------------------------
# segment lifecycle against a real pool
# ---------------------------------------------------------------------------

def test_reload_reaps_old_generation_segments():
    store = StreamingEdgeStore()
    fill_store(store, 300)
    with WorkerPool(2) as pool:
        catalog = GraphCatalog(pool)
        catalog.add("s", store)

        old = catalog.lease("s")
        # Execute on the old snapshot so the pool publishes it.
        batches = pool.plan_batches(old.graph)
        pool.run_batches(old.graph, 20.0, batches)
        segments_old = set(live_segments())
        assert segments_old, "expected the old snapshot to be published"

        fill_store(store, 100, t0=900, seed=3)
        new = catalog.lease("s")
        pool.run_batches(new.graph, 20.0, pool.plan_batches(new.graph))
        # Old generation still leased: its segments must survive.
        assert set(live_segments()) >= segments_old
        reaped_before = catalog.stats["generations_reaped"]

        old.release()
        assert catalog.stats["generations_reaped"] == reaped_before + 1
        assert not (set(live_segments()) & segments_old)
        # The new generation keeps serving.
        star, _, _ = pool.run_batches(new.graph, 20.0, pool.plan_batches(new.graph))
        new.release()
        catalog.close()


def test_service_level_reload_semantics():
    store = StreamingEdgeStore()
    fill_store(store, 250)
    svc = MotifService(ServiceConfig(workers=2))
    svc.add_graph("live", store)
    try:
        fields = {
            "graph": "live", "delta": 30.0, "algorithm": "fast",
            "categories": "all", "backend": "auto", "seed": None,
            "n_samples": None, "params": {}, "tenant": "default",
            "timeout": 30.0, "id": None,
        }
        before = svc.submit(dict(fields)).result(60)
        direct_before = count_motifs(store.live_graph(), 30.0, algorithm="fast")
        assert canonical_counts_bytes(before) == canonical_counts_bytes(direct_before)

        fill_store(store, 150, t0=600, seed=4)
        after = svc.submit(dict(fields)).result(60)
        direct_after = count_motifs(store.live_graph(), 30.0, algorithm="fast")
        assert canonical_counts_bytes(after) == canonical_counts_bytes(direct_after)
        # The stream grew, so the answer must have changed.
        assert not np.array_equal(before.grid, after.grid)
        assert svc.catalog.stats["reloads"] == 1
        assert svc.catalog.stats["generations_reaped"] >= 1
    finally:
        svc.close()


def test_catalog_close_reaps_pinned_static_graphs():
    graph = service_graph(seed=21)
    with WorkerPool(1) as pool:
        catalog = GraphCatalog(pool)
        catalog.add("g", graph)
        pool.publish(graph)
        assert live_segments()
        catalog.close()
        assert not live_segments()
