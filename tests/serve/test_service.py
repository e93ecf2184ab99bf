"""MotifService admission/dispatch tests: coalescing, quotas, deadlines."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.api import count_motifs
from repro.errors import (
    BackpressureError,
    DeadlineExceededError,
    QuotaExceededError,
    ReproError,
    UnknownGraphError,
    ValidationError,
)
from repro.graph.stream_store import StreamingEdgeStore
from repro.serve import MotifService, ServiceConfig
from repro.serve.protocol import canonical_counts_bytes

from tests.serve.conftest import hold_executions, service_graph
from tests.serve.test_catalog import fill_store


def count_fields(graph="demo", delta=40.0, **overrides):
    fields = {
        "graph": graph, "delta": float(delta), "algorithm": "fast",
        "categories": "all", "seed": None,
        "n_samples": None, "params": {}, "tenant": "default",
        "timeout": 30.0, "id": None,
    }
    fields.update(overrides)
    return fields


@pytest.fixture
def service(graph):
    svc = MotifService(ServiceConfig(workers=2))
    svc.add_graph("demo", graph)
    try:
        yield svc
    finally:
        svc.close()


def test_served_counts_match_direct_call(service, graph):
    served = service.submit(count_fields(delta=40.0)).result(60)
    direct = count_motifs(graph, 40.0, algorithm="fast")
    assert canonical_counts_bytes(served) == canonical_counts_bytes(direct)


def test_unknown_graph_is_synchronous_and_typed(service):
    with pytest.raises(UnknownGraphError):
        service.submit(count_fields(graph="missing"))


def test_bad_algorithm_surfaces_as_validation_error(service):
    future = service.submit(count_fields(algorithm="not-an-algorithm"))
    with pytest.raises(ValidationError):
        future.result(60)


def test_duplicate_inflight_requests_coalesce_to_one_execution(graph):
    # A held execution keeps the first request in flight while
    # identical requests pile up; all must resolve from a single pool
    # execution.
    svc = MotifService(ServiceConfig(workers=2))
    svc.add_graph("demo", graph)
    try:
        started, release = hold_executions(svc)
        try:
            futures = [svc.submit(count_fields(delta=35.0)) for _ in range(6)]
            assert started.wait(60)
        finally:
            release.set()
        results = [f.result(60) for f in futures]
        grids = [r.grid for r in results]
        for grid in grids[1:]:
            assert np.array_equal(grid, grids[0])
        assert svc.stats["executions"] == 1
        assert svc.stats["coalesced"] == 5
        assert svc.stats["answered"] == 6
    finally:
        svc.close()


def test_distinct_deltas_run_as_separate_executions(graph):
    svc = MotifService(ServiceConfig(workers=2))
    svc.add_graph("demo", graph)
    try:
        started, release = hold_executions(svc)
        held_run, order = svc._run, []

        def recording(pending, *args):
            order.append(pending.fields["delta"])
            return held_run(pending, *args)

        svc._run = recording
        deltas = [20.0, 40.0, 60.0]
        try:
            futures = [svc.submit(count_fields(delta=d)) for d in deltas]
            assert started.wait(60)
        finally:
            release.set()
        results = {d: f.result(60) for d, f in zip(deltas, futures)}
        # One execution per δ, in arrival order, answers exact.
        assert order == deltas
        assert svc.stats["executions"] == 3
        assert svc.stats["batched_deltas"] == svc.stats["executions"]
        for d in deltas:
            direct = count_motifs(graph, d, algorithm="fast")
            assert canonical_counts_bytes(results[d]) == canonical_counts_bytes(direct)
    finally:
        svc.close()


def test_tenant_quota_rejects_excess_in_flight(graph):
    svc = MotifService(ServiceConfig(workers=1, tenant_quota=2))
    svc.add_graph("demo", graph)
    try:
        started, release = hold_executions(svc)
        try:
            held = [
                svc.submit(count_fields(delta=d, tenant="alice"))
                for d in (10.0, 20.0)
            ]
            with pytest.raises(QuotaExceededError):
                svc.submit(count_fields(delta=30.0, tenant="alice"))
            # Another tenant is unaffected: quotas are per tenant.
            other = svc.submit(count_fields(delta=30.0, tenant="bob"))
        finally:
            release.set()
        for future in held + [other]:
            future.result(60)
        assert svc.stats["rejected_quota"] == 1
        # Quota slots were returned on completion.
        svc.submit(count_fields(delta=40.0, tenant="alice")).result(60)
    finally:
        svc.close()


def test_backpressure_bounds_pending_groups(graph):
    svc = MotifService(ServiceConfig(workers=1, max_pending=2))
    svc.add_graph("demo", graph)
    try:
        started, release = hold_executions(svc)
        try:
            held = [svc.submit(count_fields(delta=d)) for d in (10.0, 20.0)]
            with pytest.raises(BackpressureError):
                svc.submit(count_fields(delta=30.0))
            # Identical to an in-flight request: coalesces, never rejected.
            dup = svc.submit(count_fields(delta=10.0))
        finally:
            release.set()
        for future in held + [dup]:
            future.result(60)
        assert svc.stats["rejected_backpressure"] == 1
        assert svc.stats["coalesced"] == 1
    finally:
        svc.close()


def test_deadline_expires_while_queued(graph):
    svc = MotifService(ServiceConfig(workers=1))
    svc.add_graph("demo", graph)
    try:
        started, release = hold_executions(svc)
        try:
            # A held count keeps the dispatcher busy past the deadline.
            blocker = svc.submit(count_fields(delta=50.0))
            assert started.wait(60)
            future = svc.submit(count_fields(delta=25.0, timeout=0.01))
            time.sleep(0.05)
        finally:
            release.set()
        with pytest.raises(DeadlineExceededError):
            future.result(60)
        assert svc.stats["deadline_misses"] >= 1
        blocker.result(60)
        # The service stays healthy for later requests.
        ok = svc.submit(count_fields(delta=25.0, timeout=30.0))
        assert ok.result(60).total() >= 0
    finally:
        svc.close()


def test_default_timeout_applies_when_request_has_none(graph):
    svc = MotifService(ServiceConfig(workers=1, default_timeout=0.01))
    svc.add_graph("demo", graph)
    try:
        started, release = hold_executions(svc)
        try:
            # The blocker carries its own 30 s timeout.
            blocker = svc.submit(count_fields(delta=50.0))
            assert started.wait(60)
            future = svc.submit(count_fields(delta=25.0, timeout=None))
            time.sleep(0.05)
        finally:
            release.set()
        with pytest.raises(DeadlineExceededError):
            future.result(60)
        blocker.result(60)
    finally:
        svc.close()


def test_concurrent_submissions_from_many_threads(service, graph):
    deltas = [10.0, 20.0, 30.0, 40.0]
    direct = {
        d: canonical_counts_bytes(count_motifs(graph, d, algorithm="fast"))
        for d in deltas
    }
    errors = []
    matches = []

    def worker(idx: int) -> None:
        try:
            d = deltas[idx % len(deltas)]
            counts = service.submit(
                count_fields(delta=d, tenant=f"t{idx % 3}")
            ).result(60)
            matches.append(canonical_counts_bytes(counts) == direct[d])
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(12)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors
    assert len(matches) == 12 and all(matches)


def test_repeated_requests_are_answered_at_admission(service):
    # A repeat of settled work never reaches the dispatcher or the pool.
    service.submit(count_fields(delta=33.0)).result(60)
    executions = service.stats["executions"]
    pool_hits = service.pool.stats["cache_hits"]
    service.submit(count_fields(delta=33.0)).result(60)
    assert service.stats["executions"] == executions
    assert service.stats["answer_hits"] == 1
    assert service.pool.stats["cache_hits"] == pool_hits


def test_submit_after_close_raises(graph):
    svc = MotifService(ServiceConfig(workers=1))
    svc.add_graph("demo", graph)
    svc.close()
    with pytest.raises(ReproError):
        svc.submit(count_fields())
    svc.close()  # idempotent


def test_describe_stats_merges_pool_and_catalog(service):
    service.submit(count_fields(delta=12.0)).result(60)
    stats = service.describe_stats()
    assert stats["answered"] >= 1
    assert "jobs" in stats["pool"]
    assert "generations_reaped" in stats["catalog"]
    assert stats["pool_workers"] == 2


# ---------------------------------------------------------------------------
# the answer table: repeats of settled deterministic work
# ---------------------------------------------------------------------------

def direct_bytes(graph, delta):
    return canonical_counts_bytes(count_motifs(graph, delta, algorithm="fast"))


def test_repeat_resolves_while_a_count_holds_the_dispatcher(service, graph):
    service.submit(count_fields(delta=33.0)).result(60)
    started, release = hold_executions(service)
    try:
        running = service.submit(count_fields(delta=50.0))
        assert started.wait(60)
        repeat = service.submit(count_fields(delta=33.0))
        assert repeat.done() and not running.done()
        assert canonical_counts_bytes(repeat.result()) == direct_bytes(graph, 33.0)
    finally:
        release.set()
    assert canonical_counts_bytes(running.result(60)) == direct_bytes(graph, 50.0)


def test_repeat_takes_no_quota(graph):
    svc = MotifService(ServiceConfig(workers=1, tenant_quota=1))
    svc.add_graph("demo", graph)
    try:
        svc.submit(count_fields(delta=33.0, tenant="alice")).result(60)
        started, release = hold_executions(svc)
        try:
            running = svc.submit(count_fields(delta=50.0, tenant="alice"))
            assert started.wait(60)
            # alice's one slot is taken, yet her repeat is answered.
            svc.submit(count_fields(delta=33.0, tenant="alice")).result(0)
            with pytest.raises(QuotaExceededError):
                svc.submit(count_fields(delta=51.0, tenant="alice"))
        finally:
            release.set()
        running.result(60)
    finally:
        svc.close()


@pytest.mark.parametrize("seed, hits", [(None, 0), (7, 1)])
def test_sampler_repeats_are_answered_only_with_a_seed(service, seed, hits):
    fields = count_fields(delta=40.0, algorithm="bts", seed=seed)
    first = service.submit(dict(fields)).result(60)
    second = service.submit(dict(fields)).result(60)
    assert service.stats["answer_hits"] == hits
    assert service.stats["executions"] == 2 - hits
    if seed is not None:
        assert canonical_counts_bytes(second) == canonical_counts_bytes(first)


def test_live_source_version_bump_misses_the_table():
    store = StreamingEdgeStore()
    fill_store(store, 250)
    svc = MotifService(ServiceConfig(workers=2))
    svc.add_graph("live", store)
    try:
        svc.submit(count_fields(graph="live", delta=30.0)).result(60)
        svc.submit(count_fields(graph="live", delta=30.0)).result(60)
        assert svc.stats["answer_hits"] == 1
        fill_store(store, 150, t0=600, seed=4)
        after = svc.submit(count_fields(graph="live", delta=30.0)).result(60)
        assert svc.stats["answer_hits"] == 1
        assert svc.stats["executions"] == 2
        assert canonical_counts_bytes(after) == direct_bytes(store.live_graph(), 30.0)
    finally:
        svc.close()


def test_mutating_an_answer_does_not_change_the_next_hit(service, graph):
    expected = direct_bytes(graph, 33.0)
    for _ in range(3):
        counts = service.submit(count_fields(delta=33.0)).result(60)
        assert canonical_counts_bytes(counts) == expected
        assert "scribble" not in counts.meta
        counts.grid[0, 0] += 1_000
        counts.meta["scribble"] = True
    assert service.stats["answer_hits"] == 2


def test_readded_name_never_joins_the_old_graphs_request(graph):
    other = service_graph(seed=12)
    svc = MotifService(ServiceConfig(workers=2))
    svc.add_graph("demo", graph)
    try:
        started, release = hold_executions(svc)
        try:
            old = svc.submit(count_fields(delta=40.0))
            assert started.wait(60)
            svc.catalog.remove("demo")
            svc.add_graph("demo", other)
            new = svc.submit(count_fields(delta=40.0))
        finally:
            release.set()
        assert canonical_counts_bytes(old.result(60)) == direct_bytes(graph, 40.0)
        assert canonical_counts_bytes(new.result(60)) == direct_bytes(other, 40.0)
        assert svc.stats["coalesced"] == 0
    finally:
        svc.close()


def test_readded_name_never_gets_a_stored_answer(graph):
    other = service_graph(seed=12)
    svc = MotifService(ServiceConfig(workers=2))
    svc.add_graph("demo", graph)
    try:
        svc.submit(count_fields(delta=40.0)).result(60)
        svc.catalog.remove("demo")
        svc.add_graph("demo", other)
        new = svc.submit(count_fields(delta=40.0)).result(60)
        assert canonical_counts_bytes(new) == direct_bytes(other, 40.0)
        assert svc.stats["answer_hits"] == 0
    finally:
        svc.close()


def test_answer_table_under_thread_stress(service, graph):
    """Every request is answered exactly once, by exactly one route."""
    deltas = [10.0, 20.0, 30.0]
    direct = {d: direct_bytes(graph, d) for d in deltas}
    wrong: list = []

    def client(idx: int) -> None:
        for step in range(15):
            d = deltas[(idx + step) % len(deltas)]
            counts = service.submit(count_fields(delta=d, tenant=f"t{idx}")).result(60)
            if canonical_counts_bytes(counts) != direct[d]:
                wrong.append(d)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong
    stats = service.stats
    assert stats["requests"] == stats["answered"] == 75
    routes = stats["answer_hits"] + stats["coalesced"] + stats["batched_deltas"]
    assert routes == stats["requests"]
    # A thread's first request for a δ may run or coalesce; every later
    # one finds the answer its own earlier request settled.
    assert stats["answer_hits"] >= 75 - 5 * len(deltas)
