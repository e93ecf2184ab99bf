"""Distributed counts must be bit-identical to the serial shard union.

The acceptance gate of the distributed runtime: for all five exact
algorithms, across random cut points and against the python loops, a
cluster of in-process worker daemons must reproduce the serial
:class:`~repro.storage.sharded.ShardedGraph` counts (themselves proven
identical to whole-graph counts) byte for byte — through both
placement paths (held packed file / shipped edge columns).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.api import count_motifs
from repro.distributed import ClusterExecutor, WorkerDaemon
from repro.errors import ValidationError, WorkerUnavailableError
from repro.graph.temporal_graph import TemporalGraph
from repro.serve.protocol import canonical_counts_bytes
from repro.storage import pack_graph

from tests.conftest import python_fast_counts, random_edges

EXACT_ALGORITHMS = ("fast", "ex", "bruteforce", "bt", "twoscent")


def make_graph(seed: int = 11, num_nodes: int = 40, num_edges: int = 500) -> TemporalGraph:
    rng = random.Random(seed)
    return TemporalGraph(random_edges(rng, num_nodes, num_edges, t_max=200))


@pytest.fixture(scope="module")
def cluster():
    """Two in-process worker daemons, shared by the module's tests."""
    with WorkerDaemon() as d1, WorkerDaemon() as d2:
        yield f"{d1.start()},{d2.start()}"


@pytest.fixture(scope="module")
def packed(tmp_path_factory):
    graph = make_graph()
    path = str(tmp_path_factory.mktemp("dist") / "g.rgz")
    pack_graph(graph, path)
    return graph, path


def random_boundaries(rng: random.Random, num_edges: int, k: int) -> tuple:
    return tuple(sorted(rng.sample(range(1, num_edges), k)))


@pytest.mark.parametrize("algorithm", EXACT_ALGORITHMS)
def test_all_exact_algorithms_bit_identical_over_random_cuts(
    cluster, packed, algorithm
):
    graph, path = packed
    rng = random.Random(hash(algorithm) & 0xFFFF)
    for trial in range(2):
        boundaries = random_boundaries(rng, graph.num_edges, rng.randint(1, 6))
        serial = count_motifs(
            graph, 40.0, algorithm=algorithm, shard_boundaries=boundaries
        )
        dist = count_motifs(
            path, 40.0, algorithm=algorithm,
            cluster=cluster, shard_boundaries=boundaries,
        )
        assert np.array_equal(serial.grid, dist.grid), (
            f"{algorithm} diverged at boundaries {boundaries}"
        )
        assert canonical_counts_bytes(serial) == canonical_counts_bytes(dist)
        assert dist.meta["sharding"] == "halo-union"
        assert dist.meta["cluster"]["bytes_shipped"] == 0  # held by both


@pytest.mark.parametrize("reference", ("python", "columnar"))
def test_backends_identical_through_the_cluster(cluster, packed, reference):
    """The cluster's count equals the python loops and the serial count."""
    graph, path = packed
    if reference == "python":
        whole = python_fast_counts(graph, 60.0)
    else:
        whole = count_motifs(graph, 60.0, algorithm="fast")
    dist = count_motifs(path, 60.0, algorithm="fast", cluster=cluster, num_shards=5)
    assert np.array_equal(whole.grid, dist.grid)


def test_in_memory_graph_ships_edges(cluster):
    graph = make_graph(seed=23, num_edges=400)
    serial = count_motifs(graph, 30.0, algorithm="fast")
    dist = count_motifs(graph, 30.0, algorithm="fast", cluster=cluster, num_shards=4)
    assert np.array_equal(serial.grid, dist.grid)
    meta = dist.meta["cluster"]
    assert meta["local_workers"] == []  # nothing on disk to hold
    assert meta["bytes_shipped"] > 0


def test_default_plan_is_four_shards_per_worker(cluster, packed):
    graph, path = packed
    dist = count_motifs(path, 25.0, algorithm="fast", cluster=cluster)
    assert dist.meta["shards"] == 8  # 4 × 2 workers
    assert np.array_equal(
        dist.grid, count_motifs(graph, 25.0, algorithm="fast").grid
    )


def test_exactly_once_accounting_sums_each_unit_once(cluster, packed):
    """One recorded result per unit, retries visible, counts exact."""
    graph, path = packed
    dist = count_motifs(path, 40.0, algorithm="fast", cluster=cluster, num_shards=6)
    meta = dist.meta["cluster"]
    jobs = sum(meta["jobs"].values())
    units = dist.meta["slice_runs"]
    # shard_seconds records exactly the units whose result was recorded.
    assert len(meta["shard_seconds"]) == units
    # One copy of a unit runs at a time: every job beyond the first per
    # unit is a retry of a lost one — nothing double-counts.
    assert jobs == units + meta["retries"]
    assert meta["speculative"] == 0
    assert np.array_equal(
        dist.grid, count_motifs(graph, 40.0, algorithm="fast").grid
    )


def test_serial_and_cluster_report_the_same_shard_meta(cluster, packed):
    """Both executors share one plan and one reducer: same six meta keys."""
    graph, path = packed
    boundaries = (60, 170, 333, 410)
    serial = count_motifs(graph, 40.0, algorithm="fast", shard_boundaries=boundaries)
    dist = count_motifs(
        path, 40.0, algorithm="fast", cluster=cluster, shard_boundaries=boundaries
    )
    keys = ("sharding", "shards", "slice_runs", "halo_edges",
            "max_slice_edges", "shard_budget")
    assert {k: serial.meta[k] for k in keys} == {k: dist.meta[k] for k in keys}
    assert serial.meta["shards"] == 5


def test_sampling_estimators_pass_through_locally(cluster, packed):
    graph, path = packed
    local = count_motifs(graph, 40.0, algorithm="bts", seed=7, n_samples=2)
    via_cluster = count_motifs(
        graph, 40.0, algorithm="bts", seed=7, n_samples=2, cluster=cluster
    )
    assert np.array_equal(local.grid, via_cluster.grid)
    assert "passthrough" in via_cluster.meta["cluster"]


def test_unreachable_cluster_raises_worker_unavailable(packed):
    graph, path = packed
    with pytest.raises(WorkerUnavailableError):
        count_motifs(path, 20.0, algorithm="fast",
                     cluster="127.0.0.1:1", num_shards=2)


def test_cluster_rejects_sharding_conflicts(cluster, packed):
    _, path = packed
    with pytest.raises(ValidationError):
        count_motifs(path, 20.0, algorithm="fast", cluster=cluster,
                     num_shards=3, shard_budget=100)


def test_executor_stats_reports_each_worker(cluster):
    stats = ClusterExecutor(cluster).stats()
    assert len(stats) == 2
    for payload in stats.values():
        assert "slices_served" in payload
