"""HARE/FAST: scalable exact temporal motif counting.

A faithful, pure-Python reproduction of *"Scalable Motif Counting for
Large-scale Temporal Graphs"* (Gao, Cheng, Yu, Cao, Huang, Dong — ICDE
2022): the FAST-Star and FAST-Tri exact counting algorithms, the HARE
hierarchical parallel framework, and the full set of baselines and
experiments from the paper's evaluation.

Quickstart
----------
Every counting algorithm — FAST/HARE and the paper's five baselines —
is reachable through one registry-dispatched entry point:

>>> from repro import TemporalGraph, count_motifs, available_algorithms
>>> available_algorithms()
('fast', 'ex', 'bruteforce', 'bt', 'twoscent', 'bts', 'ews')
>>> g = TemporalGraph([(0, 1, 4), (0, 1, 8), (2, 0, 9)])
>>> counts = count_motifs(g, delta=10)          # FAST (exact, default)
>>> counts["M63"]
1

Sampling estimators return the same :class:`MotifCounts` shape with
uncertainty attached — replicate averaging fills a ``stderr`` grid and
per-motif confidence intervals:

>>> est = count_motifs(g, delta=10, algorithm="ews", p=1.0, n_samples=3)
>>> est.is_exact
False
>>> lo, hi = est.confidence_interval("M63")     # 95% CI

Multi-δ / multi-algorithm batches go through one call:

>>> sweep = count_motifs_sweep(g, deltas=[5, 10], algorithms=["fast", "ex"])
>>> sweep.get("ex", 10)["M63"]
1

Temporal graphs are naturally streams: the incremental engine counts
over a sliding window without ever recounting from scratch, emitting
checkpoints that are bit-identical to a batch recount of the live set:

>>> from repro import stream_motifs
>>> edges = [(0, 1, 4), (0, 1, 8), (2, 0, 9)]
>>> [cp.counts.total() for cp in stream_motifs(edges, delta=10)]
[1]

Adding an algorithm is one decorated function — see
:func:`repro.core.registry.register_algorithm` and docs/extending.md.
"""

from repro.core.api import count_motifs, count_motifs_sweep, stream_motifs, SweepResult
from repro.core.registry import (
    AlgorithmSpec,
    CountRequest,
    StreamRequest,
    available_algorithms,
    open_stream,
    register_algorithm,
    streaming_algorithms,
)
from repro.core.streaming import Checkpoint, StreamingMotifEngine
from repro.graph.stream_store import StreamingEdgeStore
from repro.graph.shared import attach_graph, publish_graph
from repro.parallel.pool import WorkerPool
from repro.core.counters import MotifCounts, PairCounter, StarCounter, TriangleCounter
from repro.core.motifs import ALL_MOTIFS, GRID, MOTIFS_BY_NAME, Motif, MotifCategory
from repro.core.patterns import HIGHER_ORDER_PATTERNS, count_higher_order
from repro.core.serialize import load_counts, save_counts
from repro.analysis import motif_significance, time_shuffled_null
from repro.graph.temporal_graph import IN, OUT, TemporalEdge, TemporalGraph
from repro.graph.edgelist import load_edgelist, save_edgelist
from repro.graph.datasets import dataset_names, load_dataset
from repro.errors import (
    DatasetError,
    GraphFormatError,
    ParallelExecutionError,
    ReproError,
    ValidationError,
)

__version__ = "1.0.0"

__all__ = [
    "count_motifs",
    "count_motifs_sweep",
    "stream_motifs",
    "SweepResult",
    "CountRequest",
    "StreamRequest",
    "Checkpoint",
    "StreamingMotifEngine",
    "StreamingEdgeStore",
    "WorkerPool",
    "publish_graph",
    "attach_graph",
    "open_stream",
    "streaming_algorithms",
    "AlgorithmSpec",
    "register_algorithm",
    "available_algorithms",
    "count_higher_order",
    "HIGHER_ORDER_PATTERNS",
    "motif_significance",
    "time_shuffled_null",
    "save_counts",
    "load_counts",
    "MotifCounts",
    "PairCounter",
    "StarCounter",
    "TriangleCounter",
    "ALL_MOTIFS",
    "GRID",
    "MOTIFS_BY_NAME",
    "Motif",
    "MotifCategory",
    "IN",
    "OUT",
    "TemporalEdge",
    "TemporalGraph",
    "load_edgelist",
    "save_edgelist",
    "dataset_names",
    "load_dataset",
    "DatasetError",
    "GraphFormatError",
    "ParallelExecutionError",
    "ReproError",
    "ValidationError",
    "__version__",
]
