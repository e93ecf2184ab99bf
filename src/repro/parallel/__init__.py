"""HARE — the hierarchical parallel framework (§IV-C of the paper).

FAST's per-center decomposition has no data dependency across centers
(inter-node parallelism) and none across a center's first-edge indices
(intra-node parallelism).  HARE exploits both: nodes whose degree
exceeds the threshold ``thrd`` are split into first-edge-range
subtasks, everything else is batched whole, and batches are scheduled
dynamically across a process pool (the OpenMP ``dynamic`` schedule
analogue) with per-batch counters summed in batch order at the end
(the ``reduction`` analogue).
"""

from repro.parallel.scheduler import WorkBatch, build_batches, partition_static
from repro.parallel.executor import resolve_start_method, run_batches
from repro.parallel.hare import hare_count
from repro.parallel.pool import (
    WorkerPool,
    close_all_pools,
    close_shared_pools,
    install_signal_handlers,
    shared_pool,
)

__all__ = [
    "WorkBatch",
    "WorkerPool",
    "build_batches",
    "close_all_pools",
    "close_shared_pools",
    "install_signal_handlers",
    "partition_static",
    "resolve_start_method",
    "run_batches",
    "shared_pool",
    "hare_count",
]
