"""Task construction and scheduling for HARE.

The unit of work is a *task* ``(node, i_lo, i_hi)``: run the FAST scan
for one center with first-edge indices in ``[i_lo, i_hi)`` (``None``
means "to the end").  Tasks are grouped into *batches*, the unit of
dispatch to worker processes.

The paper's HARE splits every node above ``thrd`` into intra-node
subtasks so no single thread inherits the head of the degree
distribution (the Fig. 9 imbalance this framework exists to fix).
That design assumes a task costs nothing to dispatch, as an OpenMP
task nearly does.  Here each batch is one queue message plus a call
into every kernel, and a vectorized kernel call has a fixed cost of
about a millisecond, so batches are sized for the kernels instead:
the task cover is laid out in node order — heavy nodes as runs of
consecutive pieces — and that sequence is cut into about
:data:`BATCHES_PER_WORKER` batches per worker of equal cumulative
weight.
A hub can therefore straddle batches, at the granularity its pieces
allow.

Scheduling modes mirror OpenMP's:

* **dynamic** — workers pull the next batch as they finish (batches
  are ordered heaviest-first so stragglers start early);
* **static** — batches are pre-assigned round-robin, one mega-batch
  per worker, with no runtime balancing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.graph.statistics import default_degree_threshold
from repro.graph.temporal_graph import TemporalGraph

#: (node, first-edge range lo, hi) — ``hi=None`` means the sequence end.
Task = Tuple[int, int, Optional[int]]

#: A node above ``thrd`` is split into ``workers * PIECES_PER_WORKER``
#: consecutive first-edge ranges: the granularity at which one hub can
#: be shared between batches.
PIECES_PER_WORKER = 4

#: The task cover is cut into about ``workers * BATCHES_PER_WORKER``
#: batches of roughly equal total weight.
BATCHES_PER_WORKER = 4


@dataclass
class WorkBatch:
    """A group of tasks dispatched to one worker call."""

    tasks: List[Task] = field(default_factory=list)
    #: rough cost estimate used for heaviest-first ordering
    weight: int = 0

    def add(self, task: Task, weight: int) -> None:
        self.tasks.append(task)
        self.weight += weight


def build_batches(
    graph: TemporalGraph,
    workers: int,
    thrd: Optional[float] = None,
) -> List[WorkBatch]:
    """Build HARE's hierarchical work decomposition.

    The task cover is built in node order: one whole-row task per
    light node and ``workers * PIECES_PER_WORKER`` consecutive
    first-edge pieces per heavy node.  Each task weighs its number of
    first edges.  The sequence is then cut by cumulative weight into at
    most ``workers * BATCHES_PER_WORKER`` batches, each a contiguous run of
    the cover, returned heaviest-first.  Every first edge of every
    node of degree >= 2 is covered exactly once, so the merged counts
    are exact whatever the batching.

    Parameters
    ----------
    workers:
        Worker count the decomposition should feed.
    thrd:
        Degree threshold: nodes with temporal degree strictly greater
        are split into intra-node subtasks.  ``None`` applies the
        paper's default — the minimum degree among the top-20 nodes.
        ``float("inf")`` disables intra-node parallelism entirely (the
        "without thrd" configuration of Fig. 12(b)).
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    if thrd is None:
        thrd = default_degree_threshold(graph, 20)

    # A degree-1 center can host nothing: stars/pairs need three
    # incident edges and FAST-Tri needs the (ei, ej) pair.  A degree-2
    # center still matters for triangles — the third edge lives on the
    # far pair, not on the center.
    degrees = graph.degrees()
    nodes = np.flatnonzero(degrees >= 2)
    if len(nodes) == 0:
        return []
    degree = degrees[nodes]

    # Piece length per node: the whole row for a light node, a
    # ceil(degree / pieces) slice for a heavy one.
    pieces = max(2, workers * PIECES_PER_WORKER)
    step = np.where(degree > thrd, -(-degree // pieces), degree)
    count = -(-degree // step)

    # The cover in node order, one entry per task.
    owner = np.repeat(np.arange(len(nodes)), count)
    first = np.cumsum(count) - count
    lo = (np.arange(len(owner)) - first[owner]) * step[owner]
    hi = np.minimum(lo + step[owner], degree[owner])
    weight = hi - lo

    # Cut where a task's starting weight offset enters the next slice
    # of ``target``: at most ``workers * BATCHES_PER_WORKER`` batches,
    # fewer when one task outweighs a slice.
    cumulative = np.cumsum(weight)
    target = -(-int(cumulative[-1]) // (workers * BATCHES_PER_WORKER))
    group = (cumulative - weight) // target
    cuts = np.flatnonzero(np.diff(group)) + 1
    bounds = [0] + cuts.tolist() + [len(owner)]

    node_of = nodes[owner].tolist()
    lo_of = lo.tolist()
    # hi == degree means "to the end of the row".
    hi_of = np.where(hi < degree[owner], hi, -1).tolist()
    tasks: List[Task] = [
        (n, a, None if b < 0 else b) for n, a, b in zip(node_of, lo_of, hi_of)
    ]
    batch_weight = np.add.reduceat(weight, bounds[:-1]).tolist()
    batches = [
        WorkBatch(tasks[a:b], w)
        for a, b, w in zip(bounds[:-1], bounds[1:], batch_weight)
    ]

    # Heaviest-first so dynamic scheduling starts stragglers early.
    batches.sort(key=lambda b: b.weight, reverse=True)
    return batches


def partition_static(batches: List[WorkBatch], workers: int) -> List[WorkBatch]:
    """Pre-assign batches round-robin into one mega-batch per worker.

    This is the OpenMP ``static`` schedule: no runtime balancing, so a
    worker stuck with the degree-distribution head finishes last
    (the effect Fig. 12(b) quantifies).
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    merged = [WorkBatch() for _ in range(workers)]
    for idx, batch in enumerate(batches):
        target = merged[idx % workers]
        for task in batch.tasks:
            target.add(task, 0)
        target.weight += batch.weight
    return [b for b in merged if b.tasks]
