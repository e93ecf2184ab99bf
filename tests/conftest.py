"""Shared fixtures and graph builders for the test suite."""

from __future__ import annotations

import random
import sys
import threading
from typing import Callable, List, Tuple

import pytest

from repro.graph.temporal_graph import TemporalGraph


def random_edges(
    rng: random.Random,
    num_nodes: int,
    num_edges: int,
    t_max: int = 20,
) -> List[Tuple[int, int, int]]:
    """Random directed edges without self-loops, heavy timestamp ties."""
    edges = []
    for _ in range(num_edges):
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        while v == u:
            v = rng.randrange(num_nodes)
        edges.append((u, v, rng.randint(0, t_max)))
    return edges


def random_graph(seed: int, num_nodes: int = 6, num_edges: int = 25, t_max: int = 20) -> TemporalGraph:
    rng = random.Random(seed)
    return TemporalGraph(random_edges(rng, num_nodes, num_edges, t_max))


@pytest.fixture
def paper_graph() -> TemporalGraph:
    """The temporal graph of the paper's Fig. 1 (5 nodes, 12 edges)."""
    return TemporalGraph(
        [
            ("a", "c", 4), ("a", "c", 8), ("d", "a", 9), ("a", "b", 11), ("a", "c", 15),
            ("e", "d", 1), ("e", "c", 6), ("d", "c", 10), ("d", "e", 14), ("c", "d", 17),
            ("e", "d", 18), ("d", "e", 21),
        ]
    )


@pytest.fixture
def tiny_pair_graph() -> TemporalGraph:
    """Two nodes exchanging four messages: pair motifs only."""
    return TemporalGraph([(0, 1, 0), (1, 0, 2), (0, 1, 4), (1, 0, 6)])


@pytest.fixture
def triangle_graph() -> TemporalGraph:
    """A single temporal cycle a->b->c->a (one M26 instance)."""
    return TemporalGraph([(0, 1, 1), (1, 2, 2), (2, 0, 3)])


def race_in_two_threads(call: Callable[[int], object], rounds: int = 6) -> List[List[object]]:
    """Run ``call(0)`` and ``call(1)`` ``rounds`` times each, in two threads.

    A tiny switch interval interleaves the threads as finely as the
    interpreter allows, so shared module state between concurrent
    calls shows up as wrong results.  Returns each thread's results.
    """
    results: List[List[object]] = [[], []]

    def run(i: int) -> None:
        for _ in range(rounds):
            results[i].append(call(i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [len(r) for r in results] == [rounds, rounds]
    return results


def python_bts_estimate(
    graph: TemporalGraph, delta: float, *, q: float, seed: int, window_factor: float = 5.0
):
    """One BTS draw built from the python reference (``_block_grid``).

    Same blocks and the same canonical reduction as
    :func:`~repro.baselines.sampling_bts.bts_count`, so a fixed seed
    must give the kernel's estimate bit for bit.
    """
    from repro.baselines.sampling_bts import _block_grid, _reduce_block_grids, _sample_blocks
    from repro.core.motifs import ALL_MOTIFS

    W = window_factor * max(delta, 1)
    blocks = _sample_blocks(graph, W, q, seed) if graph.num_edges else []
    return _reduce_block_grids(
        [(i, _block_grid(graph, delta, ALL_MOTIFS, block, W, q)) for i, block in enumerate(blocks)]
    )


def python_ews_estimate(graph: TemporalGraph, delta: float, *, p: float, q: float, seed: int):
    """One EWS draw built from the python reference (``_ews_python_counts``)."""
    import numpy as np

    from repro.baselines.sampling_ews import _ews_python_counts
    from repro.core.sampling_kernels import ews_grid

    tallies = _ews_python_counts(graph, delta, p, q, np.random.default_rng(seed))
    return ews_grid(*tallies, p, q)


def python_fast_counts(graph: TemporalGraph, delta: float):
    """The exact grid from the paper's Algorithms 1 and 2 as python loops.

    The reference the columnar FAST kernels (what ``algorithm="fast"``
    runs on every route) are tested against.
    """
    from repro.core.counters import MotifCounts
    from repro.core.fast_star import count_star_pair
    from repro.core.fast_tri import count_triangle

    star, pair = count_star_pair(graph, delta)
    return MotifCounts.from_counters(star, pair, count_triangle(graph, delta))
