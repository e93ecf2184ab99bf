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


#: δs of :func:`mixed_rule_graph`: below every span but the tied
#: triangle's, below the light spans, between the light spans and the
#: hub span (both FAST-Tri routes run), and above every span.
MIXED_RULE_DELTAS = (0, 3, 12, 400)


def mixed_rule_graph() -> TemporalGraph:
    """One hub triangle with a long-span pair beside light session triangles.

    Hub pair ``{0, 1}`` carries an edge every 25 s over 300 s, so its
    triangle ``{0, 1, 2}`` spans far more than any light triangle.
    Six light triangles each span 8 s, with tied timestamps, both
    directions and a multi-edge; three of them share hub vertex 0, so
    its CSR row mixes merged and wedge-path triangles.  One more
    triangle has all its edges at one timestamp (span 0).
    """
    edges = [(0, 1, t) if t % 50 else (1, 0, t) for t in range(0, 301, 25)]
    edges += [(0, 2, 100), (2, 0, 103), (1, 2, 101), (2, 1, 101)]
    for k in range(6):
        p, q, t = 3 + 3 * k, 4 + 3 * k, 20 + 40 * k
        a = 0 if k % 2 else 5 + 3 * k
        edges += [(a, p, t), (p, a, t + 2), (q, a, t + 2), (p, q, t + 5), (q, p, t + 8)]
        if k % 3 == 0:
            edges.append((p, q, t + 5))
    edges += [(30, 31, 7), (31, 32, 7), (32, 30, 7), (30, 32, 7)]
    return TemporalGraph(edges)


def triangle_burst_edges(k: int) -> List[Tuple[int, int, int]]:
    """``k`` same-direction edges on each pair of one triangle, in blocks.

    All of ``0 -> 1``, then all of ``0 -> 2``, then all of ``1 -> 2``,
    one second apart: with δ >= 3k - 1 every choice of one edge per
    pair is one instance of the same triangle motif, so an exact count
    holds ``k**3`` in one triangle cell and zero in the others.
    """
    return [
        (u, v, block * k + i)
        for block, (u, v) in enumerate(((0, 1), (0, 2), (1, 2)))
        for i in range(k)
    ]


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
