"""Built-in registry adapters for the seven counting algorithms.

Each adapter translates a resolved
:class:`~repro.core.registry.CountRequest` into the underlying
module's native call and returns a raw
:class:`~repro.core.counters.MotifCounts`.  The dispatcher — not the
adapters — applies category masking, sampling replication/stderr, and
timing, so adapters restrict *computation* where cheap (skipping a
pass that the category selection cannot need) but never mask results
themselves.

Each adapter calls its algorithm's fastest implementation: the
columnar kernels for ``fast``, ``bts`` and ``ews``, the window
counters for ``ex``.  The interpreted loops of
:mod:`repro.core.fast_star`, :mod:`repro.core.fast_tri` and the
sampling modules are kept as test references.

Heavy modules are imported lazily inside each adapter so importing the
registry stays cheap.
"""

from __future__ import annotations

import time
from typing import List

from repro.core.counters import MotifCounts, PairCounter, StarCounter, TriangleCounter
from repro.core.registry import CountRequest, register_algorithm


def _category_motifs(categories: str) -> List["object"]:
    """Motif subset implied by a category selection (for per-motif BT/BTS)."""
    from repro.core.motifs import (
        ALL_MOTIFS,
        PAIR_MOTIFS,
        STAR_MOTIFS,
        TRIANGLE_MOTIFS,
    )

    return {
        "all": ALL_MOTIFS,
        "star": STAR_MOTIFS,
        "pair": PAIR_MOTIFS,
        "triangle": TRIANGLE_MOTIFS,
        "star_pair": STAR_MOTIFS + PAIR_MOTIFS,
    }[categories]


def _fast_stream_factory(request):
    """Build the incremental engine for ``algorithm="fast"`` streams."""
    from repro.core.streaming import StreamingMotifEngine

    return StreamingMotifEngine(request)


@register_algorithm(
    "fast",
    exact=True,
    parallel=True,
    description="FAST-Star + FAST-Tri (this paper); HARE when workers > 1",
    stream_factory=_fast_stream_factory,
)
def _fast(request: CountRequest) -> MotifCounts:
    # The runtime_pool rule: an explicit pool always wins, even for a
    # single worker; otherwise workers > 1 runs on the shared pool.
    if request.workers > 1 or request.pool is not None:
        from repro.parallel.hare import hare_count_request

        return hare_count_request(request)
    from repro.core.columnar_kernels import (
        count_star_pair_columnar,
        count_triangle_columnar,
    )

    # Force (and time) the one-off columnar build so the counting
    # phases below measure pure kernel time.
    tick = time.perf_counter()
    request.graph.columnar()
    phase_seconds = {"columnar_build": time.perf_counter() - tick}
    star = pair = triangle = None
    if request.wants_star_pair:
        tick = time.perf_counter()
        star_data, pair_data = count_star_pair_columnar(request.graph, request.delta)
        star, pair = StarCounter(star_data.tolist()), PairCounter(pair_data.tolist())
        phase_seconds["star_pair"] = time.perf_counter() - tick
    if request.wants_triangle:
        tick = time.perf_counter()
        tri_data = count_triangle_columnar(request.graph, request.delta)
        triangle = TriangleCounter(tri_data.tolist(), multiplicity=3)
        phase_seconds["triangle"] = time.perf_counter() - tick
    return MotifCounts.from_counters(
        star, pair, triangle, algorithm="fast", phase_seconds=phase_seconds
    )


@register_algorithm(
    "ex",
    exact=True,
    parallel=True,
    description="EX sliding-window baseline (Paranjape et al., WSDM'17)",
)
def _ex(request: CountRequest) -> MotifCounts:
    from repro.baselines.exact_ex import ex_count

    return ex_count(
        request.graph,
        request.delta,
        categories=request.categories,
        workers=request.workers,
        start_method=request.start_method,
        pool=request.pool,
    )


@register_algorithm(
    "bruteforce",
    exact=True,
    description="reference triple enumeration; small graphs only",
)
def _bruteforce(request: CountRequest) -> MotifCounts:
    from repro.core.bruteforce import brute_force_counts

    return brute_force_counts(request.graph, request.delta)


@register_algorithm(
    "bt",
    exact=True,
    description="BT chronological backtracking (Mackey et al.), one pass per motif",
)
def _bt(request: CountRequest) -> MotifCounts:
    from repro.baselines.backtracking import bt_count

    return bt_count(request.graph, request.delta, _category_motifs(request.categories))


@register_algorithm(
    "twoscent",
    exact=True,
    categories=("all", "triangle"),
    params={"enumerate_all_lengths": False},
    description="2SCENT cycle enumeration (Kumar & Calders); counts M26 only",
)
def _twoscent(request: CountRequest) -> MotifCounts:
    from repro.baselines.twoscent import twoscent_count

    return twoscent_count(
        request.graph,
        request.delta,
        enumerate_all_lengths=bool(request.param("enumerate_all_lengths", False)),
    )


@register_algorithm(
    "bts",
    exact=False,
    parallel=True,
    params={"q": 0.3, "window_factor": 5.0},
    description="BTS interval sampling over BT (Liu et al., WSDM'19)",
)
def _bts(request: CountRequest) -> MotifCounts:
    from repro.baselines.sampling_bts import bts_count

    return bts_count(
        request.graph,
        request.delta,
        q=float(request.param("q")),
        window_factor=float(request.param("window_factor")),
        seed=int(request.seed or 0),
        motifs=_category_motifs(request.categories),
        exact_when_full=False,
        workers=request.workers,
        start_method=request.start_method,
        pool=request.pool,
    )


@register_algorithm(
    "ews",
    exact=False,
    params={"p": 0.01, "q": 1.0},
    description="EWS edge/wedge sampling (Wang et al., CIKM'20)",
)
def _ews(request: CountRequest) -> MotifCounts:
    from repro.baselines.sampling_ews import ews_count

    return ews_count(
        request.graph,
        request.delta,
        p=float(request.param("p")),
        q=float(request.param("q")),
        seed=int(request.seed or 0),
    )
