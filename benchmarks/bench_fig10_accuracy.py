"""E-F10 — Fig. 10: FAST and EX produce identical count matrices.

The accuracy claim of §V-D: both exact algorithms agree cell-by-cell
on all four display datasets.  Benchmarks time each algorithm; the
report renders both grids and hard-asserts equality: FAST's columnar
kernels against EX's python window counters.
"""

import pytest

from conftest import DELTA, SCALE, bench_graph, once, write_report
from repro.baselines.exact_ex import ex_count
from repro.bench.experiments import FIG10_DATASETS, run_fig10
from repro.core.api import count_motifs


@pytest.mark.parametrize("dataset", FIG10_DATASETS)
def test_fig10_fast(benchmark, dataset):
    graph = bench_graph(dataset)
    counts = once(benchmark, lambda: count_motifs(graph, DELTA))
    assert counts.total() > 0


@pytest.mark.parametrize("dataset", FIG10_DATASETS)
def test_fig10_ex_matches_fast(benchmark, dataset):
    graph = bench_graph(dataset)
    fast = count_motifs(graph, DELTA)
    ex = once(benchmark, lambda: ex_count(graph, DELTA))
    assert ex == fast  # the figure's whole point


def test_fig10_report(benchmark):
    result = once(benchmark, lambda: run_fig10(scale=SCALE, delta=DELTA))
    assert result.data["all_equal"] is True
    write_report("fig10", result.render())
