"""E-T3 — Table III: single-threaded runtime of all eight algorithms.

The flagship efficiency table.  Per-dataset benchmarks mirror the
paper's columns; the report runs the full sixteen-dataset driver and
asserts the headline shapes: FAST beats EX, FAST-Pair beats BT-Pair,
and FAST-Tri beats the full 2SCENT enumeration, on average.  FAST,
EWS and BTS-Pair run their columnar kernels, EX its window counters;
FAST-Pair and FAST-Tri time the paper's Algorithms 1 and 2 as python
loops, like-for-like with the python BT-Pair and 2SCENT.
"""

import pytest

from conftest import DELTA, SCALE, bench_graph, once, write_report
from repro.baselines.backtracking import bt_count_pairs
from repro.baselines.exact_ex import ex_count
from repro.baselines.sampling_bts import bts_count_pairs
from repro.baselines.sampling_ews import ews_count
from repro.baselines.twoscent import twoscent_count_cycles
from repro.bench.experiments import run_table3
from repro.core.api import count_motifs
from repro.core.fast_star import count_star_pair
from repro.core.fast_tri import count_triangle

#: Representative small/medium/large/skewed datasets for per-algorithm benchmarks.
DATASETS = ("collegemsg", "bitcoinotc", "superuser", "wikitalk")


@pytest.mark.parametrize("dataset", DATASETS)
def test_table3_fast(benchmark, dataset):
    graph = bench_graph(dataset)
    counts = once(benchmark, lambda: count_motifs(graph, DELTA))
    assert counts.total() > 0


@pytest.mark.parametrize("dataset", DATASETS)
def test_table3_ex(benchmark, dataset):
    graph = bench_graph(dataset)
    once(benchmark, lambda: ex_count(graph, DELTA))


@pytest.mark.parametrize("dataset", DATASETS)
def test_table3_ews(benchmark, dataset):
    graph = bench_graph(dataset)
    once(benchmark, lambda: ews_count(graph, DELTA, p=0.01, q=1.0))


@pytest.mark.parametrize("dataset", DATASETS)
def test_table3_bt_pair(benchmark, dataset):
    graph = bench_graph(dataset)
    once(benchmark, lambda: bt_count_pairs(graph, DELTA))


@pytest.mark.parametrize("dataset", DATASETS)
def test_table3_bts_pair(benchmark, dataset):
    graph = bench_graph(dataset)
    once(
        benchmark,
        lambda: bts_count_pairs(graph, DELTA, q=0.3, exact_when_full=False),
    )


@pytest.mark.parametrize("dataset", DATASETS)
def test_table3_fast_pair(benchmark, dataset):
    graph = bench_graph(dataset)
    once(benchmark, lambda: count_star_pair(graph, DELTA))


@pytest.mark.parametrize("dataset", DATASETS)
def test_table3_twoscent_tri(benchmark, dataset):
    graph = bench_graph(dataset)
    once(benchmark, lambda: twoscent_count_cycles(graph, DELTA, enumerate_all_lengths=True))


@pytest.mark.parametrize("dataset", DATASETS)
def test_table3_fast_tri(benchmark, dataset):
    graph = bench_graph(dataset)
    once(benchmark, lambda: count_triangle(graph, DELTA))


def test_table3_report(benchmark):
    result = once(benchmark, lambda: run_table3(scale=SCALE, delta=DELTA))
    speedups = result.data["speedups"]
    def mean(xs):
        return sum(xs) / len(xs)
    # The paper's headline shapes (§V-E): FAST wins each comparison on
    # average across the sixteen datasets.
    assert mean(speedups["fast"]) > 1.0, "FAST should beat EX on average"
    assert mean(speedups["pair"]) > 1.0, "FAST-Pair should beat BT-Pair on average"
    assert mean(speedups["tri"]) > 1.0, "FAST-Tri should beat 2SCENT on average"
    write_report("table3", result.render())
