"""Shared configuration for the benchmark suite.

Every benchmark regenerates part of a paper artifact (each file is
named after its table or figure).  ``REPRO_BENCH_SCALE`` shrinks the
dataset twins uniformly (default 0.35 of the registry sizes, which
keeps a full ``pytest benchmarks/ --benchmark-only`` run in the
minutes range); set it to 1.0 for the registry's full sizes.

Rendered paper-style tables are written to ``benchmarks/reports/``
by the ``*_report`` benchmarks.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.graph.datasets import load_dataset

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.35"))
DELTA = 600

REPORT_DIR = pathlib.Path(__file__).parent / "reports"


def bench_graph(name: str):
    """Load a dataset twin at the benchmark scale, fully indexed."""
    graph = load_dataset(name, SCALE)
    graph.ensure_pair_index()
    graph.edge_lists()
    return graph


def write_report(name: str, text: str) -> None:
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / f"{name}.txt"
    path.write_text(text + "\n")


def once(benchmark, fn):
    """Run a heavy target exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture(scope="session", autouse=True)
def _note_scale(request):
    capmanager = request.config.pluginmanager.getplugin("capturemanager")
    if capmanager is not None:
        with capmanager.global_and_fixture_disabled():
            print(f"\n[repro benchmarks] dataset scale = {SCALE}, delta = {DELTA}")
    yield
