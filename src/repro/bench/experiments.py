"""Drivers that regenerate every table and figure of the paper.

Each ``run_*`` function executes one experiment end to end — loads the
dataset twins, times the algorithms, and returns an
:class:`ExperimentResult` whose ``render()`` emits the same rows or
series the paper reports.  :data:`EXPERIMENTS` maps experiment ids
(``table2`` … ``fig12b``) to their drivers.

All drivers accept ``scale`` (default 1.0 = the registry's reduced
default sizes) so quick runs and CI can shrink the workload uniformly.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import BenchTimer, format_table, time_call
from repro.core.api import count_motifs, count_motifs_sweep
from repro.core.fast_star import scan_center as star_scan
from repro.core.fast_tri import scan_center as tri_scan
from repro.baselines.exact_ex import ex_count
from repro.baselines.backtracking import bt_count_pairs
from repro.baselines.sampling_bts import bts_count_pairs
from repro.baselines.sampling_ews import ews_count
from repro.baselines.twoscent import twoscent_count_cycles
from repro.graph.datasets import REGISTRY, load_dataset
from repro.graph.statistics import compute_statistics, default_degree_threshold, top_k_degrees
from repro.parallel.hare import hare_count

DELTA_DEFAULT = 600

#: The twelve datasets of Fig. 11, in the paper's panel order.
FIG11_DATASETS = (
    "stackoverflow", "wikitalk", "mathoverflow", "superuser",
    "fb_wall", "askubuntu", "sms_a", "act_mooc",
    "ia_online_ads", "rec_movielens", "soc_bitcoin", "redditcomments",
)

#: The four datasets whose count matrices Fig. 10 displays.
FIG10_DATASETS = ("collegemsg", "superuser", "wikitalk", "stackoverflow")

#: The three datasets of the δ-sensitivity study, Fig. 12(a).
FIG12A_DATASETS = ("superuser", "askubuntu", "mathoverflow")

#: The paper's δ sweep in Fig. 12(a) (seconds).
FIG12A_DELTAS = (7200, 14400, 21600, 28800)


@dataclass
class ExperimentResult:
    """Uniform result holder: a titled table plus free-form notes."""

    experiment: str
    title: str
    headers: List[str]
    rows: List[List[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    blocks: List[str] = field(default_factory=list)
    data: Dict[str, object] = field(default_factory=dict)

    def render(self) -> str:
        parts = [format_table(self.headers, self.rows, title=self.title)]
        parts.extend(self.blocks)
        if self.notes:
            parts.append("\n".join(f"note: {n}" for n in self.notes))
        return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# Table II — dataset statistics
# ---------------------------------------------------------------------------

def run_table2(scale: float = 1.0, datasets: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Regenerate Table II: per-dataset statistics, paper vs generated."""
    names = list(datasets or REGISTRY)
    result = ExperimentResult(
        experiment="table2",
        title="Table II: dataset statistics (paper original vs scaled synthetic twin)",
        headers=[
            "dataset", "paper #nodes", "paper #edges", "paper days",
            "gen #nodes", "gen #edges", "gen days", "edge scale",
        ],
    )
    for name in names:
        spec = REGISTRY[name]
        graph = load_dataset(name, scale)
        stats = compute_statistics(graph)
        result.rows.append([
            spec.paper_name,
            f"{spec.paper_nodes:,}",
            f"{spec.paper_edges:,}",
            f"{spec.paper_days:,}",
            f"{stats.num_nodes:,}",
            f"{stats.num_edges:,}",
            f"{stats.time_span_days:.0f}",
            f"1/{spec.paper_edges // max(1, stats.num_edges):,}" if stats.num_edges < spec.paper_edges else "1",
        ])
    result.notes.append(
        "synthetic twins match node/edge/time-span shape at reduced scale; "
        "the originals cannot be shipped or counted offline"
    )
    return result


# ---------------------------------------------------------------------------
# Fig. 9 — degree skew and per-node counting time
# ---------------------------------------------------------------------------

def run_fig9(
    dataset: str = "wikitalk",
    delta: float = DELTA_DEFAULT,
    scale: float = 1.0,
    sample_per_bucket: int = 50,
) -> ExperimentResult:
    """Regenerate Fig. 9: degree distribution and per-node scan time.

    Nodes are bucketed by degree decade; each bucket reports its node
    count (Fig. 9a) and the mean FAST scan time over a sample of its
    nodes (Fig. 9b) — demonstrating that the few highest-degree nodes
    dominate total counting time, the imbalance HARE's intra-node mode
    exists to fix.
    """
    graph = load_dataset(dataset, scale)
    graph.ensure_pair_index()
    buckets: Dict[int, List[int]] = {}
    for node in range(graph.num_nodes):
        degree = graph.degree(node)
        if degree == 0:
            continue
        decade = int(math.log10(degree)) if degree >= 1 else 0
        buckets.setdefault(decade, []).append(node)

    result = ExperimentResult(
        experiment="fig9",
        title=f"Fig. 9: degree skew on {dataset} (δ={delta})",
        headers=["degree bucket", "#nodes", "mean scan time (ms)", "est. bucket total (s)"],
    )
    bucket_totals = []
    for decade in sorted(buckets):
        nodes = buckets[decade]
        sample = nodes[:: max(1, len(nodes) // sample_per_bucket)][:sample_per_bucket]
        star_data = [0] * 24
        pair_data = [0] * 8
        tri_data = [0] * 24
        start = time.perf_counter()
        for node in sample:
            star_scan(graph.node_sequence(node), delta, star_data, pair_data)
            tri_scan(graph, node, delta, tri_data)
        elapsed = time.perf_counter() - start
        mean_ms = 1000 * elapsed / len(sample)
        bucket_total = mean_ms / 1000 * len(nodes)
        bucket_totals.append(bucket_total)
        label = f"10^{decade}..10^{decade + 1}"
        result.rows.append([label, len(nodes), round(mean_ms, 4), round(bucket_total, 3)])
    if bucket_totals:
        top_share = bucket_totals[-1] / max(sum(bucket_totals), 1e-12)
        result.notes.append(
            f"highest-degree bucket holds {100 * top_share:.0f}% of estimated scan time "
            "(the paper's observation that top-degree nodes dominate)"
        )
    result.data["bucket_totals"] = bucket_totals
    return result


# ---------------------------------------------------------------------------
# Fig. 10 — accuracy: FAST vs EX count matrices
# ---------------------------------------------------------------------------

def run_fig10(
    datasets: Sequence[str] = FIG10_DATASETS,
    delta: float = DELTA_DEFAULT,
    scale: float = 1.0,
) -> ExperimentResult:
    """Regenerate Fig. 10: the 6×6 count matrices of FAST and EX.

    The paper's claim is exactness — identical matrices from both
    algorithms on every dataset; the driver verifies equality and
    renders both grids.
    """
    result = ExperimentResult(
        experiment="fig10",
        title=f"Fig. 10: motif count matrices, FAST vs EX (δ={delta})",
        headers=["dataset", "total instances", "FAST == EX"],
    )
    all_equal = True
    for name in datasets:
        graph = load_dataset(name, scale)
        fast = count_motifs(graph, delta, algorithm="fast")
        ex = count_motifs(graph, delta, algorithm="ex")
        equal = fast == ex
        all_equal = all_equal and equal
        result.rows.append([name, f"{fast.total():,}", str(equal)])
        result.blocks.append(fast.to_text(f"[{name}] FAST counts"))
        result.blocks.append(ex.to_text(f"[{name}] EX counts"))
    result.data["all_equal"] = all_equal
    result.notes.append("matrices must be identical: both algorithms are exact")
    return result


# ---------------------------------------------------------------------------
# Table III — single-thread runtime of every algorithm
# ---------------------------------------------------------------------------

def run_table3(
    datasets: Optional[Sequence[str]] = None,
    delta: float = DELTA_DEFAULT,
    scale: float = 1.0,
    repeat: int = 1,
) -> ExperimentResult:
    """Regenerate Table III: single-threaded runtime, all 8 columns.

    Columns follow the paper: EX / EWS / FAST (+speedup over EX),
    BT-Pair / BTS-Pair / FAST-Pair (+speedup over BT-Pair),
    2SCENT-Tri / FAST-Tri (+speedup over 2SCENT-Tri).  Every FAST
    column times what ``repro count`` runs: :func:`count_motifs` with
    ``categories="star_pair"`` (FAST-Pair) or ``"triangle"`` (FAST-Tri).
    """
    names = list(datasets or REGISTRY)
    result = ExperimentResult(
        experiment="table3",
        title=f"Table III: running time in seconds (δ={delta}, 1 worker)",
        headers=[
            "dataset", "EX", "EWS", "FAST", "spd",
            "BT-Pair", "BTS-Pair", "FAST-Pair", "spd",
            "2SCENT-Tri", "FAST-Tri", "spd",
        ],
    )
    speedups = {"fast": [], "pair": [], "tri": []}
    for name in names:
        graph = load_dataset(name, scale)
        graph.ensure_pair_index()
        timer = BenchTimer(repeat=repeat)
        timer.measure("EX", lambda: ex_count(graph, delta))
        timer.measure("EWS", lambda: ews_count(graph, delta, p=0.01, q=1.0))
        timer.measure("FAST", lambda: count_motifs(graph, delta))
        timer.measure("BT-Pair", lambda: bt_count_pairs(graph, delta))
        timer.measure(
            "BTS-Pair",
            lambda: bts_count_pairs(graph, delta, q=0.3, exact_when_full=False),
        )
        timer.measure(
            "FAST-Pair", lambda: count_motifs(graph, delta, categories="star_pair")
        )
        timer.measure(
            "2SCENT-Tri",
            lambda: twoscent_count_cycles(graph, delta, enumerate_all_lengths=True),
        )
        timer.measure(
            "FAST-Tri", lambda: count_motifs(graph, delta, categories="triangle")
        )
        s_fast = timer.speedup("EX", "FAST")
        s_pair = timer.speedup("BT-Pair", "FAST-Pair")
        s_tri = timer.speedup("2SCENT-Tri", "FAST-Tri")
        speedups["fast"].append(s_fast)
        speedups["pair"].append(s_pair)
        speedups["tri"].append(s_tri)
        t = timer.timings
        result.rows.append([
            name,
            t["EX"], t["EWS"], t["FAST"], f"{s_fast:.1f}x",
            t["BT-Pair"], t["BTS-Pair"], t["FAST-Pair"], f"{s_pair:.1f}x",
            t["2SCENT-Tri"], t["FAST-Tri"], f"{s_tri:.1f}x",
        ])
    for key, label in (("fast", "FAST vs EX"), ("pair", "FAST-Pair vs BT-Pair"),
                       ("tri", "FAST-Tri vs 2SCENT-Tri")):
        values = speedups[key]
        if values:
            result.notes.append(
                f"{label}: mean {sum(values) / len(values):.1f}x, max {max(values):.1f}x"
            )
    result.data["speedups"] = speedups
    return result


# ---------------------------------------------------------------------------
# Fig. 11 — parallel scaling
# ---------------------------------------------------------------------------

def run_fig11(
    datasets: Sequence[str] = FIG11_DATASETS,
    delta: float = DELTA_DEFAULT,
    workers: Sequence[int] = (1, 2, 4),
    scale: float = 1.0,
) -> ExperimentResult:
    """Regenerate Fig. 11: runtime vs worker count.

    Four series per dataset, as in the paper's panels: HARE vs
    parallel EX (left axis) and HARE-Pair vs BTS-Pair (right axis).
    On a 2-core machine the expected shape is: HARE improves to ~2
    workers then flattens/degrades gently, while EX's slab overhead
    makes it degrade faster past the core count.  When ``workers``
    holds 1 and 2, a note records the measured HARE(1)/HARE(2) ratio.
    """
    headers = ["dataset"]
    for w in workers:
        headers += [f"HARE({w})", f"EX({w})", f"HARE-Pair({w})", f"BTS-Pair({w})"]
    result = ExperimentResult(
        experiment="fig11",
        title=f"Fig. 11: running time (s) vs #workers (δ={delta})",
        headers=headers,
    )
    series: Dict[str, Dict[str, List[float]]] = {}
    for name in datasets:
        graph = load_dataset(name, scale)
        graph.ensure_pair_index()
        row: List[object] = [name]
        data: Dict[str, List[float]] = {"HARE": [], "EX": [], "HARE-Pair": [], "BTS-Pair": []}
        for w in workers:
            hare = time_call(lambda: hare_count(graph, delta, workers=w))
            exp = time_call(lambda: ex_count(graph, delta, workers=w))
            hare_pair = time_call(
                lambda: hare_count(graph, delta, workers=w, categories="star_pair")
            )
            bts = time_call(
                lambda: bts_count_pairs(
                    graph, delta, q=0.3, exact_when_full=False, workers=w
                )
            )
            row += [hare, exp, hare_pair, bts]
            data["HARE"].append(hare)
            data["EX"].append(exp)
            data["HARE-Pair"].append(hare_pair)
            data["BTS-Pair"].append(bts)
        result.rows.append(row)
        series[name] = data
    result.data["series"] = series
    result.data["workers"] = list(workers)
    if 1 in workers and 2 in workers:
        one, two = list(workers).index(1), list(workers).index(2)
        ratios = ", ".join(
            f"{name} {data['HARE'][one] / data['HARE'][two]:.2f}x"
            for name, data in series.items()
        )
        result.notes.append(
            f"measured HARE(1)/HARE(2) on {os.cpu_count()} CPU(s): {ratios}"
        )
    return result


# ---------------------------------------------------------------------------
# Fig. 12(a) — sensitivity to δ
# ---------------------------------------------------------------------------

def run_fig12a(
    datasets: Sequence[str] = FIG12A_DATASETS,
    deltas: Sequence[float] = FIG12A_DELTAS,
    workers: int = 2,
    scale: float = 1.0,
) -> ExperimentResult:
    """Regenerate Fig. 12(a): runtime vs δ for HARE and EX.

    Expected shape (paper): EX is almost flat in δ (its window
    counters do O(1) work per event regardless of δ), HARE grows
    mildly (FAST's scans are linear in the δ-window size d^δ).
    """
    headers = ["algorithm/dataset"] + [f"δ={int(d)}" for d in deltas]
    result = ExperimentResult(
        experiment="fig12a",
        title=f"Fig. 12(a): running time (s) vs δ (workers={workers})",
        headers=headers,
    )
    series: Dict[str, List[float]] = {}
    for name in datasets:
        graph = load_dataset(name, scale)
        graph.ensure_pair_index()
        # One registry sweep covers the whole (algorithm × δ) panel;
        # each result carries its own elapsed_seconds.
        sweep = count_motifs_sweep(
            graph, list(deltas), algorithms=("fast", "ex"), workers=workers
        )
        hare_timings = sweep.elapsed("fast")
        ex_timings = sweep.elapsed("ex")
        result.rows.append([f"HARE-{name}"] + list(hare_timings))
        result.rows.append([f"EX-{name}"] + list(ex_timings))
        series[f"HARE-{name}"] = hare_timings
        series[f"EX-{name}"] = ex_timings
    result.data["series"] = series
    return result


# ---------------------------------------------------------------------------
# Fig. 12(b) — sensitivity to the degree threshold thrd
# ---------------------------------------------------------------------------

def run_fig12b(
    dataset: str = "wikitalk",
    delta: float = DELTA_DEFAULT,
    workers: Sequence[int] = (1, 2, 4),
    scale: float = 1.0,
) -> ExperimentResult:
    """Regenerate Fig. 12(b): runtime vs thrd and scheduling mode.

    Configurations: the paper's default thrd (min of top-20 degrees)
    and multiples of it under dynamic scheduling, "dynamic" with no
    intra-node splitting, and "without thrd" = static schedule with no
    intra-node splitting.
    """
    graph = load_dataset(dataset, scale)
    graph.ensure_pair_index()
    base_thrd = default_degree_threshold(graph, 20)
    top = top_k_degrees(graph, 5)
    configs: List[Tuple[str, Dict[str, object]]] = [
        (f"thrd={base_thrd} (top-20 default)", {"thrd": base_thrd, "schedule": "dynamic"}),
        (f"thrd={base_thrd * 2}", {"thrd": base_thrd * 2, "schedule": "dynamic"}),
        (f"thrd={base_thrd * 4}", {"thrd": base_thrd * 4, "schedule": "dynamic"}),
        (f"thrd={max(top) + 1} (no heavy nodes)", {"thrd": max(top) + 1, "schedule": "dynamic"}),
        ("dynamic, no intra-node", {"thrd": float("inf"), "schedule": "dynamic"}),
        ("without thrd (static)", {"thrd": float("inf"), "schedule": "static"}),
    ]
    headers = ["configuration"] + [f"workers={w}" for w in workers]
    result = ExperimentResult(
        experiment="fig12b",
        title=f"Fig. 12(b): running time (s) vs thrd on {dataset} (δ={delta})",
        headers=headers,
    )
    series: Dict[str, List[float]] = {}
    for label, kwargs in configs:
        row: List[object] = [label]
        timings = []
        for w in workers:
            elapsed = time_call(lambda: hare_count(graph, delta, workers=w, **kwargs))
            row.append(elapsed)
            timings.append(elapsed)
        result.rows.append(row)
        series[label] = timings
    result.data["series"] = series
    result.data["base_thrd"] = base_thrd
    result.notes.append(
        "hierarchical (thrd) + dynamic should beat 'without thrd' static on "
        "this skew-heavy graph at multi-worker settings"
    )
    return result


#: Registry used by the CLI: experiment name -> driver.
EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "table2": run_table2,
    "table3": run_table3,
    "fig9": run_fig9,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12a": run_fig12a,
    "fig12b": run_fig12b,
}
