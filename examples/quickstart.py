"""Quickstart: count δ-temporal motifs in a small temporal graph.

Reproduces the paper's running example (Fig. 1): five nodes, twelve
timestamped edges, δ = 10 seconds — then tours the pluggable algorithm
registry: every algorithm (FAST/HARE, the exact baselines, and the
sampling estimators with their confidence intervals) is reachable
through the one `count_motifs` entry point.

Run:  python examples/quickstart.py
"""

from repro import available_algorithms, count_motifs, count_motifs_sweep, TemporalGraph

# The temporal graph of the paper's Fig. 1.  Edges are (src, dst, t);
# node labels can be any hashable value.
EDGES = [
    ("a", "c", 4), ("a", "c", 8), ("d", "a", 9), ("a", "b", 11), ("a", "c", 15),
    ("e", "d", 1), ("e", "c", 6), ("d", "c", 10), ("d", "e", 14), ("c", "d", 17),
    ("e", "d", 18), ("d", "e", 21),
]


def main() -> None:
    graph = TemporalGraph(EDGES)
    print(f"graph: {graph}")
    print(f"registered algorithms: {', '.join(available_algorithms())}")
    print()

    counts = count_motifs(graph, delta=10)  # FAST, the default algorithm
    print(counts.to_text("All 2-/3-node, 3-edge motifs with δ = 10s"))
    print()

    # The instances the paper names explicitly:
    print("paper walkthrough instances:")
    print(f"  M63 ⟨(a,c,4), (a,c,8), (d,a,9)⟩  -> count {counts['M63']}")
    print(f"  M46 ⟨(e,c,6), (d,c,10), (d,e,14)⟩ -> count {counts['M46']}")
    print(f"  M65 ⟨(d,e,14), (e,d,18), (d,e,21)⟩-> count {counts['M65']}")
    print()

    # Category totals (the three colour groups of the paper's Fig. 2).
    from repro import MotifCategory

    for category in MotifCategory:
        print(f"  {category.value:9s} motifs: {counts.category_total(category)}")
    print()

    # Any registered algorithm is one keyword away; the exact ones agree
    # cell for cell.
    for algorithm in ("bruteforce", "ex", "bt"):
        other = count_motifs(graph, delta=10, algorithm=algorithm)
        print(f"FAST == {algorithm}: {counts == other}")

    # Parallel counting (HARE) returns identical counts.
    parallel = count_motifs(graph, delta=10, workers=2)
    print(f"FAST == HARE(2 workers): {counts == parallel}")
    print()

    # Sampling estimators return the same MotifCounts shape, flagged
    # approximate and carrying a stderr grid: replicates (n_samples)
    # are averaged and the 95% confidence interval comes for free.
    estimate = count_motifs(
        graph, delta=10, algorithm="bts", q=0.8, n_samples=5, seed=1
    )
    lo, hi = estimate.confidence_interval("M63")
    print(f"BTS estimate (q=0.8, 5 replicates): total ≈ {estimate.total():.1f}")
    print(f"  exact: {estimate.is_exact}, M63 ≈ {estimate['M63']:.2f} "
          f"± {estimate.stderr_of('M63'):.2f} (95% CI [{lo:.2f}, {hi:.2f}])")
    print()

    # Multi-δ / multi-algorithm batches are one call.
    sweep = count_motifs_sweep(graph, deltas=[5, 10, 20], algorithms=["fast", "ex"])
    for delta in (5, 10, 20):
        fast_total = sweep.get("fast", delta).total()
        agree = sweep.get("fast", delta) == sweep.get("ex", delta)
        print(f"δ={delta:2d}: total={fast_total:3d}  FAST==EX: {agree}")


if __name__ == "__main__":
    main()
