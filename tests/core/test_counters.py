"""Tests for the triple/quadruple counters and MotifCounts."""

import numpy as np
import pytest

from repro.core import motifs as M
from repro.core.counters import (
    T95_TABLE,
    MotifCounts,
    PairCounter,
    StarCounter,
    TriangleCounter,
    merge_counters,
    pair_index,
    star_index,
    t95,
)
from repro.errors import ValidationError
from repro.graph.temporal_graph import IN, OUT


class TestIndexing:
    def test_star_index_layout(self):
        assert star_index(0, 0, 0, 0) == 0
        assert star_index(0, 0, 0, 1) == 1
        assert star_index(0, 1, 0, 0) == 4
        assert star_index(1, 0, 0, 0) == 8
        assert star_index(2, 1, 1, 1) == 23

    def test_pair_index_layout(self):
        assert pair_index(0, 0, 0) == 0
        assert pair_index(1, 1, 1) == 7


class TestFlatCounters:
    def test_add_and_get(self):
        c = StarCounter()
        c.add(M.STAR_II, IN, OUT, IN, 5)
        assert c.get(M.STAR_II, IN, OUT, IN) == 5
        assert c.total() == 5

    def test_merge(self):
        a = StarCounter()
        b = StarCounter()
        a.add(0, 0, 0, 0, 2)
        b.add(0, 0, 0, 0, 3)
        b.add(2, 1, 1, 1, 1)
        a.merge(b)
        assert a.get(0, 0, 0, 0) == 5
        assert a.get(2, 1, 1, 1) == 1

    def test_merge_type_mismatch(self):
        with pytest.raises(ValidationError):
            StarCounter().merge(PairCounter())

    def test_copy_is_independent(self):
        a = PairCounter()
        b = a.copy()
        b.add(OUT, OUT, OUT)
        assert a.total() == 0
        assert b.total() == 1

    def test_wrong_size_data(self):
        with pytest.raises(ValidationError):
            StarCounter([0] * 7)

    def test_equality(self):
        a, b = StarCounter(), StarCounter()
        assert a == b
        b.add(0, 0, 0, 0)
        assert a != b

    def test_merge_counters_helper(self):
        a, b = PairCounter(), PairCounter()
        a.add(0, 0, 0, 2)
        b.add(0, 0, 0, 3)
        merged = merge_counters([a, b])
        assert merged.get(0, 0, 0) == 5
        assert a.get(0, 0, 0) == 2  # inputs untouched

    def test_merge_counters_empty(self):
        assert merge_counters([]) is None

    def test_star_cells_labels(self):
        c = StarCounter()
        labels = dict(c.cells())
        assert "Star[I,in,o,in]" in labels
        assert len(labels) == 24


class TestPairCounter:
    def test_center_symmetry_detection(self):
        c = PairCounter()
        c.add(OUT, IN, OUT, 4)
        assert not c.check_center_symmetry()
        c.add(IN, OUT, IN, 4)
        assert c.check_center_symmetry()

    def test_per_motif_uses_out_rooted_cells(self):
        c = PairCounter()
        c.add(OUT, IN, OUT, 7)   # M65 seen from the first edge's source
        c.add(IN, OUT, IN, 7)    # same instances seen from the other side
        assert c.per_motif()["M65"] == 7


class TestTriangleCounter:
    def test_multiplicity_validation(self):
        with pytest.raises(ValidationError):
            TriangleCounter(multiplicity=2)

    def test_per_motif_divides_by_multiplicity(self):
        c = TriangleCounter(multiplicity=3)
        for cell in c.isomorphic_cells()["M26"]:
            c.add(*cell, count=4)
        assert c.per_motif()["M26"] == 4

    def test_per_motif_multiplicity_one(self):
        c = TriangleCounter(multiplicity=1)
        cells = c.isomorphic_cells()["M15"]
        c.add(*cells[0], count=4)
        assert c.per_motif()["M15"] == 4

    def test_indivisible_raises(self):
        c = TriangleCounter(multiplicity=3)
        c.add(M.TRI_I, OUT, OUT, OUT, 2)
        with pytest.raises(ValidationError, match="not divisible"):
            c.per_motif()

    def test_corner_symmetry(self):
        c = TriangleCounter(multiplicity=3)
        for cell in c.isomorphic_cells()["M36"]:
            c.add(*cell, count=2)
        assert c.check_corner_symmetry()
        c.add(M.TRI_I, OUT, OUT, OUT, 1)
        assert not c.check_corner_symmetry()

    def test_merge_multiplicity_mismatch(self):
        with pytest.raises(ValidationError):
            TriangleCounter(multiplicity=3).merge(TriangleCounter(multiplicity=1))

    def test_isomorphic_cells_structure(self):
        groups = TriangleCounter().isomorphic_cells()
        assert len(groups) == 8
        assert all(len(cells) == 3 for cells in groups.values())


class TestMotifCounts:
    def test_zeros(self):
        counts = MotifCounts.zeros()
        assert counts.total() == 0
        assert counts.is_exact

    def test_python_int_grid_beyond_float_precision_stays_exact(self):
        grid = np.zeros((6, 6), dtype=object)
        grid[:] = 0
        grid[1, 3] = 2**53 + 1
        grid[4, 4] = 2**63 - 1
        counts = MotifCounts(grid)
        assert counts.grid.dtype == np.int64
        assert counts.is_exact
        assert counts["M24"] == 2**53 + 1
        assert counts["M55"] == 2**63 - 1

    def test_python_int_grid_beyond_int64_is_rejected(self):
        grid = np.zeros((6, 6), dtype=object)
        grid[:] = 0
        grid[2, 5] = 2**63 + 5
        with pytest.raises(ValidationError, match=r"2\d+ in grid cell \(2, 5\)"):
            MotifCounts(grid)

    def test_from_dict_and_getitem(self):
        counts = MotifCounts.from_dict({"M24": 7, "M55": 3})
        assert counts["M24"] == 7
        assert counts.get(5, 5) == 3
        assert counts.total() == 10

    def test_from_counters_combines(self):
        star = StarCounter()
        star.add(M.STAR_I, IN, OUT, IN, 2)  # M24
        pair = PairCounter()
        pair.add(OUT, OUT, OUT, 5)  # M55
        counts = MotifCounts.from_counters(star, pair, None)
        assert counts["M24"] == 2
        assert counts["M55"] == 5

    def test_category_total(self):
        counts = MotifCounts.from_dict({"M55": 2, "M26": 3, "M11": 4})
        assert counts.category_total(M.MotifCategory.PAIR) == 2
        assert counts.category_total(M.MotifCategory.TRIANGLE) == 3
        assert counts.category_total(M.MotifCategory.STAR) == 4

    def test_addition(self):
        a = MotifCounts.from_dict({"M11": 1})
        b = MotifCounts.from_dict({"M11": 2, "M66": 1})
        c = a + b
        assert c["M11"] == 3
        assert c["M66"] == 1

    def test_equality_is_count_based(self):
        a = MotifCounts.from_dict({"M11": 1}, algorithm="fast")
        b = MotifCounts.from_dict({"M11": 1}, algorithm="ex")
        assert a == b
        assert a != MotifCounts.from_dict({"M11": 2})
        assert a.same_counts(b)

    def test_bad_shape(self):
        with pytest.raises(ValidationError):
            MotifCounts(np.zeros((5, 6)))

    def test_float_grid_for_estimates(self):
        counts = MotifCounts(np.full((6, 6), 0.5))
        assert not counts.is_exact
        assert counts["M11"] == 0.5

    def test_to_text_renders_all_rows(self):
        text = MotifCounts.from_dict({"M11": 12_345_678, "M12": 45_000}).to_text("t")
        assert "12.3M" in text
        assert "45.0K" in text
        assert text.count("i=") == 6

    def test_per_motif_roundtrip(self):
        original = {"M11": 5, "M46": 2}
        counts = MotifCounts.from_dict(original)
        per = counts.per_motif()
        assert per["M11"] == 5
        assert per["M46"] == 2
        assert sum(per.values()) == 7

    def test_str_contains_algorithm(self):
        assert "fast" in str(MotifCounts.zeros(algorithm="fast"))


class TestStudentT:
    """The 95% interval multiplier comes from the replicate count."""

    @staticmethod
    def two_sided_mass(t: float, df: int) -> float:
        """P(|T| <= t) for Student's t, by trapezoid integration of its density."""
        from math import gamma, pi, sqrt

        x = np.linspace(0.0, t, 400_001)
        scale = gamma((df + 1) / 2) / (sqrt(df * pi) * gamma(df / 2))
        y = scale * (1 + x * x / df) ** (-(df + 1) / 2)
        return 2 * (x[1] - x[0]) * (y.sum() - (y[0] + y[-1]) / 2)

    def test_table_matches_t_quantiles(self):
        assert len(T95_TABLE) == 30
        for df, t in enumerate(T95_TABLE, start=1):
            assert self.two_sided_mass(t, df) == pytest.approx(0.95, abs=2e-4), df
        assert list(T95_TABLE) == sorted(T95_TABLE, reverse=True)
        assert T95_TABLE[-1] > 1.96

    def test_multiplier_from_replicates(self):
        assert t95(2) == 12.706
        assert t95(3) == 4.303  # the registry's default replicate count
        assert t95(31) == 2.042
        assert t95(10_000) == 2.042  # past the table: the 30-df value
        with pytest.raises(ValidationError):
            t95(1)

    def test_confidence_interval_uses_the_replicate_count(self):
        stderr = np.zeros((6, 6))
        stderr[0, 0] = 2.0
        counts = MotifCounts(
            np.full((6, 6), 10.0), stderr=stderr, is_exact=False, meta={"n_samples": 3}
        )
        lo, hi = counts.confidence_interval("M11")
        assert (lo, hi) == pytest.approx((10.0 - 2 * 4.303, 10.0 + 2 * 4.303))
        assert counts.confidence_interval("M12") == (10.0, 10.0)
        assert MotifCounts(np.full((6, 6), 4)).confidence_interval("M11") == (4.0, 4.0)

    def test_bts_intervals_cover_the_exact_counts(self):
        """Fixed-seed coverage check: 40 BTS estimates (3 replicates each)
        of every motif with at least 20 instances.  Student's t covers
        ~95% of them; the normal 1.96 covers under 80%."""
        from repro.core.api import count_motifs
        from repro.graph.generators import uniform_temporal_graph

        graph = uniform_temporal_graph(30, 1500, seed=4)
        exact = count_motifs(graph, 40.0)
        names = [name for name, value in exact.per_motif().items() if value >= 20]
        covered = checks = 0
        for k in range(40):
            est = count_motifs(graph, 40.0, algorithm="bts", seed=3 * k, n_samples=3, q=0.3)
            for name in names:
                lo, hi = est.confidence_interval(name)
                covered += lo <= exact[name] <= hi
                checks += 1
        assert checks == 40 * len(names) > 1000
        assert covered / checks >= 0.9
