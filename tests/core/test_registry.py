"""Tests for the pluggable algorithm registry and the unified API."""

import numpy as np
import pytest

from repro.core.api import count_motifs, count_motifs_sweep
from repro.core.counters import MotifCounts
from repro.core.registry import (
    CATEGORIES,
    CountRequest,
    available_algorithms,
    execute,
    get_algorithm,
    register_algorithm,
    unregister_algorithm,
)
from repro.errors import ValidationError

ALL_SEVEN = ("fast", "ex", "bruteforce", "bt", "twoscent", "bts", "ews")


@pytest.fixture
def dummy_cleanup():
    names = []
    yield names
    for name in names:
        unregister_algorithm(name)


class TestRegistration:
    def test_all_seven_builtins_registered(self):
        assert set(ALL_SEVEN) <= set(available_algorithms())

    def test_one_decorated_function_is_enough(self, paper_graph, dummy_cleanup):
        """Registering a new algorithm end-to-end is a single decorator."""

        @register_algorithm("dummy42", exact=True, description="always 42 M11s")
        def _dummy(request):
            grid = np.zeros((6, 6), dtype=np.int64)
            grid[0, 0] = 42
            return MotifCounts(grid, algorithm="dummy42")

        dummy_cleanup.append("dummy42")
        assert "dummy42" in available_algorithms()
        result = count_motifs(paper_graph, 10, algorithm="dummy42")
        assert result["M11"] == 42
        assert result.is_exact
        assert result.delta == 10
        assert result.elapsed_seconds > 0

    def test_lazy_adapter_gets_requested_label(self, paper_graph, dummy_cleanup):
        """An adapter leaving the default label is stamped with its name."""

        @register_algorithm("lazy-zero", exact=True)
        def _lazy(request):
            return MotifCounts.zeros()  # algorithm left at the default

        dummy_cleanup.append("lazy-zero")
        result = count_motifs(paper_graph, 10, algorithm="lazy-zero")
        assert result.algorithm == "lazy-zero"

    def test_duplicate_name_rejected(self, dummy_cleanup):
        @register_algorithm("dup-algo", exact=True)
        def _a(request):
            return MotifCounts.zeros()

        dummy_cleanup.append("dup-algo")
        with pytest.raises(ValidationError):

            @register_algorithm("dup-algo", exact=True)
            def _b(request):
                return MotifCounts.zeros()

    def test_replace_overrides(self, paper_graph, dummy_cleanup):
        @register_algorithm("swap-algo", exact=True)
        def _a(request):
            return MotifCounts.zeros()

        dummy_cleanup.append("swap-algo")

        @register_algorithm("swap-algo", exact=True, replace=True)
        def _b(request):
            grid = np.zeros((6, 6), dtype=np.int64)
            grid[0, 0] = 1
            return MotifCounts(grid)

        assert count_motifs(paper_graph, 1, algorithm="swap-algo")["M11"] == 1

    def test_invalid_capability_bad_category(self):
        with pytest.raises(ValidationError):
            register_algorithm("bad-cat", exact=True, categories=("all", "hexagon"))

    def test_invalid_capability_missing_all(self):
        with pytest.raises(ValidationError):
            register_algorithm("no-all", exact=True, categories=("star",))

    def test_invalid_name(self):
        with pytest.raises(ValidationError):
            register_algorithm("", exact=True)


class TestDispatchErrors:
    def test_unknown_algorithm(self, paper_graph):
        with pytest.raises(ValidationError):
            count_motifs(paper_graph, 10, algorithm="quantum")

    def test_unknown_categories(self, paper_graph):
        with pytest.raises(ValidationError):
            count_motifs(paper_graph, 10, categories="everything")

    def test_bad_workers(self, paper_graph):
        with pytest.raises(ValidationError):
            count_motifs(paper_graph, 10, workers=0)

    def test_negative_delta(self, paper_graph):
        with pytest.raises(ValidationError):
            count_motifs(paper_graph, -1)

    def test_serial_algorithm_rejects_workers(self, paper_graph):
        with pytest.raises(ValidationError):
            count_motifs(paper_graph, 10, algorithm="bruteforce", workers=2)

    def test_unsupported_category_for_algorithm(self, paper_graph):
        with pytest.raises(ValidationError):
            count_motifs(paper_graph, 10, algorithm="twoscent", categories="star")

    def test_unknown_param_rejected(self, paper_graph):
        with pytest.raises(ValidationError):
            count_motifs(paper_graph, 10, algorithm="bts", qq=0.5)

    def test_n_samples_rejected_for_exact(self, paper_graph):
        with pytest.raises(ValidationError):
            count_motifs(paper_graph, 10, algorithm="fast", n_samples=3)

    def test_seed_rejected_for_exact(self, paper_graph):
        with pytest.raises(ValidationError):
            count_motifs(paper_graph, 10, algorithm="fast", seed=5)


class TestCompatShim:
    """The pre-registry keyword signature keeps working unchanged."""

    def test_positional_delta(self, paper_graph):
        assert count_motifs(paper_graph, 10).total() == 27

    def test_old_keywords(self, paper_graph):
        counts = count_motifs(
            paper_graph, 10, algorithm="ex", categories="all",
            workers=1, thrd=None, schedule="dynamic",
        )
        assert counts.total() == 27

    def test_request_object(self, paper_graph):
        request = CountRequest(graph=paper_graph, delta=10, algorithm="fast")
        assert count_motifs(request).total() == 27
        assert execute(request) == count_motifs(paper_graph, 10)

    def test_request_object_rejects_extra_delta(self, paper_graph):
        request = CountRequest(graph=paper_graph, delta=10)
        with pytest.raises(ValidationError):
            count_motifs(request, 10)

    def test_request_object_rejects_keyword_overrides(self, paper_graph):
        request = CountRequest(graph=paper_graph, delta=10)
        with pytest.raises(ValidationError, match="algorithm"):
            count_motifs(request, algorithm="ex")
        with pytest.raises(ValidationError, match="n_samples"):
            count_motifs(request, n_samples=5)


class TestAllSevenSelectable:
    @pytest.mark.parametrize("algorithm", ALL_SEVEN)
    def test_selectable_through_count_motifs(self, paper_graph, algorithm):
        kwargs = {"seed": 0} if algorithm in ("bts", "ews") else {}
        result = count_motifs(paper_graph, 10, algorithm=algorithm, **kwargs)
        assert isinstance(result, MotifCounts)
        assert result.delta == 10
        assert result.meta["requested_algorithm"] == algorithm

    @pytest.mark.parametrize("algorithm", ("ex", "bruteforce", "bt"))
    def test_exact_backends_agree_with_fast(self, paper_graph, algorithm):
        fast = count_motifs(paper_graph, 10)
        assert count_motifs(paper_graph, 10, algorithm=algorithm) == fast

    def test_twoscent_matches_fast_on_m26(self, paper_graph):
        fast = count_motifs(paper_graph, 10)
        ts = count_motifs(paper_graph, 10, algorithm="twoscent")
        assert ts["M26"] == fast["M26"]
        assert ts.total() == ts["M26"]


class TestSampling:
    def test_sampling_result_carries_stderr(self, paper_graph):
        result = count_motifs(paper_graph, 10, algorithm="bts", q=0.5, seed=3)
        assert result.is_exact is False
        assert result.stderr is not None
        assert result.stderr.shape == (6, 6)
        assert result.meta["n_samples"] == 3  # sampling default
        assert result.meta["seed"] == 3

    def test_degenerate_ews_is_flagged_approximate_but_matches(self, paper_graph):
        exact = count_motifs(paper_graph, 10)
        est = count_motifs(paper_graph, 10, algorithm="ews", p=1.0, q=1.0)
        assert est.is_exact is False
        assert np.allclose(est.grid, exact.grid)
        assert est.stderr is not None and np.allclose(est.stderr, 0.0)

    def test_confidence_interval_brackets_degenerate_estimate(self, paper_graph):
        est = count_motifs(paper_graph, 10, algorithm="ews", p=1.0, q=1.0)
        lo, hi = est.confidence_interval("M63")
        assert lo <= est["M63"] <= hi

    def test_single_sample_has_no_stderr(self, paper_graph):
        est = count_motifs(paper_graph, 10, algorithm="ews", n_samples=1)
        assert est.stderr is None
        assert est.is_exact is False

    def test_seed_reproducibility(self, paper_graph):
        a = count_motifs(paper_graph, 10, algorithm="bts", q=0.5, seed=11)
        b = count_motifs(paper_graph, 10, algorithm="bts", q=0.5, seed=11)
        assert np.array_equal(a.grid, b.grid)

    def test_phase_timing_per_replicate(self, paper_graph):
        est = count_motifs(paper_graph, 10, algorithm="ews", n_samples=2)
        assert set(est.phase_seconds) == {"sample[0]", "sample[1]"}

    def test_total_stderr_uses_replicate_totals(self, paper_graph):
        est = count_motifs(paper_graph, 10, algorithm="bts", q=0.5, seed=2)
        assert est.meta["total_stderr"] >= 0.0
        # Cells within a replicate are correlated, so the total's stderr
        # is generally NOT the quadrature sum of the cell stderrs.
        assert np.isfinite(est.meta["total_stderr"])

    def test_twoscent_result_declares_partial_coverage(self, paper_graph):
        ts = count_motifs(paper_graph, 10, algorithm="twoscent")
        assert "M26" in ts.meta["coverage"]


class TestMaskingConsistency:
    """One masking implementation, identical cells across algorithms."""

    @pytest.mark.parametrize("categories", [c for c in CATEGORIES if c != "all"])
    def test_exact_backends_mask_identically(self, paper_graph, categories):
        reference = count_motifs(paper_graph, 10).masked(categories)
        for algorithm in ("fast", "ex", "bruteforce", "bt"):
            masked = count_motifs(
                paper_graph, 10, algorithm=algorithm, categories=categories
            )
            assert masked == reference, algorithm

    def test_masked_preserves_metadata(self, paper_graph):
        counts = count_motifs(paper_graph, 10)
        masked = counts.masked("star")
        assert masked.algorithm == counts.algorithm
        assert masked.is_exact == counts.is_exact
        assert masked.delta == counts.delta
        assert masked.meta == counts.meta

    def test_masked_all_is_identity(self, paper_graph):
        counts = count_motifs(paper_graph, 10)
        assert counts.masked("all") is counts

    def test_masked_unknown_category(self, paper_graph):
        with pytest.raises(ValidationError):
            count_motifs(paper_graph, 10).masked("hexagon")

    def test_sampling_mask_zeroes_stderr_outside(self, paper_graph):
        from repro.core.motifs import GRID, MotifCategory

        est = count_motifs(
            paper_graph, 10, algorithm="bts", q=0.5, categories="pair"
        )
        assert est.stderr is not None
        for motif in GRID.values():
            if motif.category is not MotifCategory.PAIR:
                assert est.get(motif.row, motif.col) == 0
                assert est.stderr_of(motif.name) == 0.0


class TestSweep:
    def test_sweep_shape_and_lookup(self, paper_graph):
        sweep = count_motifs_sweep(
            paper_graph, deltas=[5, 10], algorithms=["fast", "ex"]
        )
        assert len(sweep) == 4
        assert sweep.get("fast", 10) == sweep.get("ex", 10)
        assert len(sweep.elapsed("fast")) == 2
        assert all(t >= 0 for t in sweep.elapsed("ex"))

    def test_sweep_param_routing_in_mixed_run(self, paper_graph):
        # q is a BTS param; fast must not reject it in a mixed sweep.
        sweep = count_motifs_sweep(
            paper_graph, deltas=[10], algorithms=["fast", "bts"], q=0.5, seed=1
        )
        assert len(sweep) == 2
        assert sweep.get("bts", 10).meta["q"] == 0.5

    def test_sweep_workers_only_for_parallel_algorithms(self, paper_graph):
        # bruteforce is serial; a workers=2 sweep must not error on it.
        sweep = count_motifs_sweep(
            paper_graph, deltas=[10], algorithms=["fast", "bruteforce"], workers=2
        )
        assert sweep.get("fast", 10) == sweep.get("bruteforce", 10)

    def test_sweep_rejects_param_no_algorithm_accepts(self, paper_graph):
        with pytest.raises(ValidationError):
            count_motifs_sweep(
                paper_graph, deltas=[10], algorithms=["bts"], qq=0.5  # typo for q
            )

    def test_sweep_mixed_seed_applies_to_sampling_only(self, paper_graph):
        sweep = count_motifs_sweep(
            paper_graph, deltas=[10], algorithms=["fast", "bts"], seed=4
        )
        assert sweep.get("bts", 10).meta["seed"] == 4
        assert "seed" not in sweep.get("fast", 10).meta

    def test_addition_propagates_uncertainty_fields(self, paper_graph):
        est = count_motifs(paper_graph, 10, algorithm="ews", p=1.0, q=1.0)
        combined = est + est
        assert combined.is_exact is False
        assert combined.stderr is not None
        exact = count_motifs(paper_graph, 10)
        assert (exact + exact).is_exact is True

    def test_sweep_rejects_empty_inputs(self, paper_graph):
        with pytest.raises(ValidationError):
            count_motifs_sweep(paper_graph, deltas=[], algorithms=["fast"])
        with pytest.raises(ValidationError):
            count_motifs_sweep(paper_graph, deltas=[10], algorithms=[])

    def test_sweep_unknown_result_lookup(self, paper_graph):
        sweep = count_motifs_sweep(paper_graph, deltas=[10])
        with pytest.raises(ValidationError):
            sweep.get("ex", 10)


class TestSpecIntrospection:
    def test_get_algorithm_capabilities(self):
        fast = get_algorithm("fast")
        assert fast.is_exact and fast.parallel
        bts = get_algorithm("bts")
        assert not bts.is_exact and "q" in bts.params
        twoscent = get_algorithm("twoscent")
        assert set(twoscent.categories) == {"all", "triangle"}

    def test_describe_mentions_kind(self):
        assert "approximate" in get_algorithm("ews").describe()
        assert "exact" in get_algorithm("fast").describe()
