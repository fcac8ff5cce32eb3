"""Tests for the analysis layer: accuracy accounting, percentiles, Lab."""

import numpy as np
import pytest

from repro.analysis.accuracy import (
    accuracy_by_branch,
    correct_counts_by_branch,
    dynamic_weighted_fraction,
    misprediction_reduction,
)
from repro.analysis.config import LabConfig
from repro.analysis.percentile import percentile_difference_curve
from repro.analysis.runner import Lab

from conftest import interleave, trace_from_string


class TestAccuracyByBranch:
    def test_per_branch_grouping(self):
        trace = interleave({1: [True] * 4, 2: [False] * 4})
        correct = np.array([True, False] * 4)
        by_branch = accuracy_by_branch(trace, correct)
        assert by_branch[1] == pytest.approx(1.0)
        assert by_branch[2] == pytest.approx(0.0)

    def test_misaligned_rejected(self):
        trace = trace_from_string("TNT")
        with pytest.raises(ValueError):
            accuracy_by_branch(trace, np.ones(2, dtype=bool))

    def test_counts(self):
        trace = interleave({1: [True] * 4})
        counts = correct_counts_by_branch(trace, np.array([True, True, False, True]))
        assert counts == {1: 3}


class TestDynamicWeightedFraction:
    def test_weighting(self):
        trace = interleave({1: [True] * 9, 2: [False]})
        assert dynamic_weighted_fraction(trace, [1]) == pytest.approx(0.9)
        assert dynamic_weighted_fraction(trace, [2]) == pytest.approx(0.1)
        assert dynamic_weighted_fraction(trace, [1, 2]) == pytest.approx(1.0)

    def test_unknown_branches_ignored(self):
        trace = interleave({1: [True] * 4})
        assert dynamic_weighted_fraction(trace, [99]) == 0.0


class TestMispredictionReduction:
    def test_half_of_mispredictions_removed(self):
        assert misprediction_reduction(0.9, 0.95) == pytest.approx(0.5)

    def test_perfect_baseline(self):
        assert misprediction_reduction(1.0, 1.0) == 0.0

    def test_regression_is_negative(self):
        assert misprediction_reduction(0.9, 0.85) == pytest.approx(-0.5)


class TestPercentileCurve:
    def test_identical_predictors_flat_curve(self):
        trace = interleave({1: [True] * 10, 2: [False] * 10})
        bitmap = np.ones(20, dtype=bool)
        curve = percentile_difference_curve(trace, bitmap, bitmap)
        assert np.allclose(curve.differences, 0.0)

    def test_signs_of_tails(self):
        trace = interleave({1: [True] * 10, 2: [True] * 10})
        a = np.zeros(20, dtype=bool)
        b = np.zeros(20, dtype=bool)
        idx1 = trace.indices_by_pc()[1]
        idx2 = trace.indices_by_pc()[2]
        a[idx1] = True   # A wins branch 1
        b[idx2] = True   # B wins branch 2
        curve = percentile_difference_curve(trace, a, b)
        assert curve.tail(0) == pytest.approx(-100.0)
        assert curve.tail(100) == pytest.approx(100.0)
        assert curve.area_a_better() > 0
        assert curve.area_b_better() > 0

    def test_dynamic_weighting(self):
        # Branch 1 is 9x hotter: its difference dominates the curve.
        trace = interleave({1: [True] * 18, 2: [True, True]})
        a = np.ones(20, dtype=bool)
        b = np.zeros(20, dtype=bool)
        idx2 = trace.indices_by_pc()[2]
        b[idx2] = True  # tie on branch 2, A wins branch 1
        curve = percentile_difference_curve(trace, a, b)
        assert curve.tail(50) == pytest.approx(100.0)

    def test_misaligned_rejected(self):
        trace = trace_from_string("TT")
        with pytest.raises(ValueError):
            percentile_difference_curve(trace, np.ones(2, bool), np.ones(3, bool))


class TestLab:
    @pytest.fixture(scope="class")
    def lab(self, request):
        from repro.workloads.suite import load_benchmark

        return Lab(load_benchmark("compress", length=6000, run_seed=11))

    def test_correct_is_memoised(self, lab):
        assert lab.correct("gshare") is lab.correct("gshare")

    def test_unknown_predictor_rejected(self, lab):
        with pytest.raises(KeyError, match="unknown predictor"):
            lab.correct("tage")

    def test_all_named_predictors_run(self, lab):
        for name in lab.available_predictors():
            bitmap = lab.correct(name)
            assert len(bitmap) == len(lab.trace)
            assert 0.3 < bitmap.mean() <= 1.0, name

    def test_accuracy_matches_bitmap(self, lab):
        assert lab.accuracy("pas") == pytest.approx(
            float(lab.correct("pas").mean())
        )

    def test_selective_correct_is_memoised(self, lab):
        assert lab.selective_correct(1) is lab.selective_correct(1)

    def test_selections_shared_across_counts(self, lab):
        one = lab.selections(1)
        assert set(one) == set(int(pc) for pc in lab.trace.static_pcs())

    def test_stats_cached(self, lab):
        assert lab.stats is lab.stats

    def test_config_override(self):
        from repro.workloads.suite import load_benchmark

        trace = load_benchmark("compress", length=4000, run_seed=11)
        lab = Lab(trace, LabConfig(gshare_history_bits=4, gshare_pht_bits=6))
        assert len(lab.correct("gshare")) == len(trace)


class TestLabSelectiveWindows:
    @pytest.fixture(scope="class")
    def lab(self):
        from repro.workloads.suite import load_benchmark

        return Lab(load_benchmark("gcc", length=4000, run_seed=11))

    def test_windows_cached_separately(self, lab):
        narrow = lab.selective_correct(3, window=8)
        wide = lab.selective_correct(3, window=16)
        assert narrow is lab.selective_correct(3, window=8)
        assert wide is lab.selective_correct(3, window=16)
        assert narrow is not wide

    def test_selections_keyed_by_window(self, lab):
        assert lab.selections(1, window=8) is lab.selections(1, window=8)
        # Different windows may produce different selections objects.
        assert lab.selections(1, window=8) is not lab.selections(1, window=16)

    def test_default_window_is_config(self, lab):
        default = lab.selective_correct(2)
        explicit = lab.selective_correct(2, window=lab.config.selective_window)
        assert default is explicit

    def test_correlation_data_collected_once(self, lab):
        assert lab.correlation_data() is lab.correlation_data()
        assert lab.correlation_data().window == lab.config.collection_window
