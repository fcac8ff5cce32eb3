"""Tests for chooser hybrids and the oracle combiner."""

import numpy as np
import pytest

from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.hybrid import ChooserHybrid, OracleCombiner
from repro.predictors.static_ import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
)
from repro.predictors.twolevel import GsharePredictor, PAsPredictor

from conftest import interleave, trace_from_outcomes


class TestChooserHybrid:
    def test_learns_to_pick_the_right_component(self):
        # Branch 1 always taken, branch 2 always not-taken; with
        # always-taken / always-not-taken components the chooser must
        # route each branch to the right side.
        trace = interleave({0x100: [True] * 300, 0x200: [False] * 300})
        hybrid = ChooserHybrid(
            AlwaysTakenPredictor(), AlwaysNotTakenPredictor(), chooser_bits=8
        )
        assert hybrid.accuracy(trace) > 0.97

    def test_beats_both_components_on_mixed_workload(self):
        import random

        rng = random.Random(13)
        # A local-pattern branch and a biased branch whose noise pollutes
        # global history.
        periodic = [True, True, False] * 200
        noisy = [rng.random() < 0.5 for _ in range(600)]
        trace = interleave({0x100: periodic, 0x200: noisy})
        a = GsharePredictor(6, 8)
        b = PAsPredictor(4, 8)
        hybrid = ChooserHybrid(GsharePredictor(6, 8), PAsPredictor(4, 8))
        hybrid_accuracy = hybrid.accuracy(trace)
        assert hybrid_accuracy >= max(a.accuracy(trace), b.accuracy(trace)) - 0.02

    def test_name_mentions_components(self):
        hybrid = ChooserHybrid(BimodalPredictor(4), GsharePredictor(4, 4))
        assert "bimodal" in hybrid.name and "gshare" in hybrid.name


class TestOracleCombiner:
    def test_uses_alternative_only_where_strictly_better(self):
        trace = interleave({1: [True] * 4, 2: [True] * 4})
        primary = np.array([True, False] * 4)
        alternative = np.array([True] * 8)
        idx1 = trace.indices_by_pc()[1]
        combined = OracleCombiner.combine(trace, primary, alternative)
        assert combined[idx1].all()

    def test_keeps_primary_on_ties(self):
        trace = interleave({1: [True] * 4})
        primary = np.array([True, True, False, False])
        alternative = np.array([False, False, True, True])
        combined = OracleCombiner.combine(trace, primary, alternative)
        assert np.array_equal(combined, primary)

    def test_never_worse_than_primary(self):
        import random

        rng = random.Random(17)
        trace = interleave(
            {pc: [rng.random() < 0.5 for _ in range(50)] for pc in range(8)}
        )
        primary = np.array([rng.random() < 0.7 for _ in range(len(trace))])
        alternative = np.array([rng.random() < 0.7 for _ in range(len(trace))])
        combined = OracleCombiner.combine(trace, primary, alternative)
        assert combined.sum() >= primary.sum()

    def test_misaligned_bitmaps_rejected(self):
        trace = interleave({1: [True] * 4})
        with pytest.raises(ValueError):
            OracleCombiner.combine(trace, np.ones(3, bool), np.ones(4, bool))

    def test_combine_with_mask_uses_membership_not_accuracy(self):
        trace = interleave({1: [True] * 4, 2: [True] * 4})
        primary = np.ones(8, dtype=bool)
        alternative = np.zeros(8, dtype=bool)
        combined = OracleCombiner.combine_with_mask(
            trace, primary, alternative, use_alternative={1}
        )
        idx1 = trace.indices_by_pc()[1]
        idx2 = trace.indices_by_pc()[2]
        # Branch 1 is forced onto the (worse) alternative; branch 2 stays.
        assert not combined[idx1].any()
        assert combined[idx2].all()

    @pytest.mark.parametrize("length", [2, 6])
    def test_combine_with_mask_rejects_misaligned_bitmaps(self, length):
        trace = interleave({1: [True] * 2, 2: [False] * 2})
        with pytest.raises(ValueError, match="bitmaps must align with the trace"):
            OracleCombiner.combine_with_mask(
                trace, np.ones(4, bool), np.ones(length, bool), use_alternative={1}
            )
