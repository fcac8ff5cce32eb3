"""Tests for fixed-length and block-pattern predictors (section 4.1.2)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.predictors.base import simulate
from repro.predictors.pattern import (
    BlockPatternPredictor,
    FixedLengthPatternPredictor,
    MAX_PATTERN_LENGTH,
    best_fixed_length_correct,
)

from conftest import interleave, trace_from_outcomes


class TestFixedLengthPredictor:
    def test_perfect_on_matching_period(self):
        pattern = [True, False, False, True, True]
        trace = trace_from_outcomes(pattern * 100)
        predictor = FixedLengthPatternPredictor(k=5)
        correct = predictor.simulate(trace)
        assert correct[5:].all()

    def test_multiple_of_period_also_perfect(self):
        pattern = [True, False, False]
        trace = trace_from_outcomes(pattern * 100)
        correct = FixedLengthPatternPredictor(k=6).simulate(trace)
        assert correct[6:].all()

    def test_wrong_period_imperfect(self):
        pattern = [True, False, False]
        trace = trace_from_outcomes(pattern * 100)
        accuracy = FixedLengthPatternPredictor(k=2).accuracy(trace)
        assert accuracy < 0.75

    def test_warmup_predicts_taken(self):
        trace = trace_from_outcomes([True, True, False, True])
        correct = FixedLengthPatternPredictor(k=4).simulate(trace)
        assert list(correct[:4]) == [True, True, False, True]

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            FixedLengthPatternPredictor(0)
        with pytest.raises(ValueError):
            FixedLengthPatternPredictor(MAX_PATTERN_LENGTH + 1)
        FixedLengthPatternPredictor(MAX_PATTERN_LENGTH)

    def test_per_branch_state(self):
        trace = interleave(
            {1: [True, False] * 50, 2: [False, True, True] * 40}
        )
        correct = FixedLengthPatternPredictor(k=6).simulate(trace)
        assert correct[20:].mean() > 0.97

    @settings(max_examples=25)
    @given(
        st.lists(st.booleans(), min_size=1, max_size=120),
        st.integers(1, 8),
    )
    def test_property_vectorised_matches_predictor(self, outcomes, k):
        trace = trace_from_outcomes(outcomes)
        vectorised = FixedLengthPatternPredictor(k).simulate(trace)
        looped = simulate(FixedLengthPatternPredictor(k), trace)
        assert np.array_equal(vectorised, looped)


class TestBestFixedLength:
    def test_picks_each_branch_its_own_k(self):
        trace = interleave(
            {1: [True, False] * 60, 2: [True, True, False] * 40}
        )
        correct = best_fixed_length_correct(trace)
        assert correct[10:].mean() > 0.97

    def test_at_least_as_good_as_any_single_k(self):
        rng = random.Random(9)
        outcomes = [rng.random() < 0.6 for _ in range(300)]
        trace = trace_from_outcomes(outcomes)
        best = best_fixed_length_correct(trace).mean()
        for k in (1, 2, 3, 7, 16, 32):
            assert best >= FixedLengthPatternPredictor(k).simulate(trace).mean()

    @settings(max_examples=15)
    @given(st.lists(st.booleans(), min_size=1, max_size=80))
    def test_property_best_of_dominates_k1(self, outcomes):
        trace = trace_from_outcomes(outcomes)
        assert (
            best_fixed_length_correct(trace, max_k=8).sum()
            >= FixedLengthPatternPredictor(1).simulate(trace).sum()
        )


class TestBlockPatternPredictor:
    def test_perfect_on_stable_blocks(self):
        outcomes = ([True] * 4 + [False] * 7) * 60
        trace = trace_from_outcomes(outcomes)
        correct = BlockPatternPredictor().simulate(trace)
        assert correct[22:].all()

    def test_asymmetric_blocks(self):
        outcomes = ([True] * 9 + [False] * 2) * 60
        trace = trace_from_outcomes(outcomes)
        correct = BlockPatternPredictor().simulate(trace)
        assert correct[22:].all()

    def test_block_predictor_handles_what_loop_cannot(self):
        # n taken / m not-taken with m > 1 is block behaviour, not loop
        # behaviour: the loop predictor expects a single exit outcome.
        from repro.predictors.loop import LoopPredictor

        outcomes = ([True] * 5 + [False] * 5) * 60
        trace = trace_from_outcomes(outcomes)
        block = BlockPatternPredictor().accuracy(trace)
        loop = LoopPredictor().accuracy(trace)
        assert block > loop

    def test_first_prediction_is_taken(self):
        assert BlockPatternPredictor().predict(1, 2) is True

    def test_per_branch_state(self):
        trace = interleave(
            {
                1: ([True] * 3 + [False] * 2) * 50,
                2: ([False] * 4 + [True] * 4) * 30,
            }
        )
        correct = BlockPatternPredictor().simulate(trace)
        assert correct[40:].mean() > 0.97

    def test_btb_size(self):
        predictor = BlockPatternPredictor()
        predictor.simulate(interleave({1: [True] * 3, 2: [False] * 3}))
        assert predictor.btb_size() == 2
