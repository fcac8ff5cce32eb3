"""Tests for the two-level predictor family (gshare, GAs, PAs)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.predictors.base import simulate
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.twolevel import GAsPredictor, GsharePredictor, PAsPredictor

from conftest import interleave, trace_from_outcomes, trace_from_string


def periodic_trace(period_pattern, repeats, pc=0x100):
    return trace_from_outcomes(list(period_pattern) * repeats, pc=pc)


class TestGshare:
    def test_learns_periodic_pattern(self):
        trace = periodic_trace([True, True, False], 200)
        accuracy = GsharePredictor(8, 10).accuracy(trace)
        assert accuracy > 0.97

    def test_learns_biased_branch(self):
        trace = trace_from_string("T" * 500)
        assert GsharePredictor(8, 10).accuracy(trace) > 0.99

    def test_zero_history_degenerates_to_bimodal(self):
        trace = periodic_trace([True, False], 100)
        gshare = GsharePredictor(history_bits=0, pht_bits=10)
        bimodal = BimodalPredictor(table_bits=10)
        assert np.array_equal(gshare.simulate(trace), bimodal.simulate(trace))

    def test_fast_path_matches_generic_loop(self, small_benchmark_trace):
        trace = small_benchmark_trace[:2000]
        fast = GsharePredictor(8, 10).simulate(trace)
        slow = simulate(GsharePredictor(8, 10), trace)
        assert np.array_equal(fast, slow)

    def test_history_wider_than_the_kernel_runs_the_reference_loop(
        self, small_benchmark_trace
    ):
        # Only the low pht_bits of history reach the index, so a 64-bit
        # register predicts exactly like a 12-bit one.
        wide = GsharePredictor(64, 12).simulate(small_benchmark_trace)
        narrow = GsharePredictor(12, 12).simulate(small_benchmark_trace)
        assert np.array_equal(wide, narrow)

    def test_invalid_history(self):
        with pytest.raises(ValueError):
            GsharePredictor(history_bits=-1)

    def test_invalid_pht(self):
        with pytest.raises(ValueError):
            GsharePredictor(history_bits=4, pht_bits=0)

    def test_name_mentions_configuration(self):
        assert GsharePredictor(10, 12).name == "gshare-10h-12p"

    @settings(max_examples=20)
    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_property_fast_path_equals_slow_path(self, outcomes):
        trace = trace_from_outcomes(outcomes)
        fast = GsharePredictor(6, 8).simulate(trace)
        slow = simulate(GsharePredictor(6, 8), trace)
        assert np.array_equal(fast, slow)


class TestGAs:
    def test_learns_periodic_pattern(self):
        trace = periodic_trace([True, False, False], 200)
        assert GAsPredictor(8, 2).accuracy(trace) > 0.97

    def test_distinct_phts_per_address_group(self):
        # Two branches with identical histories but opposite outcomes:
        # separate PHTs (selected by address) keep them apart.
        trace = interleave({0x100: [True] * 200, 0x104: [False] * 200})
        assert GAsPredictor(6, 4).accuracy(trace) > 0.95

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GAsPredictor(history_bits=-2)
        with pytest.raises(ValueError):
            GAsPredictor(pht_select_bits=-1)


class TestPAs:
    def test_learns_local_pattern_with_interleaved_noise(self):
        # A periodic branch interleaved with a random one: per-address
        # history isolates the periodic branch (gshare would struggle).
        import random

        rng = random.Random(3)
        periodic = [True, True, False] * 300
        noise = [rng.random() < 0.5 for _ in range(900)]
        trace = interleave({0x100: periodic, 0x200: noise})
        pas = PAsPredictor(6, 10)
        correct = pas.simulate(trace)
        periodic_indices = trace.indices_by_pc()[0x100]
        assert correct[periodic_indices].mean() > 0.97

    def test_learns_alternating(self):
        trace = periodic_trace([True, False], 300)
        assert PAsPredictor(4, 8).accuracy(trace) > 0.97

    def test_bht_aliasing_is_modelled(self):
        # Two branches mapping to the same BHT entry share (and pollute)
        # one history register: a periodic branch paired with a noise
        # branch loses its position information under aliasing.
        import random

        rng = random.Random(5)
        periodic = [True, True, False] * 200
        noise = [rng.random() < 0.5 for _ in range(600)]
        trace = interleave({0x100: periodic, 0x104: noise})
        small = PAsPredictor(history_bits=4, bht_bits=0, pht_select_bits=0)
        big = PAsPredictor(history_bits=4, bht_bits=8, pht_select_bits=4)
        assert big.accuracy(trace) > small.accuracy(trace) + 0.03

    def test_fast_path_matches_generic_loop(self, small_benchmark_trace):
        trace = small_benchmark_trace[:2000]
        fast = PAsPredictor(6, 10).simulate(trace)
        slow = simulate(PAsPredictor(6, 10), trace)
        assert np.array_equal(fast, slow)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PAsPredictor(history_bits=-1)
        with pytest.raises(ValueError):
            PAsPredictor(bht_bits=-1)

    @settings(max_examples=20)
    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_property_fast_path_equals_slow_path(self, outcomes):
        trace = trace_from_outcomes(outcomes)
        fast = PAsPredictor(5, 6).simulate(trace)
        slow = simulate(PAsPredictor(5, 6), trace)
        assert np.array_equal(fast, slow)


class TestBimodal:
    def test_learns_bias(self):
        trace = trace_from_string("T" * 100)
        assert BimodalPredictor(8).accuracy(trace) > 0.98

    def test_cannot_learn_alternation(self):
        # The classic 2-bit counter failure: strict alternation.
        trace = periodic_trace([True, False], 200)
        assert BimodalPredictor(8).accuracy(trace) < 0.75

    def test_invalid_table_bits(self):
        with pytest.raises(ValueError):
            BimodalPredictor(table_bits=-1)


class TestStatefulness:
    def test_simulate_continues_training(self):
        """Predictors are stateful: a second simulate over the same trace
        starts warm and must not be less accurate on a learnable pattern."""
        trace = periodic_trace([True, True, False], 80)
        predictor = GsharePredictor(6, 8)
        cold = predictor.simulate(trace).mean()
        warm = predictor.simulate(trace).mean()
        assert warm >= cold

    def test_fresh_instances_are_independent(self):
        trace = periodic_trace([True, False], 100)
        first = GsharePredictor(6, 8).simulate(trace)
        second = GsharePredictor(6, 8).simulate(trace)
        import numpy as np

        assert np.array_equal(first, second)
