"""Kernel-equivalence property tests.

Every predictor that overrides ``simulate()`` with a vectorised kernel
(:mod:`repro.sim.kernels`) must be bit-identical to the generic scalar
predict-then-update loop -- from a fresh state, from a carried
(mid-trace) state, on every suite workload, and on random traces.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.predictors.base import simulate as generic_simulate
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.interference_free import (
    InterferenceFreeGshare,
    InterferenceFreePAs,
)
from repro.predictors.loop import LoopPredictor
from repro.predictors.pattern import (
    BlockPatternPredictor,
    FixedLengthPatternPredictor,
)
from repro.trace.trace import Trace
from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark

from conftest import trace_from_steps, trace_from_string

#: Every kernelised predictor, as (label, zero-arg factory).
KERNEL_FACTORIES = [
    ("bimodal-4b", lambda: BimodalPredictor(table_bits=4)),
    ("bimodal-12b", lambda: BimodalPredictor(table_bits=12)),
    ("bimodal-1bit", lambda: BimodalPredictor(table_bits=6, counter_bits=1)),
    ("if-gshare-0h", lambda: InterferenceFreeGshare(history_bits=0)),
    ("if-gshare-2h", lambda: InterferenceFreeGshare(history_bits=2)),
    ("if-gshare-8h", lambda: InterferenceFreeGshare(history_bits=8)),
    ("if-gshare-16h", lambda: InterferenceFreeGshare(history_bits=16)),
    ("if-pas-0h", lambda: InterferenceFreePAs(history_bits=0)),
    ("if-pas-2h", lambda: InterferenceFreePAs(history_bits=2)),
    ("if-pas-6h", lambda: InterferenceFreePAs(history_bits=6)),
    ("loop", LoopPredictor),
    ("block", BlockPatternPredictor),
    ("fixed-1", lambda: FixedLengthPatternPredictor(1)),
    ("fixed-3", lambda: FixedLengthPatternPredictor(3)),
    ("fixed-5", lambda: FixedLengthPatternPredictor(5)),
]

FACTORY_IDS = [label for label, _ in KERNEL_FACTORIES]
FACTORIES = [factory for _, factory in KERNEL_FACTORIES]


def random_trace(seed: int, n: int, num_branches: int, bias: float) -> Trace:
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, num_branches, n).astype(np.uint64) * np.uint64(4)
    pcs += np.uint64(0x1000)
    return Trace(pcs, pcs + np.uint64(16), rng.random(n) < bias)


@pytest.fixture(scope="module")
def suite_traces():
    return {name: load_benchmark(name, length=2500) for name in BENCHMARK_NAMES}


class TestKernelEquivalence:
    @pytest.mark.parametrize("factory", FACTORIES, ids=FACTORY_IDS)
    def test_all_suite_workloads(self, factory, suite_traces):
        for name, trace in suite_traces.items():
            fast = factory().simulate(trace)
            reference = generic_simulate(factory(), trace)
            assert np.array_equal(fast, reference), name

    @pytest.mark.parametrize("factory", FACTORIES, ids=FACTORY_IDS)
    def test_random_traces(self, factory):
        for seed in range(6):
            trace = random_trace(
                seed, n=400 + 137 * seed, num_branches=1 + 13 * seed,
                bias=(0.1, 0.5, 0.85, 0.97, 0.5, 0.3)[seed],
            )
            fast = factory().simulate(trace)
            reference = generic_simulate(factory(), trace)
            assert np.array_equal(fast, reference), seed

    @pytest.mark.parametrize("factory", FACTORIES, ids=FACTORY_IDS)
    def test_chained_simulate_carries_state(self, factory):
        """Two kernel calls must train across the split like one scalar run."""
        trace = load_benchmark("compress", length=3000)
        half = len(trace) // 2
        first, second = trace[:half], trace[half:]
        predictor = factory()
        fast = np.concatenate(
            [predictor.simulate(first), predictor.simulate(second)]
        )
        reference = generic_simulate(factory(), trace)
        assert np.array_equal(fast, reference)

    @pytest.mark.parametrize("factory", FACTORIES, ids=FACTORY_IDS)
    def test_edge_traces(self, factory):
        for spec in ("", "T", "N", "TN", "TTTN" * 12, "T" * 40, "NT" * 17):
            trace = trace_from_string(spec)
            fast = factory().simulate(trace)
            reference = generic_simulate(factory(), trace)
            assert np.array_equal(fast, reference), spec

    @settings(max_examples=40, deadline=None)
    @given(
        outcomes=st.lists(st.booleans(), max_size=120),
        pcs=st.lists(st.integers(0, 6), max_size=120),
        which=st.integers(0, len(KERNEL_FACTORIES) - 1),
    )
    def test_hypothesis_random(self, outcomes, pcs, which):
        n = min(len(outcomes), len(pcs))
        trace = Trace(
            np.asarray([0x400 + 4 * p for p in pcs[:n]], dtype=np.uint64),
            np.full(n, 0x80, dtype=np.uint64),
            np.asarray(outcomes[:n], dtype=bool),
        )
        factory = FACTORIES[which]
        fast = factory().simulate(trace)
        reference = generic_simulate(factory(), trace)
        assert np.array_equal(fast, reference)


#: The interference-free predictors, whose per-branch PHTs live in sorted
#: key/value arrays shared by the kernel and the scalar path.
INTERFERENCE_FREE = [
    ("if-gshare-8h", lambda: InterferenceFreeGshare(history_bits=8)),
    ("if-gshare-16h", lambda: InterferenceFreeGshare(history_bits=16)),
    ("if-pas-2h", lambda: InterferenceFreePAs(history_bits=2)),
    ("if-pas-6h", lambda: InterferenceFreePAs(history_bits=6)),
]
IF_IDS = [label for label, _ in INTERFERENCE_FREE]
IF_FACTORIES = [factory for _, factory in INTERFERENCE_FREE]


def assert_same_state(kernel, scalar):
    """Every state array of two interference-free predictors agrees."""
    for name in ("_rows", "_cells", "_registers"):
        if hasattr(scalar, name):
            left, right = getattr(kernel, name), getattr(scalar, name)
            assert np.array_equal(left.keys, right.keys), name
            assert np.array_equal(left.values, right.values), name
    assert getattr(kernel, "_history", 0) == getattr(scalar, "_history", 0)


@pytest.fixture(scope="module")
def gcc_trace():
    return load_benchmark("gcc", length=1800)


class TestKernelStateWriteback:
    def test_loop_entries_match_scalar(self):
        trace = trace_from_string("TTTN" * 8 + "TTN" * 5)
        kernel = LoopPredictor()
        kernel.simulate(trace)
        scalar = LoopPredictor()
        generic_simulate(scalar, trace)
        assert kernel.btb_size() == scalar.btb_size()
        for pc, entry in scalar._entries.items():
            other = kernel._entries[pc]
            assert (
                entry.direction, entry.expected,
                entry.run_length, entry.opposite_streak,
            ) == (
                other.direction, other.expected,
                other.run_length, other.opposite_streak,
            )

    def test_bimodal_table_matches_scalar(self):
        trace = load_benchmark("go", length=1500)
        kernel = BimodalPredictor(table_bits=6)
        kernel.simulate(trace)
        scalar = BimodalPredictor(table_bits=6)
        generic_simulate(scalar, trace)
        assert np.array_equal(kernel._table.raw, scalar._table.raw)

    def test_fixed_ring_matches_scalar(self):
        trace = load_benchmark("perl", length=1200)
        kernel = FixedLengthPatternPredictor(4)
        kernel.simulate(trace)
        scalar = FixedLengthPatternPredictor(4)
        generic_simulate(scalar, trace)
        assert kernel._state == scalar._state

    @pytest.mark.parametrize("factory", IF_FACTORIES, ids=IF_IDS)
    def test_interference_free_state_matches_scalar(self, factory, gcc_trace):
        kernel = factory()
        kernel.simulate(gcc_trace)
        scalar = factory()
        generic_simulate(scalar, gcc_trace)
        assert_same_state(kernel, scalar)

    @pytest.mark.parametrize("factory", IF_FACTORIES, ids=IF_IDS)
    def test_kernel_then_scalar_steps(self, factory, gcc_trace):
        predictor = factory()
        bitmap = np.concatenate([
            predictor.simulate(gcc_trace[:1100]),
            generic_simulate(predictor, gcc_trace[1100:]),
        ])
        assert np.array_equal(bitmap, generic_simulate(factory(), gcc_trace))

    @pytest.mark.parametrize("factory", IF_FACTORIES, ids=IF_IDS)
    def test_scalar_steps_then_kernel(self, factory, gcc_trace):
        predictor = factory()
        bitmap = np.concatenate([
            generic_simulate(predictor, gcc_trace[:700]),
            predictor.simulate(gcc_trace[700:]),
        ])
        assert np.array_equal(bitmap, generic_simulate(factory(), gcc_trace))

    @pytest.mark.parametrize("factory", IF_FACTORIES, ids=IF_IDS)
    def test_pickle_round_trip_between_windows(self, factory, gcc_trace):
        predictor = factory()
        first = predictor.simulate(gcc_trace[:900])
        restored = pickle.loads(pickle.dumps(predictor))
        bitmap = np.concatenate([first, restored.simulate(gcc_trace[900:])])
        assert np.array_equal(bitmap, generic_simulate(factory(), gcc_trace))

    @pytest.mark.parametrize(
        "make", [InterferenceFreeGshare, InterferenceFreePAs],
        ids=["if-gshare", "if-pas"],
    )
    def test_overflowing_keys_fall_back_to_the_scalar_loop(self, make):
        """Cell keys past 62 bits run the reference loop, same results.

        On a trace shorter than every history register no outcome is ever
        masked off, so the patterns -- and every prediction -- are those
        of any longer register.  The 40-bit kernel run is the reference
        for the 61-bit fallback (five rows push the keys past 62 bits)
        and the 70-bit one (the history itself outgrows int64), whole and
        chained across windows.
        """
        trace = random_trace(3, n=36, num_branches=5, bias=0.6)
        reference = make(40).simulate(trace)
        assert make(60)._kernel_fits(trace[:1])
        for bits in (61, 70):
            assert not make(bits)._kernel_fits(trace)
            assert np.array_equal(make(bits).simulate(trace), reference)
            chained = make(bits)
            bitmap = np.concatenate(
                [chained.simulate(trace[:10]), chained.simulate(trace[10:])]
            )
            assert np.array_equal(bitmap, reference)


def entry_state(predictor):
    """Every perfect-BTB entry of a loop, block or fixed-k predictor."""
    if isinstance(predictor, LoopPredictor):
        return {
            pc: (e.direction, e.expected, e.run_length, e.opposite_streak)
            for pc, e in predictor._entries.items()
        }
    if isinstance(predictor, BlockPatternPredictor):
        return {
            pc: (e.current_direction, e.run_length, dict(e.previous_run))
            for pc, e in predictor._entries.items()
        }
    return dict(predictor._state)


#: The run-length kernels and fixed-k, whose carried state the
#: window-edge cases below exercise.
RUN_FACTORIES = [
    ("loop", LoopPredictor),
    ("block", BlockPatternPredictor),
    ("fixed-1", lambda: FixedLengthPatternPredictor(1)),
    ("fixed-3", lambda: FixedLengthPatternPredictor(3)),
    ("fixed-32", lambda: FixedLengthPatternPredictor(32)),
]
RUN_IDS = [label for label, _ in RUN_FACTORIES]
RUN_MAKERS = [factory for _, factory in RUN_FACTORIES]


def assert_windows_match_scalar(factory, trace, bounds):
    """Kernel calls over ``trace`` cut at ``bounds`` equal one scalar
    replay, bitmap and final entry state."""
    scalar = factory()
    reference = generic_simulate(scalar, trace)
    kernel = factory()
    edges = [0, *bounds, len(trace)]
    bitmap = np.concatenate(
        [kernel.simulate(trace[a:b]) for a, b in zip(edges, edges[1:])]
    )
    assert np.array_equal(bitmap, reference), bounds
    assert entry_state(kernel) == entry_state(scalar), bounds


class TestRunLengthEdges:
    """Runs around the 255 saturation and window edges placed on purpose."""

    @pytest.mark.parametrize("factory", RUN_MAKERS, ids=RUN_IDS)
    @pytest.mark.parametrize("length", [254, 255, 256, 300])
    def test_saturating_loop_runs(self, factory, length):
        # A loop of `length` iterations, then one of 3, then `length`
        # again: the learned trip count saturates or not at each exit.
        spec = ("T" * length + "N") * 2 + "TTTN" * 2 + ("T" * length + "N") * 2
        trace = trace_from_string(spec)
        assert_windows_match_scalar(factory, trace, [])
        assert_windows_match_scalar(
            factory, trace, [length - 1, length, length + 1, 2 * length + 2]
        )

    @pytest.mark.parametrize("factory", RUN_MAKERS, ids=RUN_IDS)
    @pytest.mark.parametrize("length", [254, 255, 256, 300])
    def test_saturating_block_runs(self, factory, length):
        # Blocks of `length` taken and `length` not-taken, then short
        # blocks whose change predictions read the saturated lengths.
        spec = ("T" * length + "N" * length) * 2 + "TTNNN" * 3 + "T" * length
        trace = trace_from_string(spec)
        assert_windows_match_scalar(factory, trace, [])
        assert_windows_match_scalar(
            factory, trace, [length, length + 1, 2 * length - 1, 4 * length + 3]
        )

    @pytest.mark.parametrize("factory", RUN_MAKERS, ids=RUN_IDS)
    def test_loop_trace_split_after_every_position(self, factory):
        trace = trace_from_string("TTTNTTTNNTTNNNTNTNTTTN")
        for split in range(1, len(trace)):
            assert_windows_match_scalar(factory, trace, [split])

    def test_split_after_a_lone_exit_carries_streak_one(self):
        trace = trace_from_string("TTTNTTTNNTTTN")
        # Each window ends right after an exit outcome, so the carried
        # entry is mid-exit: the next window starts a body run (split 4)
        # or continues the exit run, flipping the direction bit (split 8).
        for split in (4, 8):
            first = LoopPredictor()
            first.simulate(trace[:split])
            assert first._entries[0x100].opposite_streak == 1
            assert_windows_match_scalar(LoopPredictor, trace, [split])

    @pytest.mark.parametrize("factory", RUN_MAKERS, ids=RUN_IDS)
    def test_new_branch_with_one_outcome_in_the_window(self, factory):
        steps = [(0x100, 0x80, taken) for taken in (1, 1, 1, 0, 1, 1, 1, 0)]
        late = [(0x104, 0x80, 0), (0x100, 0x80, 1)]
        after = [(0x104, 0x80, taken) for taken in (0, 0, 1, 0, 0, 1)]
        trace = trace_from_steps(steps + late + after)
        # 0x104's only outcome in the first window is its first (a
        # not-taken fallback miss), and it is the window's last branch.
        assert_windows_match_scalar(factory, trace, [9])
        assert_windows_match_scalar(factory, trace, [9, 10])
