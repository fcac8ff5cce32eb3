"""Best-of-k fixed-length scoring against the per-branch loop it replaces.

``best_fixed_length_correct`` (the lab and pool task) and the streamed
``fixed_best_count`` both reduce through one
``best_fixed_length_counts`` pass over the branch-sorted outcomes.
``reference_best_fixed`` below is the per-branch, per-k Python loop that
pass replaced, kept here as the specification: on random traces with few
distinct addresses (so ties between pattern lengths are common),
including the empty trace and branches shorter than ``k``, the bitmap
must be identical and the streamed count must equal its sum.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.analysis.streamed as streamed
import repro.predictors.pattern as pattern
from repro.analysis.streamed import FixedBestCount, fixed_best_count
from repro.predictors.pattern import (
    MAX_PATTERN_LENGTH,
    best_fixed_length_correct,
    best_fixed_length_counts,
)
from repro.trace.stream import TraceStream
from repro.trace.trace import Trace

# -- reference loop -------------------------------------------------------------


def reference_best_fixed(trace: Trace, max_k: int = MAX_PATTERN_LENGTH) -> np.ndarray:
    correct = np.zeros(len(trace), dtype=bool)
    for _pc, indices in trace.indices_by_pc().items():
        outcomes = trace.taken[indices]
        n = len(outcomes)
        best_bitmap = None
        best_count = -1
        for k in range(1, max_k + 1):
            bitmap = np.empty(n, dtype=bool)
            bitmap[:k] = outcomes[:k]
            if n > k:
                bitmap[k:] = outcomes[k:] == outcomes[:-k]
            count = int(bitmap.sum())
            if count > best_count:
                best_count = count
                best_bitmap = bitmap
        correct[indices] = best_bitmap
    return correct


def _trace(pcs, taken) -> Trace:
    pcs = [0x400 + 4 * p for p in pcs]
    return Trace(pcs, pcs, taken)


def _branch_sorted(trace: Trace):
    _pcs, ids, counts = trace.branch_index()
    return trace.taken[np.argsort(ids, kind="stable")], counts


steps = st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=160)


# -- properties -----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(steps=steps, max_k=st.integers(1, MAX_PATTERN_LENGTH))
def test_bitmap_matches_reference_loop(steps, max_k):
    trace = _trace([p for p, _ in steps], [t for _, t in steps])
    np.testing.assert_array_equal(
        best_fixed_length_correct(trace, max_k), reference_best_fixed(trace, max_k)
    )


@settings(max_examples=40, deadline=None)
@given(
    steps=steps,
    max_k=st.integers(1, MAX_PATTERN_LENGTH),
    chunk_branches=st.integers(1, 48),
)
def test_streamed_count_is_the_whole_trace_sum(steps, max_k, chunk_branches):
    trace = _trace([p for p, _ in steps], [t for _, t in steps])
    stream = TraceStream.from_trace(trace, chunk_branches=chunk_branches)
    assert fixed_best_count(stream.chunks(), max_k) == (
        int(best_fixed_length_correct(trace, max_k).sum()), len(trace)
    )


@settings(max_examples=60, deadline=None)
@given(
    steps=steps,
    max_k=st.integers(1, MAX_PATTERN_LENGTH),
    chunk_branches=st.integers(1, 48),
    block=st.integers(1, 64),
)
def test_blocked_count_is_the_whole_trace_sum(steps, max_k, chunk_branches, block):
    trace = _trace([p for p, _ in steps], [t for _, t in steps])
    stream = TraceStream.from_trace(trace, chunk_branches=chunk_branches)
    with mock.patch.object(streamed, "FIXED_BEST_BLOCK", block):
        assert fixed_best_count(stream.chunks(), max_k) == (
            int(best_fixed_length_correct(trace, max_k).sum()), len(trace)
        )


def test_suite_trace_matches_reference_loop(small_benchmark_trace):
    trace = small_benchmark_trace[:3000]
    reference = reference_best_fixed(trace)
    np.testing.assert_array_equal(best_fixed_length_correct(trace), reference)
    stream = TraceStream.from_trace(trace, chunk_branches=700)
    assert fixed_best_count(stream.chunks()) == (int(reference.sum()), len(trace))


# -- explicit cases -------------------------------------------------------------


class TestTiesAndShortBranches:
    def test_ties_go_to_the_shortest_k(self):
        # Period 2: k = 2, 4, 6, ... all predict every instance after the
        # fallback; k = 2 has the shortest fallback, so it wins outright.
        # Always-taken: every k scores everything, and k = 1 wins the tie.
        outcomes = np.array([True, False] * 20 + [True] * 12)
        best_k, best = best_fixed_length_counts(outcomes, [40, 12])
        assert best_k.tolist() == [2, 1]
        assert best.tolist() == [39, 12]

    def test_equal_scores_keep_the_earlier_k(self):
        # T N N T: k = 1 and k = 3 each score 2; k = 4 and above score
        # the two taken outcomes of the fallback; k = 1 is kept.
        outcomes = np.array([True, False, False, True])
        best_k, best = best_fixed_length_counts(outcomes, [4], max_k=8)
        assert (best_k.tolist(), best.tolist()) == ([1], [2])

    def test_branch_shorter_than_k_scores_its_taken_outcomes(self):
        trace = _trace([0, 0, 0, 1], [False, True, True, False])
        _outcomes, counts = _branch_sorted(trace)
        assert counts.tolist() == [3, 1]
        for max_k in (3, 4, 32):
            np.testing.assert_array_equal(
                best_fixed_length_correct(trace, max_k),
                reference_best_fixed(trace, max_k),
            )

    def test_max_k_below_32(self):
        # Period 5 is only found once k may reach 5.
        trace = _trace([0] * 50, [True, True, False, True, False] * 10)
        assert best_fixed_length_correct(trace, max_k=5)[5:].all()
        assert not best_fixed_length_correct(trace, max_k=4)[5:].all()

    def test_empty_trace(self):
        empty = Trace.empty()
        assert best_fixed_length_correct(empty).shape == (0,)
        assert fixed_best_count([]) == (0, 0)
        assert fixed_best_count([empty]) == (0, 0)

    def test_byte_table_popcount_matches_numpy(self, monkeypatch):
        words = np.random.default_rng(5).integers(
            0, 1 << 62, 64, dtype=np.int64
        ).astype("<u8")
        expected = [bin(int(word)).count("1") for word in words]
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        assert pattern._popcount(words).tolist() == expected


@pytest.mark.parametrize("max_k", [1, 7, MAX_PATTERN_LENGTH])
def test_counts_are_the_bitmap_sums(small_benchmark_trace, max_k):
    trace = small_benchmark_trace[:2500]
    outcomes, counts = _branch_sorted(trace)
    _best_k, best = best_fixed_length_counts(outcomes, counts, max_k)
    np.testing.assert_array_equal(
        best, trace.branch_sums(best_fixed_length_correct(trace, max_k))
    )


def test_blocked_reduction_memory_does_not_grow_with_the_run():
    # 4M outcomes over 64 branches in 65536-branch windows: the packed
    # windows are n/8 bytes, and the reduction adds at most a quarter of
    # n on top (one unblocked layout would add n bytes of bools alone).
    rng = np.random.default_rng(11)
    total = 1 << 22
    pcs = 0x400 + 4 * rng.integers(0, 64, total).astype(np.uint64)
    trace = Trace(pcs, pcs, rng.random(total) < 0.7)
    fold = FixedBestCount()
    for window in TraceStream.from_trace(trace, chunk_branches=1 << 16).chunks():
        fold.add(window)
    fold.result()  # first call pays one-time imports
    tracemalloc.start()
    try:
        counted = fold.result()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < total // 4
    with mock.patch.object(streamed, "FIXED_BEST_BLOCK", total):
        assert fold.result() == counted
    assert counted == (int(best_fixed_length_correct(trace).sum()), total)


@pytest.mark.parametrize("block", [MAX_PATTERN_LENGTH, 40, 64])
def test_long_branches_reduce_in_overlapping_pieces(monkeypatch, block):
    # Branches spanning one to four blocks, beside shorter ones, with
    # periodic outcomes plus noise so different pattern lengths win:
    # the piecewise count equals the whole-branch bitmap's sum for any
    # window size.
    rng = np.random.default_rng(block)
    lengths = np.array([block // 3, block, block + 1, 2 * block + 5,
                        3 * block, 4 * block - 1, 4 * block])
    branch = rng.permutation(np.repeat(np.arange(len(lengths)), lengths))
    rank = np.zeros(len(branch), dtype=np.int64)
    for b in range(len(lengths)):
        rank[branch == b] = np.arange(lengths[b])
    period = 1 + np.arange(len(lengths)) * 5
    taken = (rank % period[branch] < (period[branch] + 1) // 2) ^ (
        rng.random(len(branch)) < 0.05
    )
    pcs = (0x400 + 4 * branch).astype(np.uint64)
    trace = Trace(pcs, pcs, taken)
    expected = (int(best_fixed_length_correct(trace).sum()), len(trace))

    pieces = []
    whole = FixedBestCount._long_branch
    monkeypatch.setattr(FixedBestCount, "_long_branch", lambda self, row, count, *rest: (
        pieces.append(count) or whole(self, row, count, *rest)))
    monkeypatch.setattr(streamed, "FIXED_BEST_BLOCK", block)
    for chunk in (7, 50, 1 << 16):
        assert fixed_best_count(
            TraceStream.from_trace(trace, chunk_branches=chunk).chunks()
        ) == expected
    assert sorted(set(pieces)) == sorted(n for n in lengths.tolist() if n > block)
