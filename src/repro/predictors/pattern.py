"""Repeating-pattern predictors of section 4.1.2.

Two subsets:

* **Fixed-length patterns** -- a branch repeating an arbitrary outcome
  pattern of length ``k`` has the same outcome as ``k`` executions ago.
  The paper simulates 32 predictors (k = 1..32) and scores each branch by
  the best of them.
* **Block patterns** -- taken ``n`` times, then not-taken ``m`` times,
  repeating.  The predictor tracks the previous run length of each
  direction in a perfect BTB and predicts a run of the same length.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.predictors.base import BranchPredictor
from repro.trace.trace import Trace

#: Largest fixed pattern length the paper examines.
MAX_PATTERN_LENGTH = 32

#: Run lengths are capped below 256, as in the loop predictor.
MAX_RUN_LENGTH = 255


class FixedLengthPatternPredictor(BranchPredictor):
    """Predict the same direction the branch took ``k`` executions ago.

    Per-branch outcome queues live in a perfect BTB (unbounded dict).
    Until ``k`` outcomes have been observed for a branch, the predictor
    falls back to predicting taken.

    Args:
        k: Pattern length; 1 <= k <= :data:`MAX_PATTERN_LENGTH`.
    """

    name = "fixed-pattern"

    def __init__(self, k: int) -> None:
        if not 1 <= k <= MAX_PATTERN_LENGTH:
            raise ValueError(
                f"pattern length must be in [1, {MAX_PATTERN_LENGTH}], got {k}"
            )
        self._k = k
        # pc -> (ring buffer of the last k outcomes, next write position,
        #        count of outcomes seen)
        self._state: Dict[int, Tuple[list, int, int]] = {}
        self.name = f"fixed-{k}"

    @property
    def k(self) -> int:
        return self._k

    def predict(self, pc: int, target: int) -> bool:
        state = self._state.get(pc)
        if state is None or state[2] < self._k:
            return True
        ring, position, _count = state
        # The outcome from exactly k executions ago is the next slot to be
        # overwritten.
        return ring[position]

    def update(self, pc: int, target: int, taken: bool) -> None:
        state = self._state.get(pc)
        if state is None:
            ring = [False] * self._k
            ring[0] = taken
            self._state[pc] = (ring, 1 % self._k, 1)
            return
        ring, position, count = state
        ring[position] = taken
        self._state[pc] = (ring, (position + 1) % self._k, count + 1)

    def simulate(self, trace: Trace) -> np.ndarray:
        """Shift-compare fast path (see :mod:`repro.sim.kernels`)."""
        from repro.sim.kernels import simulate_fixed_pattern

        return simulate_fixed_pattern(self, trace)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 word (at most 64, so uint8)."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(words)
    bits = np.unpackbits(words.view(np.uint8)).reshape(-1, 64)
    return bits.sum(axis=1, dtype=np.uint8)


def fixed_length_counts(
    outcomes: np.ndarray,
    counts: np.ndarray,
    max_k: int = MAX_PATTERN_LENGTH,
    context: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Correct predictions of every fixed pattern length, per segment.

    ``outcomes`` holds each segment's outcomes in order, segment after
    segment, ``counts`` their lengths.  Returns a ``(len(counts),
    max_k)`` table whose column ``k - 1`` counts each segment's correct
    fixed-length-``k`` predictions.  ``context`` (default all 0) gives
    each segment's leading outcomes that are history only: 0 for a
    whole branch, whose first ``k`` predictions are the taken fallback;
    at least ``max_k`` for a later piece of a long branch, whose scored
    outcomes all have their ``k``-back outcome in the segment.

    One segment reduction per ``k``: the fallback predictions are read
    off one cumulative sum of each segment's head; the rest compare the
    outcomes packed 64 to a word with themselves shifted ``k`` bits, and
    a cumulative popcount gives each segment's mismatches over its
    scored range.  Beside ``outcomes`` itself no temporary exceeds n/8
    bytes.
    """
    counts = np.asarray(counts, dtype=np.int64)
    skip = (
        np.zeros(len(counts), dtype=np.int64)
        if context is None
        else np.asarray(context, dtype=np.int64)
    )
    starts = np.cumsum(counts) - counts
    ends = starts + counts
    lanes = np.arange(max_k)
    in_head = (lanes < counts[:, None]) & (skip == 0)[:, None]
    head = np.zeros((len(counts), max_k), dtype=np.uint8)
    head[in_head] = outcomes[(starts[:, None] + lanes)[in_head]]
    table = np.cumsum(head, axis=1, dtype=np.int64)
    # Bit p of the word stream is outcome p; one spare zero word lets
    # every shift read the word after its own.
    packed = np.packbits(outcomes, bitorder="little")
    words = np.zeros(len(outcomes) // 64 + 2, dtype="<u8")
    words.view(np.uint8)[:len(packed)] = packed
    for k in range(1, max_k + 1):
        scored = starts + np.maximum(skip, k)
        longer = np.nonzero(ends > scored)[0]
        if not len(longer):
            continue
        # Bit p of `differs`: outcome p + k differs from outcome p.
        differs = words[:-1] ^ (
            (words[:-1] >> np.uint64(k)) | (words[1:] << np.uint64(64 - k))
        )
        bits = _popcount(differs)
        before = np.cumsum(bits, dtype=np.int64) - bits
        # Mismatches in [0, edge) for every segment's first and last
        # compared position: whole words before, then the low bits.
        edges = np.concatenate((scored[longer] - k, ends[longer] - k))
        word = edges >> 6
        low = (np.uint64(1) << (edges & 63).astype(np.uint64)) - np.uint64(1)
        mismatches = before[word] + _popcount(differs[word] & low)
        first, last = np.split(mismatches, 2)
        table[longer, k - 1] += ends[longer] - scored[longer] - (last - first)
    return table


def best_fixed_length_counts(
    outcomes: np.ndarray, counts: np.ndarray, max_k: int = MAX_PATTERN_LENGTH
) -> Tuple[np.ndarray, np.ndarray]:
    """Best fixed pattern length of every static branch, and its score.

    ``outcomes`` holds each branch's outcomes in order, branch after
    branch (the ``Trace.branch_index()`` order), ``counts`` their
    lengths.  Returns per branch the shortest ``k <= max_k`` with the
    most correct fixed-length-``k`` predictions
    (:func:`fixed_length_counts`), and that count.
    """
    table = fixed_length_counts(outcomes, counts, max_k)
    best_k = np.argmax(table, axis=1)  # the first maximum: shortest k
    return best_k + 1, table[np.arange(len(table)), best_k]


def best_fixed_length_correct(
    trace: Trace, max_k: int = MAX_PATTERN_LENGTH
) -> np.ndarray:
    """Best-of-k fixed-length correctness, per static branch.

    The paper runs all 32 fixed-length predictors and uses, for each
    branch, the accuracy of the best one (ties toward the shortest
    ``k``).  Returns the correctness bitmap where each branch's instances
    use its individually best ``k``.
    """
    _pcs, ids, counts = trace.branch_index()
    order = np.argsort(ids, kind="stable")
    outcomes = trace.taken[order]
    best_k, _best = best_fixed_length_counts(outcomes, counts, max_k)
    # Instance p of a branch predicts instance p - k's outcome, or taken
    # while fewer than k outcomes have been seen.
    k = np.repeat(best_k, counts)
    position = np.arange(len(outcomes))
    rank = position - np.repeat(np.cumsum(counts) - counts, counts)
    predicted = np.where(
        rank < k, True, outcomes[np.maximum(position - k, 0)]
    )
    correct = np.empty(len(outcomes), dtype=bool)
    correct[order] = predicted == outcomes
    return correct


class _BlockEntry:
    """Per-branch block-pattern state (one perfect-BTB entry)."""

    __slots__ = ("current_direction", "run_length", "previous_run")

    def __init__(self, first_outcome: bool) -> None:
        self.current_direction = first_outcome
        self.run_length = 1
        # previous_run[d]: length of the last completed run of direction d.
        # Unknown runs saturate so the predictor keeps predicting the
        # current direction until it learns the block lengths.
        self.previous_run = {True: MAX_RUN_LENGTH, False: MAX_RUN_LENGTH}

    def predict(self) -> bool:
        if self.run_length < self.previous_run[self.current_direction]:
            return self.current_direction
        return not self.current_direction

    def update(self, taken: bool) -> None:
        if taken == self.current_direction:
            if self.run_length < MAX_RUN_LENGTH:
                self.run_length += 1
        else:
            self.previous_run[self.current_direction] = self.run_length
            self.current_direction = taken
            self.run_length = 1


class BlockPatternPredictor(BranchPredictor):
    """Block-pattern predictor: n taken, m not-taken, repeating.

    After the n-th consecutive taken outcome the branch is predicted
    not-taken for the m observed on the previous not-taken block, and
    symmetrically (section 4.1.2).  Counts are capped below 256 and kept
    in a perfect BTB.
    """

    name = "block-pattern"

    def __init__(self) -> None:
        self._entries: Dict[int, _BlockEntry] = {}

    def predict(self, pc: int, target: int) -> bool:
        entry = self._entries.get(pc)
        if entry is None:
            return True
        return entry.predict()

    def update(self, pc: int, target: int, taken: bool) -> None:
        entry = self._entries.get(pc)
        if entry is None:
            self._entries[pc] = _BlockEntry(taken)
        else:
            entry.update(taken)

    def simulate(self, trace: Trace) -> np.ndarray:
        """Run-length fast path (see :mod:`repro.sim.kernels`)."""
        from repro.sim.kernels import simulate_block_pattern

        return simulate_block_pattern(self, trace)

    def btb_size(self) -> int:
        """Number of perfect-BTB entries allocated so far."""
        return len(self._entries)
