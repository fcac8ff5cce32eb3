"""Vectorised whole-trace kernels for per-address predictors.

The scalar predict/update loop costs a few microseconds of Python per
dynamic branch.  For predictors whose state is partitioned by address --
interference-free PAs, the loop and block-pattern predictors,
fixed-length patterns, address-indexed counter tables -- the whole trace
runs as array passes instead:

* **Saturating counters** (bimodal, interference-free PAs) are one
  grouped-counter pass (:func:`repro.sim.scan._grouped_counter_correct`)
  over each instance's counter cell: the table index for bimodal,
  ``(branch row << h) | own history`` for interference-free PAs, whose
  per-branch history registers come from one grouped shift of the trace
  sorted by branch.
* The **loop** and **block-pattern** predictors are defined in terms of
  outcome runs, so run-length encoding *is* their natural time base:
  each branch's runs are O(1) state-machine work regardless of length.
* A **fixed-length-k pattern** prediction is a k-shifted comparison of
  the branch's own outcome column.

Every kernel is exact: it consumes the predictor's current state
(fresh or previously trained), produces the bit-identical correctness
bitmap of the scalar loop, and writes the final state back so chained
``simulate()`` calls keep training, just as the scalar loop would.
Equivalence is enforced by the PC009 contract check
(:func:`repro.check.contracts.run_contract_suite`) and by the property
tests in ``tests/test_sim_kernels.py``.

Kernels intentionally reach into their predictor's private state; they
are the other half of each predictor's implementation, kept here so the
scalar semantics in ``repro.predictors`` stay readable on their own.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.obs.metrics import METRICS
from repro.sim.scan import (
    _branch_rows,
    _grouped_counter_correct,
    _grouped_history_stream,
)
from repro.trace.trace import Trace

__all__ = [
    "simulate_bimodal",
    "simulate_block_pattern",
    "simulate_fixed_pattern",
    "simulate_if_pas",
    "simulate_loop",
]


# -- shared run-length machinery ------------------------------------------


def _runs(outcomes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run-length encode a boolean outcome sequence.

    Returns ``(directions, lengths, starts)``: one entry per maximal run
    of equal outcomes, in order.
    """
    m = len(outcomes)
    change = np.nonzero(outcomes[1:] != outcomes[:-1])[0] + 1
    starts = np.concatenate(([0], change))
    lengths = np.diff(np.concatenate((starts, [m])))
    return outcomes[starts], lengths, starts


# -- address-indexed counter table (bimodal) ------------------------------


def simulate_bimodal(predictor, trace: Trace) -> np.ndarray:
    """Kernel for :class:`~repro.predictors.bimodal.BimodalPredictor`.

    Branches aliasing to the same table index share a counter, so the
    table index is the counter cell of one grouped-counter pass.
    """
    METRICS.inc("sim.kernel_fastpath")
    table = predictor._table
    indices = np.bitwise_and(
        trace.pc >> np.uint64(2), np.uint64(predictor._mask)
    ).astype(np.int64)
    return _grouped_counter_correct(
        indices, trace.taken, table.raw, table.threshold, table.max_value,
        len(table),
    )


# -- interference-free PAs ------------------------------------------------


def simulate_if_pas(predictor, trace: Trace) -> np.ndarray:
    """Kernel for
    :class:`~repro.predictors.interference_free.InterferenceFreePAs`.

    Each branch's own history register before every step is one grouped
    shift of the trace sorted by branch; the cell key ``(row << h) |
    history`` then runs every (branch, pattern) counter in one pass.
    """
    METRICS.inc("sim.kernel_fastpath")
    n = len(trace)
    if n == 0:
        return np.zeros(0, dtype=bool)
    history_bits = predictor._history_bits
    pcs, ids, _counts = trace.branch_index()
    rows = _branch_rows(predictor._rows, trace)
    registers = predictor._registers[pcs]
    history = _grouped_history_stream(
        ids, len(pcs), trace.taken.astype(np.int64), history_bits,
        predictor._history_mask, registers,
    )
    predictor._registers[pcs] = registers
    keys = (rows[ids] << history_bits) | history
    return _grouped_counter_correct(
        keys, trace.taken, predictor._cells, predictor._cells.threshold,
        predictor._cells.max_value, len(predictor._rows) << history_bits,
    )


# -- loop predictor -------------------------------------------------------


def simulate_loop(predictor, trace: Trace) -> np.ndarray:
    """Kernel for :class:`~repro.predictors.loop.LoopPredictor`.

    The loop predictor's state machine advances on direction *changes*,
    so run-length encoding each branch's outcome column reduces every
    run -- however long -- to O(1) closed-form work:

    * a run matching the direction bit is predicted correctly while the
      run counter is below the expected trip count (all of it when the
      trip count is unknown/saturated);
    * a run opposing the direction bit is the exit prediction (correct
      iff the trip count had been learned), followed -- if it repeats --
      by one misprediction and a direction-bit flip.
    """
    METRICS.inc("sim.kernel_fastpath")
    from repro.predictors.loop import MAX_TRIP_COUNT, _LoopEntry

    n = len(trace)
    correct = np.zeros(n, dtype=bool)
    entries = predictor._entries
    taken = trace.taken
    for pc, indices in trace.indices_by_pc().items():
        outcomes = taken[indices]
        m = len(outcomes)
        branch_correct = np.empty(m, dtype=bool)
        directions, lengths, starts = _runs(outcomes)
        entry = entries.get(pc)
        first_run_offset = 0
        if entry is None:
            # Unseen branch: the first prediction is the taken fallback,
            # then the entry trains from that first outcome.
            branch_correct[0] = bool(outcomes[0])
            entry = _LoopEntry(bool(outcomes[0]))
            entries[pc] = entry
            first_run_offset = 1
        direction = entry.direction
        expected = entry.expected
        run_length = entry.run_length
        streak = entry.opposite_streak
        for r, (d, length, start) in enumerate(
            zip(directions.tolist(), lengths.tolist(), starts.tolist())
        ):
            if r == 0 and first_run_offset:
                start += 1
                length -= 1
                if length == 0:
                    continue
            end = start + length
            if d == direction:
                # Body-direction run: correct while run_length < expected.
                if expected >= MAX_TRIP_COUNT:
                    prefix = length
                else:
                    prefix = min(max(expected - run_length, 0), length)
                branch_correct[start:start + prefix] = True
                branch_correct[start + prefix:end] = False
                run_length = min(run_length + length, MAX_TRIP_COUNT)
                streak = 0
            else:
                # Exit-direction run.  The first outcome is the loop
                # exit: predicted iff the trip count had been learned
                # and reached.  A second consecutive exit outcome means
                # the direction bit is wrong: one more misprediction
                # (unless the expected count was 0), then the bit flips
                # and the rest of the run matches the new direction.
                branch_correct[start] = (
                    expected < MAX_TRIP_COUNT and run_length >= expected
                )
                if streak == 1:
                    # A carried-over exit outcome: this one makes two.
                    direction = d
                    expected = MAX_TRIP_COUNT
                    run_length = min(length + 1, MAX_TRIP_COUNT)
                    streak = 0
                    branch_correct[start + 1:end] = True
                elif length == 1:
                    expected = run_length
                    run_length = 0
                    streak = 1
                else:
                    branch_correct[start + 1] = run_length == 0
                    branch_correct[start + 2:end] = True
                    direction = d
                    expected = MAX_TRIP_COUNT
                    run_length = min(length, MAX_TRIP_COUNT)
                    streak = 0
        entry.direction = direction
        entry.expected = expected
        entry.run_length = run_length
        entry.opposite_streak = streak
        correct[indices] = branch_correct
    return correct


# -- block-pattern predictor ----------------------------------------------


def simulate_block_pattern(predictor, trace: Trace) -> np.ndarray:
    """Kernel for :class:`~repro.predictors.pattern.BlockPatternPredictor`.

    Like the loop kernel: the block predictor tracks the previous run
    length of each direction, so RLE runs are its native time base.  A
    run in the current direction is predicted correctly while the run
    counter is below that direction's previous run length; a direction
    change is predicted correctly iff the completed run matched it.
    """
    METRICS.inc("sim.kernel_fastpath")
    from repro.predictors.pattern import MAX_RUN_LENGTH, _BlockEntry

    n = len(trace)
    correct = np.zeros(n, dtype=bool)
    entries = predictor._entries
    taken = trace.taken
    for pc, indices in trace.indices_by_pc().items():
        outcomes = taken[indices]
        m = len(outcomes)
        branch_correct = np.empty(m, dtype=bool)
        directions, lengths, starts = _runs(outcomes)
        entry = entries.get(pc)
        first_run_offset = 0
        if entry is None:
            branch_correct[0] = bool(outcomes[0])  # taken fallback
            entry = _BlockEntry(bool(outcomes[0]))
            entries[pc] = entry
            first_run_offset = 1
        current = entry.current_direction
        run_length = entry.run_length
        previous = entry.previous_run
        for r, (d, length, start) in enumerate(
            zip(directions.tolist(), lengths.tolist(), starts.tolist())
        ):
            if r == 0 and first_run_offset:
                start += 1
                length -= 1
                if length == 0:
                    continue
            end = start + length
            if d != current:
                # Direction change: predicted iff the completed run had
                # reached the previous length of its direction.
                branch_correct[start] = run_length >= previous[current]
                previous[current] = run_length
                current = d
                run_length = 1
                start += 1
                length -= 1
            # Same-direction steps: correct while the run counter is
            # below this direction's previous run length.
            if length:
                prefix = min(max(previous[current] - run_length, 0), length)
                branch_correct[start:start + prefix] = True
                branch_correct[start + prefix:end] = False
                run_length = min(run_length + length, MAX_RUN_LENGTH)
        entry.current_direction = current
        entry.run_length = run_length
        correct[indices] = branch_correct
    return correct


# -- fixed-length pattern predictor ---------------------------------------


def simulate_fixed_pattern(predictor, trace: Trace) -> np.ndarray:
    """Kernel for
    :class:`~repro.predictors.pattern.FixedLengthPatternPredictor`.

    Prediction ``i`` of a branch is its own outcome ``k`` executions
    ago (taken while fewer than ``k`` outcomes have been seen): a
    shifted self-comparison of the branch's outcome column.
    """
    METRICS.inc("sim.kernel_fastpath")
    k = predictor._k
    state = predictor._state
    n = len(trace)
    correct = np.zeros(n, dtype=bool)
    taken = trace.taken
    for pc, indices in trace.indices_by_pc().items():
        outcomes = taken[indices]
        m = len(outcomes)
        carried = state.get(pc)
        if carried is None:
            seen = 0
            previous = np.zeros(0, dtype=bool)
        else:
            ring, position, seen = carried
            if seen >= k:
                chronological = ring[position:] + ring[:position]
            else:
                chronological = ring[:seen]
            previous = np.asarray(chronological, dtype=bool)
        p = len(previous)  # == min(seen, k)
        extended = np.concatenate((previous, outcomes))
        branch_correct = np.empty(m, dtype=bool)
        fallback = min(max(k - p, 0), m)  # instances predicted "taken"
        branch_correct[:fallback] = outcomes[:fallback]
        if m > fallback:
            branch_correct[fallback:] = (
                outcomes[fallback:] == extended[p + fallback - k:p + m - k]
            )
        correct[indices] = branch_correct
        total = seen + m
        ring = [False] * k
        if total >= k:
            tail = extended[-k:]
            position = total % k
            for j in range(k):
                ring[(position + j) % k] = bool(tail[j])
        else:
            position = total
            for j in range(total):
                ring[j] = bool(extended[j])
        state[pc] = (ring, position % k, total)
    return correct
