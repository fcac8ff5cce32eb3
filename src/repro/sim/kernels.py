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
  outcome runs, so run-length encoding *is* their natural time base.
  The window's runs are cut branch by branch in the branch-sorted
  layout (:meth:`~repro.trace.trace.Trace.branch_order`), with three
  virtual runs before each branch's runs that encode its carried
  entry; every rule is then a fixed shift over that run column.
* A **fixed-length-k pattern** prediction is a k-shifted comparison of
  the branch-sorted outcome column, each branch's carried last ``k``
  outcomes laid before its window outcomes.

No kernel loops per run or per dynamic branch; the per-address ones
gather and write back their perfect-BTB dict entries once per static
branch.

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
    _wrong_prefix_fill,
)
from repro.trace.trace import Trace

__all__ = [
    "simulate_bimodal",
    "simulate_block_pattern",
    "simulate_fixed_pattern",
    "simulate_if_pas",
    "simulate_loop",
]


# -- branch-sorted layout and run-length machinery -------------------------


def _branch_sorted(trace: Trace) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(pcs, starts, outcomes)``: the window's outcome column sorted by
    branch, and where each ``pcs`` branch's executions start in it."""
    pcs, _ids, counts = trace.branch_index()
    starts = np.cumsum(counts) - counts
    return pcs, starts, trace.taken[trace.branch_order()]


def _branch_runs(
    outcomes: np.ndarray, starts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run-length encode a branch-sorted outcome column, branch by branch.

    Returns ``(run_starts, run_lengths, first_run)``: one entry per
    maximal run of equal outcomes of one branch, in order, and the index
    of each branch's first run.
    """
    n = len(outcomes)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(outcomes[1:], outcomes[:-1], out=boundary[1:])
    boundary[starts] = True
    run_starts = np.flatnonzero(boundary)
    run_lengths = np.diff(run_starts, append=n)
    return run_starts, run_lengths, np.searchsorted(run_starts, starts)


def _extended_runs(
    run_lengths: np.ndarray,
    first_run: np.ndarray,
    merged: np.ndarray,
    offset: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The run-length kernels' extended run column.

    Each branch's block holds three virtual runs that encode its carried
    state, then its window runs.  A first window run that continues the
    carried run is ``merged`` into the last virtual run, which already
    holds ``offset`` carried outcomes.  Returns ``(ext_of_run, virtual,
    lengths, run_offset)``: each window run's extended index, each
    branch's first virtual run, every extended run's length (0 for the
    first two virtual runs, which the caller fills), and how many
    outcomes of each window run's run came before the window.
    """
    run_count = len(run_lengths)
    branches = len(first_run)
    merged_before = np.cumsum(merged) - merged
    virtual = 3 * np.arange(branches) + first_run - merged_before
    runs_per_branch = np.diff(first_run, append=run_count)
    ext_of_run = np.arange(run_count) + np.repeat(
        virtual + 3 - merged - first_run, runs_per_branch
    )
    size = run_count + 3 * branches - int(np.count_nonzero(merged))
    lengths = np.zeros(size, dtype=np.int64)
    lengths[ext_of_run] = run_lengths
    lengths[virtual + 2] += offset
    run_offset = np.zeros(run_count, dtype=np.int64)
    run_offset[first_run[merged]] = offset[merged]
    return ext_of_run, virtual, lengths, run_offset


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
    so its rules read whole runs of a branch's outcome column.  A run is
    a *body* run (in the direction bit's direction) iff the run before
    it was an exit run of length 1; every other run is an *exit* run,
    whose second outcome flips the direction bit.  With ``E[j]`` the run
    counter at the end of run ``j`` (capped at 255; 0 after a lone exit
    outcome):

    * position ``i`` of a body run is correct iff ``E[j-2] >= 255`` (the
      trip count is unknown) or ``i < E[j-2]`` (the learned trip count);
    * an exit run's first outcome is correct iff run ``j-1`` is a body
      run, ``E[j-3] < 255`` and ``E[j-1] >= E[j-3]``; its second iff
      ``E[j-1] == 0``; the rest match the flipped direction bit.

    Each branch's carried :class:`~repro.predictors.loop._LoopEntry`
    becomes three virtual runs before its window runs, so every rule is
    a fixed shift over one extended run column.  Within a chain of
    length-1 runs body and exit alternate, so a run's kind is the parity
    of its distance to the last *anchor*: a run after a run of length 2
    or more, which is always an exit run.
    """
    METRICS.inc("sim.kernel_fastpath")
    from repro.predictors.loop import MAX_TRIP_COUNT, _LoopEntry

    n = len(trace)
    if n == 0:
        return np.zeros(0, dtype=bool)
    pcs, starts, outcomes = _branch_sorted(trace)
    run_starts, run_lengths, first_run = _branch_runs(outcomes, starts)
    first = outcomes[starts]
    # A new branch enters as a body run of length 0 in its first
    # outcome's direction: its first run continues that run, and only
    # its first prediction (the taken fallback) is patched in below.
    entries = predictor._entries
    found = [entries.get(pc) for pc in pcs.tolist()]
    direction, expected, run_length, streak = np.array(
        [
            (taken, MAX_TRIP_COUNT, 0, 0) if entry is None
            else (entry.direction, entry.expected, entry.run_length,
                  entry.opposite_streak)
            for entry, taken in zip(found, first.tolist())
        ],
        dtype=np.int64,
    ).reshape(-1, 4).T
    lone_exit = streak == 1
    # The virtual runs.  Streak 0: (D, E=expected), (not D, a lone exit),
    # then the body run in progress, (D, E=run_length).  Streak 1: (not D),
    # (D, E=expected), then the exit in progress, (not D, one outcome in).
    # The merged run continues the carried body run, run_length outcomes
    # in, or the carried exit, one outcome in.
    merged = outcomes[run_starts[first_run]] == (direction != lone_exit)
    ext_of_run, virtual, raw, run_offset = _extended_runs(
        run_lengths, first_run, merged, np.where(lone_exit, 1, run_length)
    )
    raw[virtual] = 2
    raw[virtual + 1] = np.where(lone_exit, 2, 1)
    index = np.arange(len(raw))
    anchor = np.zeros(len(raw), dtype=bool)
    anchor[1:] = raw[:-1] >= 2
    anchor[virtual] = True
    body = ((index - np.maximum.accumulate(np.where(anchor, index, 0))) & 1) == 1
    ends = np.where(~body & (raw == 1), 0, np.minimum(raw, MAX_TRIP_COUNT))
    ends[virtual] = np.where(lone_exit, MAX_TRIP_COUNT, expected)
    ends[virtual + 1] = np.where(lone_exit, expected, 0)

    run_body = body[ext_of_run]
    trip = ends[ext_of_run - 2]
    # A body run is correct while below the trip count, then wrong.
    correct = ~_wrong_prefix_fill(
        run_starts, run_lengths,
        np.where(run_body & (trip < MAX_TRIP_COUNT), trip - run_offset,
                 run_lengths),
        n,
    )
    # Exit runs: patch the first and second outcomes.  Only a merged run
    # reads before its branch's virtual runs (index -1 for branch 0), and
    # a merged exit run has no first outcome in the window.
    previous = ends[ext_of_run - 1]
    learned = ends[ext_of_run - 3]
    first_hit = (
        body[ext_of_run - 1] & (learned < MAX_TRIP_COUNT) & (previous >= learned)
    )
    heads = ~run_body & (run_offset == 0)
    correct[run_starts[heads]] = first_hit[heads]
    seconds = ~run_body & (run_offset + run_lengths >= 2)
    correct[(run_starts + 1 - run_offset)[seconds]] = (previous == 0)[seconds]
    new = np.fromiter((entry is None for entry in found), bool, len(found))
    correct[starts[new]] = first[new]

    # Write each branch's state after its last run back (O(static
    # branches)): a body run leaves the trip count E[J-2] learned, a lone
    # exit outcome leaves streak 1 and its E[J-1], a longer exit run has
    # flipped the direction bit.
    last = np.append(virtual[1:], len(raw)) - 1
    last_direction = outcomes[np.append(starts[1:], n) - 1]
    lone = ~body[last] & (raw[last] == 1)
    final_expected = np.where(
        body[last], ends[last - 2],
        np.where(lone, ends[last - 1], MAX_TRIP_COUNT),
    )
    for pc, entry, d, x, r, s in zip(
        pcs.tolist(), found, (last_direction != lone).tolist(),
        final_expected.tolist(), ends[last].tolist(), lone.tolist(),
    ):
        if entry is None:
            entry = entries[pc] = _LoopEntry(d)
        entry.direction = d
        entry.expected = x
        entry.run_length = r
        entry.opposite_streak = int(s)
    result = np.empty(n, dtype=bool)
    result[trace.branch_order()] = correct
    return result


# -- block-pattern predictor ----------------------------------------------


def simulate_block_pattern(predictor, trace: Trace) -> np.ndarray:
    """Kernel for :class:`~repro.predictors.pattern.BlockPatternPredictor`.

    Like the loop kernel: the block predictor tracks the previous run
    length of each direction, so runs are its native time base.  With
    ``E[j]`` the length of run ``j`` capped at 255, a direction change
    at run ``j`` is correct iff ``E[j-1] >= E[j-3]`` (the completed run
    reached the previous run of its direction), and each later outcome
    of the run is correct while the run counter is below ``E[j-2]``.
    Each branch's carried :class:`~repro.predictors.pattern._BlockEntry`
    becomes three virtual runs before its window runs: ``(c,
    previous[c])``, ``(not c, previous[not c])`` and ``(c,
    run_length)``, the last merged with a first window run that
    continues it.
    """
    METRICS.inc("sim.kernel_fastpath")
    from repro.predictors.pattern import MAX_RUN_LENGTH, _BlockEntry

    n = len(trace)
    if n == 0:
        return np.zeros(0, dtype=bool)
    pcs, starts, outcomes = _branch_sorted(trace)
    run_starts, run_lengths, first_run = _branch_runs(outcomes, starts)
    first = outcomes[starts]
    # A new branch enters as a run of length 0 in its first outcome's
    # direction; only its first prediction (the taken fallback) differs.
    entries = predictor._entries
    found = [entries.get(pc) for pc in pcs.tolist()]
    current, run_length, previous_same, previous_other = np.array(
        [
            (taken, 0, MAX_RUN_LENGTH, MAX_RUN_LENGTH) if entry is None
            else (
                entry.current_direction, entry.run_length,
                entry.previous_run[entry.current_direction],
                entry.previous_run[not entry.current_direction],
            )
            for entry, taken in zip(found, first.tolist())
        ],
        dtype=np.int64,
    ).reshape(-1, 4).T
    merged = outcomes[run_starts[first_run]] == (current == 1)
    ext_of_run, virtual, lengths, run_offset = _extended_runs(
        run_lengths, first_run, merged, run_length
    )
    np.minimum(lengths, MAX_RUN_LENGTH, out=lengths)
    lengths[virtual] = previous_same
    lengths[virtual + 1] = previous_other

    # Every run but a merged one starts with its direction change.
    correct = ~_wrong_prefix_fill(
        run_starts, run_lengths, lengths[ext_of_run - 2] - run_offset, n
    )
    changes = np.ones(len(run_starts), dtype=bool)
    changes[first_run[merged]] = False
    change = ext_of_run[changes]
    correct[run_starts[changes]] = lengths[change - 1] >= lengths[change - 3]
    new = np.fromiter((entry is None for entry in found), bool, len(found))
    correct[starts[new]] = first[new]

    last = np.append(virtual[1:], len(lengths)) - 1
    last_direction = outcomes[np.append(starts[1:], n) - 1]
    for pc, entry, d, r, same, other in zip(
        pcs.tolist(), found, last_direction.tolist(), lengths[last].tolist(),
        lengths[last - 2].tolist(), lengths[last - 1].tolist(),
    ):
        if entry is None:
            entry = entries[pc] = _BlockEntry(d)
        entry.current_direction = d
        entry.run_length = r
        entry.previous_run[d] = same
        entry.previous_run[not d] = other
    result = np.empty(n, dtype=bool)
    result[trace.branch_order()] = correct
    return result


# -- fixed-length pattern predictor ---------------------------------------


def simulate_fixed_pattern(predictor, trace: Trace) -> np.ndarray:
    """Kernel for
    :class:`~repro.predictors.pattern.FixedLengthPatternPredictor`.

    Prediction ``i`` of a branch is its own outcome ``k`` executions
    ago (taken while fewer than ``k`` outcomes have been seen): a
    shifted self-comparison of the branch-sorted outcome column, with
    each branch's last ``min(seen, k)`` carried outcomes laid before its
    window outcomes.  Each branch's last ``k`` outcomes are written back
    as the scalar path's ``(ring, position, count)``.
    """
    METRICS.inc("sim.kernel_fastpath")
    k = predictor._k
    state = predictor._state
    n = len(trace)
    if n == 0:
        return np.zeros(0, dtype=bool)
    pcs, starts, outcomes = _branch_sorted(trace)
    counts = trace.branch_index()[2]
    found = [state.get(pc) for pc in pcs.tolist()]
    seen = np.fromiter(
        (0 if carried is None else carried[2] for carried in found),
        np.int64, len(found),
    )
    history = []
    for carried in found:
        if carried is not None:
            ring, position, count = carried
            history += ring[position:] + ring[:position] if count >= k else ring[:count]
    held = np.minimum(seen, k)
    shift = np.cumsum(held)
    extended = np.empty(n + int(shift[-1]), dtype=bool)
    extended[np.repeat(starts, held) + np.arange(len(history))] = history
    at = np.arange(n) + np.repeat(shift, counts)
    extended[at] = outcomes
    fallback = np.arange(n) < np.repeat(starts + np.maximum(k - seen, 0), counts)
    correct = np.where(
        fallback, outcomes, outcomes == extended[np.maximum(at - k, 0)]
    )

    # Ring slot (total + j) % k holds the j-th of the last k outcomes
    # (False before the first, while fewer than k have been seen).
    total = seen + counts
    lanes = np.arange(k)
    tail_at = (starts + counts + shift)[:, None] - k + lanes
    tail = np.where(
        lanes >= k - np.minimum(total, k)[:, None],
        extended[np.maximum(tail_at, 0)], False,
    )
    position = total % k
    rings = np.empty((len(pcs), k), dtype=bool)
    rings[np.arange(len(pcs))[:, None], (position[:, None] + lanes) % k] = tail
    for pc, ring, p, t in zip(
        pcs.tolist(), rings.tolist(), position.tolist(), total.tolist()
    ):
        state[pc] = (ring, p, t)
    result = np.empty(n, dtype=bool)
    result[trace.branch_order()] = correct
    return result
