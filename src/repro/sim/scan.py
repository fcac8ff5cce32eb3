"""Machinery shared by the kernel modules, so neither imports the other.

History streams (one register, or one per key), perfect-BTB row
numbering, and the grouped-counter pass that runs every counter cell's
saturating-counter chain as one segmented scan.
"""

from __future__ import annotations

import numpy as np

from repro.trace.trace import Trace

#: Widest packed cell key (history plus select or row bits) the kernels
#: accept.  Only gshare (through ``history_bits``) and the interference-free
#: predictors (history plus perfect-BTB rows) can exceed it, and then run
#: the reference predict/update loop; GAs and PAs cannot, because their
#: ``2**(history + select)``-counter PHT fails to allocate first.
MAX_INDEX_BITS = 62


def _wrong_prefix_fill(
    starts: np.ndarray, lengths: np.ndarray, wrongs: np.ndarray, total: int
) -> np.ndarray:
    """Correctness bitmap where run ``r`` is wrong for its first
    ``wrongs[r]`` positions and correct afterwards."""
    position_in_run = np.arange(total, dtype=np.int64) - np.repeat(
        starts, lengths
    )
    return position_in_run >= np.repeat(np.minimum(wrongs, lengths), lengths)


def _history_stream(
    bits: np.ndarray, history_bits: int, history_mask: int, carried: int
) -> np.ndarray:
    """History register value *before* each step of one outcome stream.

    ``bits`` is the int64 0/1 outcome column; the register shifts left and
    takes the newest outcome in bit 0 (outcome ``j`` steps back sits at
    bit ``j - 1``), so the value before step ``i`` is the previous
    ``history_bits`` outcomes bit-packed, with the ``carried`` register's
    bits still visible (left-shifted) for the first few steps.
    """
    n = len(bits)
    patterns = np.zeros(n, dtype=np.int64)
    depth = min(history_bits, n)
    for j in range(1, depth + 1):
        patterns[j:] |= bits[:-j] << (j - 1)
    if carried:
        for i in range(depth):
            patterns[i] |= (carried << i) & history_mask
    return patterns


def _grouped_history_stream(
    keys: np.ndarray,
    key_bound: int,
    bits: np.ndarray,
    history_bits: int,
    history_mask: int,
    registers: np.ndarray,
) -> np.ndarray:
    """History before each step when ``keys[i]`` picks step ``i``'s register.

    Like :func:`_history_stream`, but each key owns a register that only
    its own steps shift.  ``registers`` (indexed by key, all keys below
    ``key_bound``) holds the carried values and receives the final ones in
    place.
    """
    n = len(keys)
    order, sorted_keys, new_group = _group_by(keys, key_bound)
    bits_sorted = bits[order]
    group_starts = np.nonzero(new_group)[0]
    group_lengths = np.diff(np.concatenate((group_starts, [n])))
    rank = np.arange(n, dtype=np.int64) - np.repeat(group_starts, group_lengths)
    depth = min(history_bits, n)
    # Outcome j steps back *within the key's own interleaved stream* sits
    # at bit j - 1, and groups are contiguous after the sort, so the j-th
    # predecessor of a rank >= j element is just j slots to the left.
    # Shift the whole sorted column (contiguous slices, no index masks);
    # elements within `depth` of their group start pick up bits from the
    # previous group, fixed below.
    patterns = np.zeros(n, dtype=np.int64)
    for j in range(1, depth + 1):
        patterns[j:] |= bits_sorted[:-j] << (j - 1)
    group_keys = sorted_keys[group_starts]
    carried = registers[group_keys]
    # Boundary fix-up: an element at rank r < depth has exactly r fresh
    # outcomes from its own group (bits 0..r-1); everything above is
    # previous-group spill to discard, and the carried register stays
    # visible there (left-shifted by r) until displaced.
    sel = np.nonzero(rank < depth)[0]
    r = rank[sel]
    seg_id = np.cumsum(new_group) - 1
    patterns[sel] = (patterns[sel] & ((np.int64(1) << r) - 1)) | (
        (carried[seg_id[sel]] << r) & history_mask
    )
    group_last = group_starts + group_lengths - 1
    registers[group_keys] = (
        (patterns[group_last] << 1) | bits_sorted[group_last]
    ) & history_mask
    history = np.empty(n, dtype=np.int64)
    history[order] = patterns
    return history


def _narrow_for_sort(keys: np.ndarray, bound: int) -> np.ndarray:
    """Cast ``keys`` (all ``< bound``) to the narrowest sortable dtype.

    numpy's stable argsort is a radix sort for <= 16-bit integers and a
    comparison sort otherwise; predictor index spaces are usually small,
    so narrowing before the sort is the difference between O(n) and
    O(n log n) on the kernel's dominant step.
    """
    if bound <= 1 << 16:
        return keys.astype(np.uint16)
    if bound <= 1 << 31:
        return keys.astype(np.int32)
    return keys


def _group_by(keys: np.ndarray, key_bound: int):
    """Stable sort by key: ``(order, sorted keys, group-start mask)``."""
    keys = _narrow_for_sort(keys, key_bound)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new_group = np.empty(len(keys), dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:])
    return order, sorted_keys, new_group


def _branch_rows(rows, trace: Trace) -> np.ndarray:
    """Row of every ``trace.branch_index()`` branch in the pc -> row map.

    ``rows`` is a :class:`~repro.predictors.counters.SortedCells`; new
    branches get the next rows in order of first appearance, exactly as
    the scalar ``update`` numbers them.
    """
    pcs, ids, _counts = trace.branch_index()
    found = rows[pcs]
    new = np.nonzero(found < 0)[0]
    if len(new):
        _, first = np.unique(ids, return_index=True)
        new = new[np.argsort(first[new], kind="stable")]
        found[new] = np.arange(len(rows), len(rows) + len(new))
        fresh = np.sort(new)
        rows[pcs[fresh]] = found[fresh]
    return found


def _grouped_counter_correct(
    keys: np.ndarray,
    taken: np.ndarray,
    counters,
    threshold: int,
    counter_max: int,
    key_bound: int,
) -> np.ndarray:
    """Correctness bitmap for independent per-key saturating-counter chains.

    ``keys`` assigns every instance to a counter cell of ``counters``: a
    dense 1-D integer array indexed by key, or any map read and written
    with a sorted array of distinct keys (a
    :class:`~repro.predictors.counters.SortedCells`).  One stable argsort
    groups instances by cell in chronological order; within a cell, runs
    of equal outcomes collapse to the wrong-prefix closed form, leaving
    one saturating-counter transition per run.  Each transition is a
    clamp-affine map ``c -> min(max(c + a, b), h)`` and those maps are
    closed under composition::

        g(f(c)) = min(max(c + a_f + a_g,
                          max(b_f + a_g, b_g)),
                      min(max(h_f + a_g, b_g), h_g))

    so the per-cell chain is an (associative) segmented prefix scan over
    run maps: a Hillis-Steele doubling pass per power-of-two offset
    yields every run's starting counter with no per-run Python loop --
    ``O(runs * log(longest cell))`` vector work in total.  Cell switches
    read the carried counter from ``counters`` and the final values are
    written back in place.
    """
    n = len(keys)
    correct = np.empty(n, dtype=bool)
    if n == 0:
        return correct
    order, sorted_keys, new_group = _group_by(keys, key_bound)
    sorted_taken = taken[order]
    new_run = new_group.copy()
    new_run[1:] |= sorted_taken[1:] != sorted_taken[:-1]
    run_starts = np.nonzero(new_run)[0]
    run_lengths = np.diff(np.concatenate((run_starts, [n])))
    run_opens_group = new_group[run_starts]
    m = len(run_starts)
    seg_first = np.nonzero(run_opens_group)[0]
    seg_id = np.cumsum(run_opens_group) - 1
    rank = np.arange(m, dtype=np.int64) - seg_first[seg_id]
    group_keys = sorted_keys[run_starts[run_opens_group]]
    run_taken = sorted_taken[run_starts]
    # Per-run transition map f(c) = min(max(c + A, B), H): a taken run
    # of length L adds L then saturates above, a not-taken run subtracts
    # L then saturates below -- both are one clamp-affine map.
    A = np.where(run_taken, run_lengths, -run_lengths)
    B = np.zeros(m, dtype=np.int64)
    H = np.full(m, counter_max, dtype=np.int64)
    # Inclusive segmented scan: after the pass at `offset`, (A, B, H)[k]
    # composes runs (k - 2*offset, k] of k's cell (earlier map first).
    offset = 1
    max_rank = int(rank.max())
    while offset <= max_rank:
        idx = np.nonzero(rank >= offset)[0]
        j = idx - offset
        a = A[idx]
        b = B[idx]
        h = H[idx]
        A[idx] = A[j] + a
        B[idx] = np.maximum(B[j] + a, b)
        H[idx] = np.minimum(np.maximum(H[j] + a, b), h)
        offset <<= 1
    c0 = counters[group_keys].astype(np.int64)
    c_after = np.minimum(np.maximum(c0[seg_id] + A, B), H)
    c_start = np.empty(m, dtype=np.int64)
    c_start[seg_first] = c0
    rest = np.nonzero(~run_opens_group)[0]
    c_start[rest] = c_after[rest - 1]
    wrongs = np.where(run_taken, threshold - c_start, c_start - threshold + 1)
    np.maximum(wrongs, 0, out=wrongs)
    seg_last = np.concatenate((seg_first[1:] - 1, [m - 1]))
    counters[group_keys] = c_after[seg_last]
    correct_sorted = _wrong_prefix_fill(run_starts, run_lengths, wrongs, n)
    correct[order] = correct_sorted
    return correct
