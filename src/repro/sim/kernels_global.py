"""Vectorised whole-trace kernels for the two-level global-history family.

The per-address kernels in :mod:`repro.sim.kernels` rely on state being
partitioned by static branch.  The Yeh/Patt two-level predictors (gshare,
GAs, PAs, GAg, PAg), interference-free gshare and the selective-history
predictor share state across branches -- a global history register, an
aliased branch history table, a shared PHT -- so they cannot be grouped
by pc.  They still vectorise exactly, because of a stronger property:
**two-level state evolution depends only on trace outcomes, never on
predictions.**  The history register (global or per-BHT-entry) is a pure
function of the outcome stream, so the PHT index of every dynamic branch
is precomputable before any counter is consulted:

1. derive the history register value before every step with bit-packed
   shifted ORs over ``trace.taken`` (per BHT entry for PAs/PAg, honouring
   address aliasing);
2. compute the full index stream as arrays -- ``(history ^ pc) & mask``
   for gshare, ``select * 2**history_bits + history`` for the
   PHT-per-address-set variants, ``row * 2**history_bits + history`` for
   interference-free gshare's per-branch PHTs;
3. run every PHT cell's saturating-counter chain at once with
   :func:`repro.sim.scan._grouped_counter_correct`: one stable argsort
   groups the trace by cell, and a segmented prefix scan over the runs
   of equal outcomes gives every run's starting counter.

Every kernel is exact: it consumes the predictor's current state, returns
the bit-identical correctness bitmap of the scalar predict/update loop,
and writes the final history/BHT/PHT state back so chained ``simulate()``
calls keep training.  Equivalence is enforced by the PC009 contract check
over the predictor registry, the PC010 kernel-binding audit
(:func:`repro.check.contracts.check_kernel_bindings`) and the property
tests in ``tests/test_sim_kernels_global.py``.
"""

from __future__ import annotations

import numpy as np

from repro.correlation.tagging import expand_ranges
from repro.obs.metrics import METRICS
from repro.sim.scan import (
    _branch_rows,
    _grouped_counter_correct,
    _grouped_history_stream,
    _history_stream,
)
from repro.trace.trace import Trace

__all__ = [
    "simulate_gas",
    "simulate_gshare",
    "simulate_if_gshare",
    "simulate_pas",
    "simulate_selective",
]

def _flat_pht(predictor) -> np.ndarray:
    """The 2-D PHT as a writable flat view (row-major: select, history)."""
    flat = predictor._pht.ravel()
    if not np.shares_memory(flat, predictor._pht):
        raise AssertionError("PHT must be contiguous for the flat view")
    return flat


def _global_history(predictor, trace: Trace) -> np.ndarray:
    """The predictor's global history before every step of ``trace``.

    Writes the register's value after the last step back.
    """
    bits = trace.taken.astype(np.int64)
    history = _history_stream(
        bits, predictor._history_bits, predictor._history_mask,
        predictor._history,
    )
    predictor._history = (
        (int(history[-1]) << 1) | int(bits[-1])
    ) & predictor._history_mask
    return history


# -- gshare ----------------------------------------------------------------


def simulate_gshare(predictor, trace: Trace) -> np.ndarray:
    """Kernel for :class:`~repro.predictors.twolevel.GsharePredictor`.

    The global history before every step is one shifted-OR packing of
    ``trace.taken``; XOR with the aligned pc gives the whole PHT index
    stream, and each index is an independent counter chain.
    """
    METRICS.inc("sim.kernel_fastpath")
    n = len(trace)
    if n == 0:
        return np.zeros(0, dtype=bool)
    history = _global_history(predictor, trace)
    pcs = (trace.pc >> np.uint64(2)).astype(np.int64)
    keys = (history ^ pcs) & predictor._pht_mask
    return _grouped_counter_correct(
        keys, trace.taken, predictor._pht,
        predictor._counter_threshold, predictor._counter_max,
        predictor._pht_mask + 1,
    )


# -- interference-free gshare ----------------------------------------------


def simulate_if_gshare(predictor, trace: Trace) -> np.ndarray:
    """Kernel for
    :class:`~repro.predictors.interference_free.InterferenceFreeGshare`.

    Same global history stream as gshare; every branch owns its PHT, so
    the cell key packs the branch's perfect-BTB row above the history.
    """
    METRICS.inc("sim.kernel_fastpath")
    n = len(trace)
    if n == 0:
        return np.zeros(0, dtype=bool)
    history_bits = predictor._history_bits
    history = _global_history(predictor, trace)
    _pcs, ids, _counts = trace.branch_index()
    rows = _branch_rows(predictor._rows, trace)
    keys = (rows[ids] << history_bits) | history
    return _grouped_counter_correct(
        keys, trace.taken, predictor._cells, predictor._cells.threshold,
        predictor._cells.max_value, len(predictor._rows) << history_bits,
    )


# -- GAs / GAg -------------------------------------------------------------


def simulate_gas(predictor, trace: Trace) -> np.ndarray:
    """Kernel for :class:`~repro.predictors.twolevel.GAsPredictor` (and
    GAg, its zero-select-bits subclass).

    Same global history stream as gshare; the flat PHT index packs the
    address-selected row above the history pattern.
    """
    METRICS.inc("sim.kernel_fastpath")
    n = len(trace)
    if n == 0:
        return np.zeros(0, dtype=bool)
    history_bits = predictor._history_bits
    history = _global_history(predictor, trace)
    pcs = (trace.pc >> np.uint64(2)).astype(np.int64)
    keys = ((pcs & predictor._select_mask) << history_bits) | history
    return _grouped_counter_correct(
        keys, trace.taken, _flat_pht(predictor),
        predictor._counter_threshold, predictor._counter_max,
        (predictor._select_mask + 1) << history_bits,
    )


# -- PAs / PAg -------------------------------------------------------------


def simulate_pas(predictor, trace: Trace) -> np.ndarray:
    """Kernel for :class:`~repro.predictors.twolevel.PAsPredictor` (and
    PAg, its zero-select-bits subclass).

    The first-level history register lives in an address-indexed BHT, so
    branches aliasing to the same entry share a register: the trace is
    grouped by *BHT index* (not pc) and each group's interleaved outcome
    stream is packed exactly like the global register.  The per-instance
    select bits still come from the instance's own address.
    """
    METRICS.inc("sim.kernel_fastpath")
    n = len(trace)
    if n == 0:
        return np.zeros(0, dtype=bool)
    pcs = (trace.pc >> np.uint64(2)).astype(np.int64)
    history_bits = predictor._history_bits
    history = _grouped_history_stream(
        pcs & predictor._bht_mask, predictor._bht_mask + 1,
        trace.taken.astype(np.int64), history_bits,
        predictor._history_mask, predictor._bht,
    )
    keys = ((pcs & predictor._select_mask) << history_bits) | history
    return _grouped_counter_correct(
        keys, trace.taken, _flat_pht(predictor),
        predictor._counter_threshold, predictor._counter_max,
        (predictor._select_mask + 1) << history_bits,
    )


# -- selective-history replay ----------------------------------------------


def simulate_selective(predictor, trace: Trace) -> np.ndarray:
    """Counter-replay kernel for
    :class:`~repro.predictors.selective.SelectiveHistoryPredictor`.

    The fitted correlation table already holds every instance's
    three-state tag pattern, so the replay is index-precomputable too: one
    dense state fill of every selected tag, each weighted by its place in
    the 3**c pattern, gives every instance its ``(branch, pattern)`` key,
    and every per-pattern 2-bit counter runs as one grouped chain over the
    whole trace.  Counters start fresh at the initial value per (branch,
    pattern), exactly like the per-call dict of the scalar replay.
    """
    METRICS.inc("sim.kernel_fastpath")
    data = predictor._data
    n = data.trace_length
    if n == 0:
        return np.zeros(0, dtype=bool)
    space = 3 ** predictor._num_branches
    rows, tags, weights = [], [], []
    for row, pc in enumerate(data.pcs.tolist()):
        chosen = predictor._selections[pc].tags
        rows += [row] * len(chosen)
        tags += chosen
        weights += [3 ** place for place in reversed(range(len(chosen)))]
    rows = np.asarray(rows, dtype=np.int64)
    states = data.fill_states(data.find_tags(rows, tags), predictor._config.window)
    first = data.branch_offsets[rows]
    lengths = data.branch_offsets[rows + 1] - first
    pattern = np.bincount(
        expand_ranges(first, lengths),
        weights=states * np.repeat(np.asarray(weights, dtype=np.int64), lengths),
        minlength=n,
    ).astype(np.int64)
    keys = np.empty(n, dtype=np.int64)
    keys[data.inst_index] = data.inst_branch.astype(np.int64) * space + pattern
    counters = np.full(len(data.pcs) * space, predictor._initial, dtype=np.int64)
    return _grouped_counter_correct(
        keys, trace.taken, counters, predictor._threshold,
        predictor._counter_max, len(counters),
    )
