"""Interference-free two-level predictors.

An interference-free predictor has one PHT per static branch; it is
"prohibitively large" in hardware but isolates the predictive power of the
history mechanism from the destructive aliasing effects studied by Talcott
et al. and Young et al.  The paper uses interference-free gshare and PAs
throughout sections 3-5 as analysis instruments; we implement them with
unbounded storage (a perfect BTB and only the touched PHT cells), which
is exactly the idealised structure.
"""

from __future__ import annotations

import numpy as np

from repro.predictors.base import BranchPredictor
from repro.predictors.counters import SortedCells, SparseCounterBank
from repro.trace.trace import Trace


class _PerBranchPHTs:
    """The state both interference-free predictors share (a mixin).

    ``_rows`` maps pc -> row, numbered in order of first appearance;
    ``_cells`` holds the touched counters, keyed ``(row << h) |
    pattern``.  The scalar methods and the sim kernels read and write
    the same sorted arrays, so chained ``simulate()`` calls, scalar steps
    and pickles between windows all see one state.
    """

    def __init__(self, history_bits: int, counter_bits: int) -> None:
        if history_bits < 0:
            raise ValueError(f"history_bits must be >= 0, got {history_bits}")
        self._history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._rows = SortedCells(np.uint64, np.int64, -1)
        self._cells = SparseCounterBank(bits=counter_bits)

    @property
    def history_bits(self) -> int:
        return self._history_bits

    def _row(self, pc: int) -> int:
        """``pc``'s row, given the next free one on first sight."""
        row = self._rows.get(pc)
        if row < 0:
            row = len(self._rows)
            self._rows.put(pc, row)
        return row

    def _key(self, row: int, pattern: int) -> int:
        # Row -1 (an unseen branch) gives a negative key: never stored,
        # so it reads as a fresh counter.
        return (row << self._history_bits) | pattern

    def _kernel_fits(self, trace: Trace) -> bool:
        """Whether every cell key of a run over ``trace`` packs in 62 bits."""
        from repro.sim.scan import MAX_INDEX_BITS

        rows = len(self._rows) + int(
            np.count_nonzero(self._rows[trace.static_pcs()] < 0)
        )
        return rows << self._history_bits <= 1 << MAX_INDEX_BITS

    def simulate(self, trace: Trace) -> np.ndarray:
        """The grouped-counter kernel; the reference loop when a cell key
        would not pack (as gshare does for an over-long history)."""
        if not self._kernel_fits(trace):
            return BranchPredictor.simulate(self, trace)
        return self._kernel(trace)


class InterferenceFreeGshare(_PerBranchPHTs, BranchPredictor):
    """Global-history two-level predictor with a private PHT per branch.

    Because every static branch owns its PHT, XORing the address into the
    index is pointless; the raw global history pattern selects the counter
    within the branch's own table.  This matches the paper's
    "interference-free gshare ... using the outcomes of all of the 16 most
    recent branches".

    Args:
        history_bits: Global history register length (16 in the paper).
        counter_bits: Counter width (2 in the paper).
    """

    name = "if-gshare"

    def __init__(self, history_bits: int = 16, counter_bits: int = 2) -> None:
        super().__init__(history_bits, counter_bits)
        self._history = 0
        self.name = f"if-gshare-{history_bits}h"

    def predict(self, pc: int, target: int) -> bool:
        return self._cells.predict(self._key(self._rows.get(pc), self._history))

    def update(self, pc: int, target: int, taken: bool) -> None:
        self._cells.update(self._key(self._row(pc), self._history), taken)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask

    def _kernel(self, trace: Trace) -> np.ndarray:
        from repro.sim.kernels_global import simulate_if_gshare

        return simulate_if_gshare(self, trace)


class InterferenceFreePAs(_PerBranchPHTs, BranchPredictor):
    """Per-address two-level predictor with unbounded ("very large") BTB.

    Every static branch has its own history register and its own PHT, so
    neither first- nor second-level interference occurs.  This is the
    classifier predictor for the non-repeating-pattern class
    (section 4.1.3).

    Args:
        history_bits: Per-branch history register length.
        counter_bits: Counter width.
    """

    name = "if-pas"

    def __init__(self, history_bits: int = 12, counter_bits: int = 2) -> None:
        super().__init__(history_bits, counter_bits)
        # pc -> history register (Python ints once they outgrow int64)
        self._registers = SortedCells(
            np.uint64, np.int64 if history_bits < 64 else object, 0
        )
        self.name = f"if-pas-{history_bits}h"

    def predict(self, pc: int, target: int) -> bool:
        history = self._registers.get(pc)
        return self._cells.predict(self._key(self._rows.get(pc), history))

    def update(self, pc: int, target: int, taken: bool) -> None:
        history = self._registers.get(pc)
        self._cells.update(self._key(self._row(pc), history), taken)
        self._registers.put(pc, ((history << 1) | int(taken)) & self._history_mask)

    def _kernel(self, trace: Trace) -> np.ndarray:
        from repro.sim.kernels import simulate_if_pas

        return simulate_if_pas(self, trace)
