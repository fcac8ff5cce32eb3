"""The Yeh/Patt two-level adaptive predictor family.

Two levels of history: a branch-history register (global or per-address)
records recent outcomes; a pattern history table (PHT) of 2-bit saturating
counters records the likely direction per history pattern.

Variants implemented:

* :class:`GAsPredictor` -- one global history register, PHT selected by
  branch-address bits, pattern bits index within the PHT.
* :class:`GsharePredictor` -- McFarling's variant: global history XORed
  with the branch address indexes a single PHT (better PHT utilisation).
* :class:`PAsPredictor` -- per-address history registers (a branch history
  table indexed by address bits), PHT selected by address bits.
* :class:`GAgPredictor` / :class:`PAgPredictor` -- the shared-PHT
  degenerate points of the Yeh/Patt taxonomy.

The taxonomy's per-address-PHT points (GAp, PAp) are the idealised
interference-free predictors of
:mod:`repro.predictors.interference_free`: one PHT per static branch is
exactly a per-address second level with an unbounded table.
"""

from __future__ import annotations

from typing import Optional

from repro.predictors.base import BranchPredictor

import numpy as np

from repro.trace.trace import Trace


class GsharePredictor(BranchPredictor):
    """McFarling's gshare predictor.

    Args:
        history_bits: Global history register length (the paper's
            reference gshare uses a 16-branch history).
        pht_bits: log2 of the PHT size; defaults to ``history_bits`` so
            the full history participates in the index.
        counter_bits: PHT counter width.
    """

    name = "gshare"

    def __init__(
        self,
        history_bits: int = 16,
        pht_bits: Optional[int] = None,
        counter_bits: int = 2,
    ) -> None:
        if history_bits < 0:
            raise ValueError(f"history_bits must be >= 0, got {history_bits}")
        if pht_bits is None:
            pht_bits = history_bits
        if pht_bits < 1:
            raise ValueError(f"pht_bits must be >= 1, got {pht_bits}")
        self._history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._pht_mask = (1 << pht_bits) - 1
        self._counter_max = (1 << counter_bits) - 1
        self._counter_threshold = 1 << (counter_bits - 1)
        initial = self._counter_threshold
        dtype = np.int8 if counter_bits <= 7 else np.int16
        self._pht = np.full(1 << pht_bits, initial, dtype=dtype)
        self._history = 0
        self.name = f"gshare-{history_bits}h-{pht_bits}p"

    @property
    def history_bits(self) -> int:
        return self._history_bits

    def _index(self, pc: int) -> int:
        # Instruction addresses are 4-byte aligned; drop the alignment
        # bits so the whole PHT is usable (standard gshare indexing).
        return (self._history ^ (pc >> 2)) & self._pht_mask

    def predict(self, pc: int, target: int) -> bool:
        return bool(self._pht[self._index(pc)] >= self._counter_threshold)

    def update(self, pc: int, target: int, taken: bool) -> None:
        index = self._index(pc)
        value = self._pht[index]
        if taken:
            if value < self._counter_max:
                self._pht[index] = value + 1
        elif value > 0:
            self._pht[index] = value - 1
        self._history = ((self._history << 1) | int(taken)) & self._history_mask

    def simulate(self, trace: Trace) -> np.ndarray:
        """Vectorised fast path (see :mod:`repro.sim.kernels_global`).

        Only gshare's history register can outgrow the kernel's packed
        index (its PHT is ``2**pht_bits`` entries, so the table itself
        stays small); such configurations run the reference loop.
        """
        from repro.sim.kernels_global import simulate_gshare
        from repro.sim.scan import MAX_INDEX_BITS

        if self._history_bits > MAX_INDEX_BITS:
            return super().simulate(trace)
        return simulate_gshare(self, trace)


class GAsPredictor(BranchPredictor):
    """Global-history two-level predictor with address-selected PHTs.

    Args:
        history_bits: Global history register length.
        pht_select_bits: log2 of the number of PHTs; the low address bits
            select the PHT, the history pattern indexes within it.
        counter_bits: PHT counter width.
    """

    name = "gas"

    def __init__(
        self,
        history_bits: int = 12,
        pht_select_bits: int = 4,
        counter_bits: int = 2,
    ) -> None:
        if history_bits < 0:
            raise ValueError(f"history_bits must be >= 0, got {history_bits}")
        if pht_select_bits < 0:
            raise ValueError(
                f"pht_select_bits must be >= 0, got {pht_select_bits}"
            )
        self._history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._select_mask = (1 << pht_select_bits) - 1
        self._counter_max = (1 << counter_bits) - 1
        self._counter_threshold = 1 << (counter_bits - 1)
        initial = self._counter_threshold
        dtype = np.int8 if counter_bits <= 7 else np.int16
        self._pht = np.full(
            (1 << pht_select_bits, 1 << history_bits), initial, dtype=dtype
        )
        self._history = 0
        self.name = f"gas-{history_bits}h-{pht_select_bits}s"

    def predict(self, pc: int, target: int) -> bool:
        counter = self._pht[(pc >> 2) & self._select_mask, self._history]
        return bool(counter >= self._counter_threshold)

    def update(self, pc: int, target: int, taken: bool) -> None:
        select = (pc >> 2) & self._select_mask
        value = self._pht[select, self._history]
        if taken:
            if value < self._counter_max:
                self._pht[select, self._history] = value + 1
        elif value > 0:
            self._pht[select, self._history] = value - 1
        self._history = ((self._history << 1) | int(taken)) & self._history_mask

    def simulate(self, trace: Trace) -> np.ndarray:
        """Vectorised fast path (see :mod:`repro.sim.kernels_global`)."""
        from repro.sim.kernels_global import simulate_gas

        return simulate_gas(self, trace)


class PAsPredictor(BranchPredictor):
    """Per-address two-level predictor.

    The first level is a branch history table (BHT) of per-branch shift
    registers indexed by the low bits of the address; the second level is
    a set of PHTs also selected by address bits (section 2.1).

    Args:
        history_bits: Per-branch history register length.
        bht_bits: log2 of the BHT entry count (address-indexed; aliasing
            between branches that share low address bits is modelled, as
            in a real implementation).
        pht_select_bits: log2 of the number of PHTs.
        counter_bits: PHT counter width.
    """

    name = "pas"

    def __init__(
        self,
        history_bits: int = 12,
        bht_bits: int = 12,
        pht_select_bits: int = 4,
        counter_bits: int = 2,
    ) -> None:
        if history_bits < 0:
            raise ValueError(f"history_bits must be >= 0, got {history_bits}")
        if bht_bits < 0:
            raise ValueError(f"bht_bits must be >= 0, got {bht_bits}")
        self._history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._bht_mask = (1 << bht_bits) - 1
        self._select_mask = (1 << pht_select_bits) - 1
        self._counter_max = (1 << counter_bits) - 1
        self._counter_threshold = 1 << (counter_bits - 1)
        initial = self._counter_threshold
        dtype = np.int8 if counter_bits <= 7 else np.int16
        self._pht = np.full(
            (1 << pht_select_bits, 1 << history_bits), initial, dtype=dtype
        )
        self._bht = np.zeros(1 << bht_bits, dtype=np.int64)
        self.name = f"pas-{history_bits}h-{bht_bits}b"

    @property
    def history_bits(self) -> int:
        return self._history_bits

    def predict(self, pc: int, target: int) -> bool:
        history = self._bht[(pc >> 2) & self._bht_mask]
        counter = self._pht[(pc >> 2) & self._select_mask, history]
        return bool(counter >= self._counter_threshold)

    def update(self, pc: int, target: int, taken: bool) -> None:
        bht_index = (pc >> 2) & self._bht_mask
        history = self._bht[bht_index]
        select = (pc >> 2) & self._select_mask
        value = self._pht[select, history]
        if taken:
            if value < self._counter_max:
                self._pht[select, history] = value + 1
        elif value > 0:
            self._pht[select, history] = value - 1
        self._bht[bht_index] = ((history << 1) | int(taken)) & self._history_mask

    def simulate(self, trace: Trace) -> np.ndarray:
        """Vectorised fast path (see :mod:`repro.sim.kernels_global`)."""
        from repro.sim.kernels_global import simulate_pas

        return simulate_pas(self, trace)


class GAgPredictor(GAsPredictor):
    """GAg: one global history register, one shared PHT.

    The degenerate point of the Yeh/Patt taxonomy's global side: no
    address bits select the PHT, so all branches share every counter.
    Equivalent to :class:`GAsPredictor` with zero select bits.
    """

    name = "gag"

    def __init__(self, history_bits: int = 12, counter_bits: int = 2) -> None:
        super().__init__(
            history_bits=history_bits,
            pht_select_bits=0,
            counter_bits=counter_bits,
        )
        self.name = f"gag-{history_bits}h"


class PAgPredictor(PAsPredictor):
    """PAg: per-address history registers, one shared PHT.

    Per-branch first-level history with a single second-level table: the
    pattern alone selects the counter, so branches with the same local
    pattern interfere -- the configuration Yeh/Patt contrast with PAs.
    """

    name = "pag"

    def __init__(
        self,
        history_bits: int = 12,
        bht_bits: int = 12,
        counter_bits: int = 2,
    ) -> None:
        super().__init__(
            history_bits=history_bits,
            bht_bits=bht_bits,
            pht_select_bits=0,
            counter_bits=counter_bits,
        )
        self.name = f"pag-{history_bits}h-{bht_bits}b"
