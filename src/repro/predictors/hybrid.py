"""Hybrid predictors.

Two kinds:

* :class:`ChooserHybrid` -- McFarling's implementable hybrid: two
  component predictors and a table of 2-bit chooser counters that learns,
  per branch-address index, which component to trust.  Included because
  the paper motivates its analysis with "the best performing branch
  predictors today are hybrid predictors".
* :class:`OracleCombiner` -- the paper's *analysis* hybrid: a
  hypothetical predictor that uses component A for exactly those static
  branches where A beats component B over the whole run, and B elsewhere.
  Tables 2 and 3 ("gshare w/ Corr", "PAs w/ Loop") are built this way;
  it operates on per-branch correctness bitmaps rather than online.
"""

from __future__ import annotations

import numpy as np

from repro.predictors.base import BranchPredictor
from repro.predictors.counters import CounterTable
from repro.trace.trace import Trace


class ChooserHybrid(BranchPredictor):
    """McFarling combining predictor.

    Args:
        component_a: First predictor (selected when the chooser counter
            MSB is clear).
        component_b: Second predictor (selected when it is set).
        chooser_bits: log2 of the chooser table size (indexed by branch
            address).
        counter_bits: Chooser counter width.
    """

    name = "hybrid"

    def __init__(
        self,
        component_a: BranchPredictor,
        component_b: BranchPredictor,
        chooser_bits: int = 12,
        counter_bits: int = 2,
    ) -> None:
        self._a = component_a
        self._b = component_b
        self._mask = (1 << chooser_bits) - 1
        self._chooser = CounterTable(1 << chooser_bits, bits=counter_bits)
        self.name = f"hybrid({component_a.name},{component_b.name})"

    def predict(self, pc: int, target: int) -> bool:
        if self._chooser.predict((pc >> 2) & self._mask):
            return self._b.predict(pc, target)
        return self._a.predict(pc, target)

    def update(self, pc: int, target: int, taken: bool) -> None:
        prediction_a = self._a.predict(pc, target)
        prediction_b = self._b.predict(pc, target)
        # Train the chooser only when the components disagree: move
        # toward the component that was right.
        if prediction_a != prediction_b:
            self._chooser.update((pc >> 2) & self._mask, prediction_b == taken)
        self._a.update(pc, target, taken)
        self._b.update(pc, target, taken)


class OracleCombiner:
    """Whole-run per-branch oracle combination of two predictors.

    The paper's hypothetical "gshare w/ Corr" predictor "uses the 1-branch
    selective history predictor for branches where it achieves a higher
    accuracy than gshare.  Otherwise, gshare is used."  Given the
    per-branch correctness bitmaps of both components over the same trace,
    the combination is a pure selection per static branch.
    """

    @staticmethod
    def combine(
        trace: Trace,
        primary_correct: np.ndarray,
        alternative_correct: np.ndarray,
    ) -> np.ndarray:
        """Per-branch oracle choice between two correctness bitmaps.

        Args:
            trace: The trace both bitmaps were produced from.
            primary_correct: Bitmap of the default component (e.g. gshare).
            alternative_correct: Bitmap of the challenger (e.g. the
                1-branch selective predictor); used only for static
                branches where it is *strictly* more accurate.

        Returns:
            The combined correctness bitmap.
        """
        _check_aligned(trace, primary_correct, alternative_correct)
        better = trace.branch_sums(alternative_correct) > trace.branch_sums(
            primary_correct
        )
        return _take(trace, better, primary_correct, alternative_correct)

    @staticmethod
    def combine_with_mask(
        trace: Trace,
        primary_correct: np.ndarray,
        alternative_correct: np.ndarray,
        use_alternative: set,
    ) -> np.ndarray:
        """Combine using an explicit set of branch addresses.

        Table 3's "PAs w/ Loop" uses the loop predictor for all branches
        *classified* as loop-type (section 4.1), not for all branches
        where the loop predictor happens to win, so the caller supplies
        the membership set.
        """
        _check_aligned(trace, primary_correct, alternative_correct)
        chosen = np.array(
            [pc in use_alternative for pc in trace.static_pcs().tolist()], dtype=bool
        )
        return _take(trace, chosen, primary_correct, alternative_correct)


def _check_aligned(
    trace: Trace, primary_correct: np.ndarray, alternative_correct: np.ndarray
) -> None:
    if len(primary_correct) != len(trace) or len(alternative_correct) != len(trace):
        raise ValueError("bitmaps must align with the trace")


def _take(
    trace: Trace,
    chosen: np.ndarray,
    primary_correct: np.ndarray,
    alternative_correct: np.ndarray,
) -> np.ndarray:
    """``primary_correct`` with the entries of the static branches flagged
    in ``chosen`` taken from ``alternative_correct``."""
    use = chosen[trace.branch_index()[1]]
    combined = primary_correct.copy()
    combined[use] = alternative_correct[use]
    return combined
