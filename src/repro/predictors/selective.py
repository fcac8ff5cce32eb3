"""The selective-history predictor of section 3.4.

A hypothetical global two-level predictor whose first-level history
contains only the oracle-chosen 1, 2 or 3 most important branches (tagged
per section 3.2).  Each history element is three-state -- taken,
not-taken, or *not in the path* of the last ``window`` branches -- so the
pattern space is 3**c.  The pattern selects a 2-bit saturating counter
(one table per static branch; the predictor is hypothetical and
interference-free), the counter MSB is the prediction, and the counter
trains on the outcome, exactly as in a global two-level predictor.

Two execution paths are provided and kept behaviourally identical (a
property test enforces this):

* the online :meth:`SelectiveHistoryPredictor.predict` /
  :meth:`~SelectiveHistoryPredictor.update` pair, which re-derives tag
  states by scanning a sliding window -- transparent but slow;
* :meth:`SelectiveHistoryPredictor.simulate`, which replays the
  precollected :class:`~repro.correlation.tagging.CorrelationTable`
  per-branch -- the path every experiment uses.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Tuple

import numpy as np

from repro.correlation.selection import (
    Selection,
    SelectionConfig,
    select_for_trace,
)
from repro.correlation.tagging import (
    CorrelationTable,
    STATE_ABSENT,
    STATE_NOT_TAKEN,
    STATE_TAKEN,
    TAG_BACKWARD,
    TAG_OCCURRENCE,
    TagKey,
    collect_correlation_data,
)
from repro.predictors.base import BranchPredictor
from repro.trace.trace import Trace


class SelectiveHistoryPredictor(BranchPredictor):
    """Oracle selective-history predictor (1, 2 or 3 branches).

    Args:
        num_branches: Selective-history size c (1, 2 or 3 in the paper).
        config: Oracle search parameters; ``config.window`` is the history
            depth n within which correlated branches are sought.
        counter_bits: Second-level counter width (2 in the paper).
    """

    name = "selective"
    #: simulate() replays the per-run oracle selections and refuses any
    #: trace but the fitted one, so the streaming fold cannot apply.
    windowable = False

    def __init__(
        self,
        num_branches: int = 3,
        config: SelectionConfig = SelectionConfig(),
        counter_bits: int = 2,
    ) -> None:
        if num_branches < 1:
            raise ValueError(f"num_branches must be >= 1, got {num_branches}")
        self._num_branches = num_branches
        self._config = config
        self._counter_max = (1 << counter_bits) - 1
        self._threshold = 1 << (counter_bits - 1)
        self._initial = self._threshold
        self._selections: Optional[Dict[int, Selection]] = None
        self._data: Optional[CorrelationTable] = None
        # (pc, pattern) -> counter value
        self._counters: Dict[Tuple[int, int], int] = {}
        # Sliding window of (pc, taken, is_backward) for the online path.
        self._window_state: deque = deque(maxlen=config.window)
        self.name = f"selective-{num_branches}"

    @property
    def selections(self) -> Dict[int, Selection]:
        if self._selections is None:
            raise RuntimeError("predictor is not fitted; call fit() first")
        return self._selections

    # -- fitting ------------------------------------------------------------

    def fit(
        self,
        trace: Trace,
        data: Optional[CorrelationTable] = None,
        selections: Optional[Dict[int, Selection]] = None,
    ) -> "SelectiveHistoryPredictor":
        """Run the oracle selection over ``trace``.

        Args:
            trace: The trace the predictor will be evaluated on (the
                oracle, like the paper's, sees the whole run).
            data: Optional precollected correlation data (reused across
                predictors by the experiment runner).
            selections: Optional precomputed oracle selections; when
                given, the per-branch search is skipped entirely.
        """
        if data is None:
            data = collect_correlation_data(trace, window=self._config.window)
        if selections is None:
            selections = select_for_trace(data, self._num_branches, self._config)
        self._selections = selections
        self._data = data
        return self

    # -- online path ---------------------------------------------------------

    def _tag_states(self, selected: Tuple[TagKey, ...]) -> Dict[TagKey, int]:
        """Derive the current state of each selected tag from the window.

        Scans the sliding window most-recent-first, applying the same
        tagging rules as the collector: occurrence numbers count from the
        current branch; backward counts are the number of loop-closing
        branches strictly between the tagged branch and now; the
        shallowest appearance wins.
        """
        states = {tag: STATE_ABSENT for tag in selected}
        wanted = set(selected)
        occurrence_counts: Dict[int, int] = {}
        backward_count = 0
        remaining = len(wanted)
        for pc, taken, is_backward in reversed(self._window_state):
            occurrence = occurrence_counts.get(pc, 0)
            occurrence_counts[pc] = occurrence + 1
            outcome_state = STATE_TAKEN if taken else STATE_NOT_TAKEN
            occ_tag = (TAG_OCCURRENCE, pc, occurrence)
            if occ_tag in wanted and states[occ_tag] == STATE_ABSENT:
                states[occ_tag] = outcome_state
                remaining -= 1
            bwd_tag = (TAG_BACKWARD, pc, backward_count)
            if bwd_tag in wanted and states[bwd_tag] == STATE_ABSENT:
                states[bwd_tag] = outcome_state
                remaining -= 1
            if remaining == 0:
                break
            backward_count += is_backward
        return states

    def _pattern(self, pc: int) -> int:
        selected = self.selections.get(pc)
        if selected is None or not selected.tags:
            return 0
        states = self._tag_states(selected.tags)
        pattern = 0
        for tag in selected.tags:
            pattern = pattern * 3 + states[tag]
        return pattern

    def predict(self, pc: int, target: int) -> bool:
        counter = self._counters.get((pc, self._pattern(pc)), self._initial)
        return counter >= self._threshold

    def update(self, pc: int, target: int, taken: bool) -> None:
        key = (pc, self._pattern(pc))
        value = self._counters.get(key, self._initial)
        if taken:
            if value < self._counter_max:
                self._counters[key] = value + 1
            else:
                self._counters[key] = value
        else:
            self._counters[key] = value - 1 if value > 0 else value
        self._window_state.append((pc, bool(taken), target < pc))

    # -- fast replay -----------------------------------------------------------

    def simulate(self, trace: Trace) -> np.ndarray:
        """Replay the fitted selections over ``trace`` with 2-bit counters.

        Fits first when needed.  Requires the trace to be the one the
        predictor was fitted on (the oracle selections are per-run).
        The counter replay runs through the batched
        :func:`~repro.sim.kernels_global.simulate_selective` kernel: one
        grouped chain over ``(branch, pattern)`` keys instead of a scalar
        loop per instance.
        """
        from repro.sim.kernels_global import simulate_selective

        if self._selections is None:
            self.fit(trace)
        if self._data.trace_length != len(trace):
            raise ValueError(
                "simulate() must replay the fitted trace: fitted length "
                f"{self._data.trace_length}, got {len(trace)}"
            )
        return simulate_selective(self, trace)
