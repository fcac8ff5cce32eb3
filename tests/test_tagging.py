"""Tests for instance tagging and correlation-data collection."""

import numpy as np
import pytest

from repro.correlation.tagging import (
    STATE_ABSENT,
    STATE_NOT_TAKEN,
    STATE_TAKEN,
    TAG_BACKWARD,
    TAG_OCCURRENCE,
    collect_correlation_data,
)

from conftest import trace_from_steps, trace_from_string


def entries(data, pc, tag):
    """``tag``'s (instance, depth, outcome) entry columns under branch ``pc``."""
    row = data.branches[pc].row
    tag_row = data.find_tags([row], [tag])[0]
    lo, hi = data.entry_offsets[tag_row : tag_row + 2]
    return (
        data.entry_instance[lo:hi] - data.branch_offsets[row],
        data.entry_depth[lo:hi],
        data.entry_outcome[lo:hi],
    )


class TestCollection:
    def test_window_bounds(self):
        trace = trace_from_string("TNT")
        with pytest.raises(ValueError):
            collect_correlation_data(trace, window=0)
        with pytest.raises(ValueError):
            collect_correlation_data(trace, window=33)

    def test_every_branch_collected(self):
        trace = trace_from_steps([(1, 2, True), (3, 4, False), (1, 2, True)])
        data = collect_correlation_data(trace, window=8)
        assert set(data.branches) == {1, 3}
        assert data.branches[1].num_instances() == 2
        assert data.branches[3].num_instances() == 1

    def test_outcomes_and_indices_align(self):
        trace = trace_from_steps(
            [(1, 2, True), (3, 4, False), (1, 2, False), (3, 4, True)]
        )
        data = collect_correlation_data(trace, window=8)
        branch = data.branches[1]
        assert list(branch.trace_indices) == [0, 2]
        assert list(branch.outcomes) == [True, False]

    def test_occurrence_tags_number_from_most_recent(self):
        # Trace: A A A B -- at B, A appears three times: A0 (depth 1),
        # A1 (depth 2), A2 (depth 3).
        steps = [(10, 20, True), (10, 20, False), (10, 20, True), (99, 100, True)]
        trace = trace_from_steps(steps)
        data = collect_correlation_data(trace, window=8)
        for occurrence, expected_depth, expected_outcome in [
            (0, 1, True),
            (1, 2, False),
            (2, 3, True),
        ]:
            tag = (TAG_OCCURRENCE, 10, occurrence)
            indices, depths, outcomes = entries(data, 99, tag)
            assert list(depths) == [expected_depth]
            assert list(outcomes) == [int(expected_outcome)]

    def test_backward_tags_count_intervening_backward_branches(self):
        # Layout: X (forward), L (backward), X2 (forward), B.
        steps = [
            (0x100, 0x200, True),   # X: forward
            (0x300, 0x100, True),   # L: backward (loop-closing)
            (0x400, 0x500, False),  # X2: forward
            (0x600, 0x700, True),   # B: current
        ]
        trace = trace_from_steps(steps)
        data = collect_correlation_data(trace, window=8)
        branch_b = data.branches[0x600]
        # X2 has no backward branches between itself and B.
        assert (TAG_BACKWARD, 0x400, 0) in branch_b.tags
        # L: nothing backward strictly between L and B except X2 (forward).
        assert (TAG_BACKWARD, 0x300, 0) in branch_b.tags
        # X is separated from B by L (one backward branch).
        assert (TAG_BACKWARD, 0x100, 1) in branch_b.tags

    def test_backward_tag_duplicates_keep_most_recent(self):
        # A executes twice between backward branches: both instances get
        # backward count 0; only the most recent is recorded.
        steps = [
            (10, 20, True),    # A (older, depth 2)
            (10, 20, False),   # A (newer, depth 1)
            (99, 100, True),   # current
        ]
        trace = trace_from_steps(steps)
        data = collect_correlation_data(trace, window=8)
        branch = data.branches[99]
        indices, depths, outcomes = entries(data, 99, (TAG_BACKWARD, 10, 0))
        assert list(depths) == [1]
        assert list(outcomes) == [0]
        # The occurrence scheme still distinguishes them.
        assert (TAG_OCCURRENCE, 10, 0) in branch.tags
        assert (TAG_OCCURRENCE, 10, 1) in branch.tags


class TestStateVectors:
    def test_three_states(self):
        # Branch B at trace positions 1, 3, 5; A precedes it at 0 and 4
        # but not at position 2.
        steps = [
            (10, 20, True),    # A taken
            (99, 100, True),   # B instance 0: A0 present taken
            (99, 100, False),  # B instance 1: A0 at depth 2
            (10, 20, False),   # A not taken
            (99, 100, True),   # B instance 2
        ]
        trace = trace_from_steps(steps)
        data = collect_correlation_data(trace, window=1)
        branch = data.branches[99]
        states = branch.state_vector((TAG_OCCURRENCE, 10, 0), window=1)
        assert states[0] == STATE_TAKEN
        assert states[1] == STATE_ABSENT  # depth 2 > window 1
        assert states[2] == STATE_NOT_TAKEN

    def test_window_filtering_uses_depth(self):
        steps = [
            (10, 20, True),
            (11, 21, True),
            (12, 22, True),
            (99, 100, True),
        ]
        trace = trace_from_steps(steps)
        data = collect_correlation_data(trace, window=8)
        branch = data.branches[99]
        tag = (TAG_OCCURRENCE, 10, 0)  # depth 3 from the current branch
        assert branch.state_vector(tag, window=3)[0] == STATE_TAKEN
        assert branch.state_vector(tag, window=2)[0] == STATE_ABSENT

    def test_self_correlation_possible(self):
        # A branch sees its own previous instances in its history --
        # required for loop behaviour to be capturable as correlation.
        trace = trace_from_string("TNTNTN")
        data = collect_correlation_data(trace, window=4)
        branch = data.branches[0x100]
        tag = (TAG_OCCURRENCE, 0x100, 0)
        states = branch.state_vector(tag, window=4)
        assert states[0] == STATE_ABSENT  # first instance has no history
        assert states[1] == STATE_TAKEN
        assert states[2] == STATE_NOT_TAKEN

    def test_collection_window_caps_depth(self):
        steps = [(10, 20, True)] + [(50 + i, 60, False) for i in range(5)] + [
            (99, 100, True)
        ]
        trace = trace_from_steps(steps)
        data = collect_correlation_data(trace, window=4)
        branch = data.branches[99]
        # Branch 10 is 6 deep; with a collection window of 4 it is never
        # recorded.
        assert (TAG_OCCURRENCE, 10, 0) not in branch.tags
