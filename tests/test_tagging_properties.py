"""Property tests: the collector vs a brute-force reference model.

The correlation collector is the most intricate piece of the
reproduction (columnar entries, dual tagging, dedup, depth filtering).
These tests re-derive every tag state with a direct, obviously-correct
window scan and require exact agreement on randomised traces.
"""

from typing import Dict

from hypothesis import given, settings, strategies as st


from repro.correlation.selection import (
    SelectionConfig,
    joint_ideal_accuracy,
    single_tag_score,
)
from repro.correlation.tagging import (
    STATE_ABSENT,
    STATE_NOT_TAKEN,
    STATE_TAKEN,
    TAG_BACKWARD,
    TAG_OCCURRENCE,
    TagKey,
    collect_correlation_data,
)

from conftest import trace_from_steps


def reference_tag_states(trace, index: int, window: int) -> Dict[TagKey, int]:
    """Brute-force tag states for the branch at trace position ``index``.

    Scans the window most-recent-first, numbering occurrences from the
    current branch and counting backward branches strictly between the
    tagged instance and the current branch; the shallowest appearance of
    a tag wins.
    """
    states: Dict[TagKey, int] = {}
    occurrence_counts: Dict[int, int] = {}
    backward_count = 0
    for depth in range(1, min(index, window) + 1):
        j = index - depth
        pc = int(trace.pc[j])
        taken = bool(trace.taken[j])
        state = STATE_TAKEN if taken else STATE_NOT_TAKEN
        occurrence = occurrence_counts.get(pc, 0)
        occurrence_counts[pc] = occurrence + 1
        occ_tag = (TAG_OCCURRENCE, pc, occurrence)
        if occ_tag not in states:
            states[occ_tag] = state
        bwd_tag = (TAG_BACKWARD, pc, backward_count)
        if bwd_tag not in states:
            states[bwd_tag] = state
        if int(trace.target[j]) < pc:
            backward_count += 1
    return states


step_lists = st.lists(
    st.tuples(
        st.sampled_from([0x10, 0x20, 0x30]),
        st.sampled_from([0x08, 0x40]),  # backward or forward target
        st.booleans(),
    ),
    min_size=2,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(steps=step_lists, window=st.sampled_from([1, 2, 4, 8, 16]))
def test_property_collector_matches_reference(steps, window):
    """Every tag state derivable from the collected data must equal the
    brute-force reference, for every instance and every window."""
    trace = trace_from_steps(steps)
    data = collect_correlation_data(trace, window=32)

    instance_counters: Dict[int, int] = {}
    for i in range(len(trace)):
        pc = int(trace.pc[i])
        instance = instance_counters.get(pc, 0)
        instance_counters[pc] = instance + 1
        expected = reference_tag_states(trace, i, window)
        branch = data.branches[pc]
        # Every expected tag must be present with the right state...
        for tag, state in expected.items():
            assert branch.state_vector(tag, window)[instance] == state
        # ...and every collected tag absent from the reference must be
        # reported absent for this instance under this window.
        for tag in branch.tags:
            if tag not in expected:
                assert (
                    branch.state_vector(tag, window)[instance] == STATE_ABSENT
                )


@settings(max_examples=40, deadline=None)
@given(steps=step_lists)
def test_property_single_tag_score_at_least_bias(steps):
    """Bucketing by any tag can never reduce ideal-table accuracy below
    the branch's bias (per-bucket majorities dominate the global one)."""
    trace = trace_from_steps(steps)
    data = collect_correlation_data(trace, window=16)
    for branch in data.branches.values():
        outcomes = branch.outcomes
        bias = max(outcomes.mean(), 1 - outcomes.mean()) if len(outcomes) else 0
        for tag in branch.tags:
            score = single_tag_score(branch, tag, window=16)
            assert score >= bias - 1e-12


@settings(max_examples=40, deadline=None)
@given(steps=step_lists)
def test_property_joint_score_at_least_best_single(steps):
    """Adding a second tag can never reduce the ideal-table accuracy."""
    trace = trace_from_steps(steps)
    data = collect_correlation_data(trace, window=16)
    for branch in data.branches.values():
        tags = list(branch.tags)[:4]
        if len(tags) < 2:
            continue
        first = branch.state_vector(tags[0], 16)
        second = branch.state_vector(tags[1], 16)
        single = joint_ideal_accuracy([first], branch.outcomes)
        joint = joint_ideal_accuracy([first, second], branch.outcomes)
        assert joint >= single - 1e-12


@settings(max_examples=30, deadline=None)
@given(steps=step_lists, count=st.sampled_from([1, 2, 3]))
def test_property_selection_never_crashes_and_bounds(steps, count):
    """The oracle handles arbitrary traces; scores stay in [0, 1]."""
    from repro.correlation.selection import select_for_trace

    trace = trace_from_steps(steps)
    data = collect_correlation_data(trace, window=16)
    selections = select_for_trace(data, count, SelectionConfig(window=16))
    for pc, selection in selections.items():
        assert 0.0 <= selection.ideal_accuracy <= 1.0
        assert len(selection.tags) <= count
        for tag in selection.tags:
            assert tag in data.branches[pc].tags
