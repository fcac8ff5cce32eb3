"""Tests for repro.trace.trace (Trace and TraceBuilder)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.trace.record import BranchRecord
from repro.trace.trace import Trace, TraceBuilder

from conftest import trace_from_steps, trace_from_string


class TestTraceConstruction:
    def test_empty(self):
        trace = Trace.empty()
        assert len(trace) == 0
        assert trace.num_static_branches() == 0
        assert trace.taken_rate() == 0.0

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace([1, 2], [3], [True, False])

    def test_from_records_round_trip(self):
        records = [
            BranchRecord(0x10, 0x20, True),
            BranchRecord(0x14, 0x8, False),
        ]
        trace = Trace.from_records(records)
        assert list(trace) == records

    def test_builder_appends(self):
        builder = TraceBuilder()
        assert len(builder) == 0
        builder.append(1, 2, True)
        builder.append_record(BranchRecord(3, 4, False))
        assert len(builder) == 2
        trace = builder.build()
        assert trace[0] == BranchRecord(1, 2, True)
        assert trace[1] == BranchRecord(3, 4, False)

    def test_builder_rejects_negative(self):
        builder = TraceBuilder()
        with pytest.raises(ValueError):
            builder.append(-1, 0, True)

    def test_columns_read_only(self):
        trace = trace_from_string("TNT")
        with pytest.raises(ValueError):
            trace.taken[0] = False

    def test_pickled_trace_keeps_read_only_columns(self):
        # Pool workers ship generated traces back to the parent pickled.
        trace = trace_from_string("TNTTN")
        copy = pickle.loads(pickle.dumps(trace))
        assert copy.digest() == trace.digest()
        with pytest.raises(ValueError):
            copy.taken[0] = False


class TestTraceAccessors:
    def test_len_and_getitem(self):
        trace = trace_from_steps([(1, 2, True), (3, 4, False), (5, 6, True)])
        assert len(trace) == 3
        assert trace[1] == BranchRecord(3, 4, False)

    def test_negative_index(self):
        trace = trace_from_steps([(1, 2, True), (3, 4, False)])
        assert trace[-1] == BranchRecord(3, 4, False)

    def test_slice_returns_trace(self):
        trace = trace_from_steps([(1, 2, True), (3, 4, False), (5, 6, True)])
        sliced = trace[1:]
        assert isinstance(sliced, Trace)
        assert len(sliced) == 2
        assert sliced[0] == BranchRecord(3, 4, False)

    def test_is_backward(self):
        trace = trace_from_steps([(0x100, 0x80, True), (0x100, 0x180, True)])
        assert list(trace.is_backward) == [True, False]

    def test_taken_rate(self):
        trace = trace_from_string("TTTN")
        assert trace.taken_rate() == pytest.approx(0.75)

    def test_equality(self):
        a = trace_from_string("TNT")
        b = trace_from_string("TNT")
        c = trace_from_string("TNN")
        assert a == b
        assert a != c

    def test_repr_mentions_length(self):
        assert "len=3" in repr(trace_from_string("TNT"))


class TestTraceGrouping:
    def test_static_pcs(self):
        trace = trace_from_steps([(5, 6, True), (3, 4, False), (5, 6, True)])
        assert list(trace.static_pcs()) == [3, 5]

    def test_indices_by_pc(self):
        trace = trace_from_steps([(5, 6, True), (3, 4, False), (5, 6, False)])
        groups = trace.indices_by_pc()
        assert list(groups[5]) == [0, 2]
        assert list(groups[3]) == [1]

    def test_indices_preserve_execution_order(self):
        trace = trace_from_steps([(7, 8, True)] * 5)
        assert list(trace.indices_by_pc()[7]) == [0, 1, 2, 3, 4]

    def test_outcomes_by_pc(self):
        trace = trace_from_steps([(5, 6, True), (3, 4, False), (5, 6, False)])
        outcomes = trace.outcomes_by_pc()
        assert list(outcomes[5]) == [True, False]
        assert list(outcomes[3]) == [False]

    def test_dynamic_counts(self):
        trace = trace_from_steps([(5, 6, True)] * 3 + [(3, 4, False)])
        assert trace.dynamic_counts() == {5: 3, 3: 1}

    def test_grouping_cache_is_consistent(self):
        trace = trace_from_steps([(5, 6, True), (3, 4, False)])
        assert trace.indices_by_pc() is trace.indices_by_pc()

    def test_concat(self):
        a = trace_from_string("TN", pc=1)
        b = trace_from_string("T", pc=2)
        combined = a.concat(b)
        assert len(combined) == 3
        assert combined[2].pc == 2


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**40),
            st.integers(min_value=0, max_value=2**40),
            st.booleans(),
        ),
        max_size=60,
    )
)
def test_property_grouping_partitions_trace(steps):
    """indices_by_pc must partition [0, n) exactly."""
    trace = trace_from_steps(steps)
    groups = trace.indices_by_pc()
    all_indices = sorted(
        int(i) for indices in groups.values() for i in indices
    )
    assert all_indices == list(range(len(trace)))
    for pc, indices in groups.items():
        assert all(int(trace.pc[i]) == pc for i in indices)


@given(st.lists(st.booleans(), max_size=100))
def test_property_taken_rate_matches_mean(outcomes):
    from conftest import trace_from_outcomes

    trace = trace_from_outcomes(outcomes)
    if outcomes:
        assert trace.taken_rate() == pytest.approx(np.mean(outcomes))
    else:
        assert trace.taken_rate() == 0.0
