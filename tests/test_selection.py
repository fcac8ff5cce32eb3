"""Tests for oracle selection of correlated branches (section 3.4)."""

import pytest

import repro.correlation.selection as selection_module
from repro.correlation.selection import (
    SelectionConfig,
    joint_ideal_accuracy,
    select_counts,
    select_for_trace,
    single_tag_score,
)
from repro.correlation.tagging import (
    TAG_OCCURRENCE,
    collect_correlation_data,
)

import numpy as np

from repro.workloads.suite import load_benchmark

from conftest import trace_from_steps


def _fig1a_trace(n=300, seed=3):
    """Y: if (c1); X: if (c1 AND c2) -- X fully determined when Y not taken."""
    import random

    rng = random.Random(seed)
    steps = []
    for _ in range(n):
        c1 = rng.random() < 0.5
        c2 = rng.random() < 0.5
        steps.append((0x100, 0x200, c1))          # Y
        steps.append((0x300, 0x400, c1 and c2))   # X
    return trace_from_steps(steps)


def _fig1c_trace(n=300, seed=4):
    """Y: if (c1); Z: if (c2); X: if (c1 AND c2) -- needs both."""
    import random

    rng = random.Random(seed)
    steps = []
    for _ in range(n):
        c1 = rng.random() < 0.5
        c2 = rng.random() < 0.5
        steps.append((0x100, 0x200, c1))
        steps.append((0x500, 0x600, c2))
        steps.append((0x300, 0x400, c1 and c2))
    return trace_from_steps(steps)


class TestSingleTagScore:
    def test_perfectly_correlated_tag_scores_one(self):
        trace = _fig1a_trace()
        data = collect_correlation_data(trace, window=8)
        branch_x = data.branches[0x300]
        # Knowing Y (and c2 when Y taken is still uncertain): score of Y
        # = P(Y not taken) * 1 + P(Y taken) * max(c2, 1-c2) ~ 0.75.
        score = single_tag_score(branch_x, (TAG_OCCURRENCE, 0x100, 0), window=8)
        assert 0.65 < score < 0.85

    def test_uninformative_tag_scores_bias(self):
        import random

        rng = random.Random(5)
        steps = []
        for _ in range(300):
            steps.append((0x100, 0x200, rng.random() < 0.5))
            steps.append((0x300, 0x400, rng.random() < 0.7))
        trace = trace_from_steps(steps)
        data = collect_correlation_data(trace, window=8)
        branch = data.branches[0x300]
        score = single_tag_score(branch, (TAG_OCCURRENCE, 0x100, 0), window=8)
        assert score == pytest.approx(0.7, abs=0.08)


class TestJointScore:
    def test_two_tags_determine_fig1c(self):
        trace = _fig1c_trace()
        data = collect_correlation_data(trace, window=8)
        branch_x = data.branches[0x300]
        y_states = branch_x.state_vector((TAG_OCCURRENCE, 0x100, 0), 8)
        z_states = branch_x.state_vector((TAG_OCCURRENCE, 0x500, 0), 8)
        joint = joint_ideal_accuracy([y_states, z_states], branch_x.outcomes)
        assert joint > 0.99

    def test_empty_outcomes(self):
        assert joint_ideal_accuracy([], np.array([], dtype=bool)) == 0.0


class TestSelectForBranch:
    def test_selects_the_correlated_branch(self):
        trace = _fig1a_trace()
        data = collect_correlation_data(trace, window=8)
        selection = select_for_trace(data, 1, SelectionConfig(window=8))[0x300]
        assert selection.tags[0][1] == 0x100  # Y's address

    def test_fig1c_needs_two_branches(self):
        trace = _fig1c_trace()
        data = collect_correlation_data(trace, window=8)
        config = SelectionConfig(window=8)
        one = select_for_trace(data, 1, config)[0x300]
        two = select_for_trace(data, 2, config)[0x300]
        assert two.ideal_accuracy > one.ideal_accuracy + 0.1
        assert {tag[1] for tag in two.tags} == {0x100, 0x500}

    def test_count_validation(self):
        trace = _fig1a_trace(50)
        data = collect_correlation_data(trace, window=8)
        with pytest.raises(ValueError):
            select_for_trace(data, 0)

    def test_no_candidates_returns_bias(self):
        # A branch with a single instance: every tag falls below the
        # absolute support floor.
        trace = trace_from_steps([(1, 2, True), (3, 4, True)])
        data = collect_correlation_data(trace, window=8)
        selection = select_for_trace(data, 1, SelectionConfig(window=8))[3]
        assert selection.tags == ()
        assert selection.ideal_accuracy == 1.0

    def test_more_branches_never_hurt_ideal_accuracy(self):
        trace = _fig1c_trace()
        data = collect_correlation_data(trace, window=8)
        config = SelectionConfig(window=8)
        scores = [
            select_for_trace(data, count, config)[0x300].ideal_accuracy
            for count in (1, 2, 3)
        ]
        assert scores == sorted(scores)


class TestSelectForTrace:
    def test_selects_for_every_branch(self):
        trace = _fig1a_trace(100)
        data = collect_correlation_data(trace, window=8)
        selections = select_for_trace(data, 1, SelectionConfig(window=8))
        assert set(selections) == {0x100, 0x300}

    def test_window_cannot_exceed_collection(self):
        trace = _fig1a_trace(50)
        data = collect_correlation_data(trace, window=8)
        with pytest.raises(ValueError):
            select_for_trace(data, 1, SelectionConfig(window=16))

    def test_counts_come_from_one_pass(self):
        trace = _fig1c_trace(100)
        data = collect_correlation_data(trace, window=8)
        config = SelectionConfig(window=8)
        passes = select_counts(data, config)
        for count in (1, 2, 3):
            assert select_for_trace(data, count, config) == passes[count]
        assert select_for_trace(data, 5, config) == passes[3]


class TestBlockBudget:
    def test_one_branch_blocks_select_identically(self, monkeypatch):
        trace = load_benchmark("gcc", length=3000)
        data = collect_correlation_data(trace, window=16)
        config = SelectionConfig(window=16)
        whole = select_counts(data, config)
        blocks = []
        oracle_block = selection_module._oracle_block

        def recording(table, config, lo, hi):
            blocks.append(hi - lo)
            return oracle_block(table, config, lo, hi)

        monkeypatch.setattr(selection_module, "PASS_ELEMENT_BUDGET", 1)
        monkeypatch.setattr(selection_module, "_oracle_block", recording)
        blocked = select_counts(data, config)
        assert blocks == [1] * len(data.branches)
        assert blocked == whole
