"""``Trace.branch_index`` reductions against the per-branch loops they replace.

The analysis layer's per-static-branch reductions (bias, ideal static,
best-of distributions, the per-address classes, the figure-9 curve, the
oracle combiners, offenders and warm-up ages) run as ``np.bincount``
passes over one memoised branch index.  The ``reference_*`` functions
below are the per-branch Python loops those passes replaced, kept here
as the specification: on random traces with few distinct addresses (so
ties are common), including the empty trace and single-instance
branches, every rewritten function must return the same dicts in the
same key order and the same floats, compared with ``==``.
"""

from typing import Dict, List, Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.analysis.accuracy import (
    accuracy_by_branch,
    correct_counts_by_branch,
    dynamic_weighted_fraction,
)
from repro.analysis.offenders import top_offenders
from repro.analysis.percentile import percentile_difference_curve
from repro.analysis.warmup import warmup_curve
from repro.classify.global_local import STATIC_LABEL, best_predictor_distribution
from repro.classify.per_address import PER_ADDRESS_CLASSES, classify_per_address
from repro.predictors.hybrid import OracleCombiner
from repro.trace.stats import (
    biased_fraction,
    compute_statistics,
    ideal_static_correct,
    per_branch_bias,
)
from repro.trace.trace import Trace

# -- reference loops ----------------------------------------------------------


def reference_indices_by_pc(trace: Trace) -> Dict[int, np.ndarray]:
    if not len(trace):
        return {}
    order = np.argsort(trace.pc, kind="stable")
    sorted_pc = trace.pc[order]
    boundaries = np.nonzero(np.diff(sorted_pc))[0] + 1
    groups = np.split(order, boundaries)
    return {
        int(sorted_pc[start]): group
        for start, group in zip(np.concatenate(([0], boundaries)), groups)
    }


def reference_dynamic_counts(trace: Trace) -> Dict[int, int]:
    return {pc: len(idx) for pc, idx in reference_indices_by_pc(trace).items()}


def reference_per_branch_bias(trace: Trace) -> Dict[int, float]:
    biases = {}
    for pc, indices in reference_indices_by_pc(trace).items():
        rate = float(trace.taken[indices].mean())
        biases[pc] = max(rate, 1.0 - rate)
    return biases


def reference_ideal_static_correct(trace: Trace) -> np.ndarray:
    correct = np.zeros(len(trace), dtype=bool)
    for _pc, indices in reference_indices_by_pc(trace).items():
        outcomes = trace.taken[indices]
        correct[indices] = outcomes == (outcomes.mean() >= 0.5)
    return correct


def reference_biased_fraction(trace: Trace, threshold: float = 0.99) -> float:
    if not len(trace):
        return 0.0
    counts = reference_dynamic_counts(trace)
    biased = sum(
        counts[pc] for pc, b in reference_per_branch_bias(trace).items() if b > threshold
    )
    return biased / len(trace)


def reference_accuracy_by_branch(trace: Trace, correct: np.ndarray) -> Dict[int, float]:
    return {
        pc: float(correct[indices].mean())
        for pc, indices in reference_indices_by_pc(trace).items()
    }


def reference_correct_counts(trace: Trace, correct: np.ndarray) -> Dict[int, int]:
    return {
        pc: int(correct[indices].sum())
        for pc, indices in reference_indices_by_pc(trace).items()
    }


def reference_weighted_fraction(trace: Trace, branches) -> float:
    if not len(trace):
        return 0.0
    counts = reference_dynamic_counts(trace)
    return sum(counts.get(pc, 0) for pc in branches) / len(trace)


def _reference_static_biased(trace: Trace, winners: Dict[int, str]) -> float:
    biases = reference_per_branch_bias(trace)
    counts = reference_dynamic_counts(trace)
    static_members = [pc for pc, w in winners.items() if w == STATIC_LABEL]
    static_dynamic = sum(counts[pc] for pc in static_members)
    if not static_dynamic:
        return 0.0
    biased = sum(counts[pc] for pc in static_members if biases[pc] > 0.99)
    return biased / static_dynamic


def reference_best_predictor_distribution(trace, groups, static_correct):
    best_of: Dict[int, str] = {}
    for pc, indices in reference_indices_by_pc(trace).items():
        best_label = STATIC_LABEL
        best_count = int(static_correct[indices].sum())
        for label, bitmaps in groups.items():
            group_count = max(int(bitmap[indices].sum()) for bitmap in bitmaps)
            if group_count > best_count:
                best_count = group_count
                best_label = label
        best_of[pc] = best_label
    fractions = {
        label: reference_weighted_fraction(
            trace, [pc for pc, winner in best_of.items() if winner == label]
        )
        for label in [STATIC_LABEL] + list(groups)
    }
    return best_of, fractions, _reference_static_biased(trace, best_of)


def reference_classify_per_address(lab):
    trace = lab.trace
    loop = reference_correct_counts(trace, lab.correct("loop"))
    fixed = reference_correct_counts(trace, lab.correct("fixed_best"))
    block = reference_correct_counts(trace, lab.correct("block"))
    pas = reference_correct_counts(trace, lab.correct("if_pas"))
    static = reference_correct_counts(trace, lab.correct("ideal_static"))
    class_of: Dict[int, str] = {}
    for pc in static:
        candidates = (
            ("loop", loop[pc]),
            ("repeating", max(fixed[pc], block[pc])),
            ("non_repeating", pas[pc]),
        )
        best_label, best_count = max(candidates, key=lambda item: item[1])
        class_of[pc] = "ideal_static" if static[pc] >= best_count else best_label
    fractions = {
        label: reference_weighted_fraction(
            trace, [pc for pc, cls in class_of.items() if cls == label]
        )
        for label in PER_ADDRESS_CLASSES
    }
    return class_of, fractions, _reference_static_biased(trace, class_of)


def reference_percentile_differences(trace, correct_a, correct_b, percentiles):
    per_dynamic = np.zeros(len(trace), dtype=np.float64)
    for _pc, indices in reference_indices_by_pc(trace).items():
        per_dynamic[indices] = (
            correct_a[indices].mean() - correct_b[indices].mean()
        ) * 100.0
    ordered = np.sort(per_dynamic)
    positions = np.asarray(list(percentiles), dtype=np.float64)
    if len(ordered):
        return np.percentile(ordered, positions)
    return np.zeros_like(positions)


def reference_combine(trace, primary, alternative):
    combined = primary.copy()
    for _pc, indices in reference_indices_by_pc(trace).items():
        if alternative[indices].sum() > primary[indices].sum():
            combined[indices] = alternative[indices]
    return combined


def reference_combine_with_mask(trace, primary, alternative, use_alternative):
    combined = primary.copy()
    for pc, indices in reference_indices_by_pc(trace).items():
        if pc in use_alternative:
            combined[indices] = alternative[indices]
    return combined


def reference_offender_rows(trace, correct) -> List[tuple]:
    total = int((~correct).sum())
    rows = []
    for pc, indices in reference_indices_by_pc(trace).items():
        branch_correct = correct[indices]
        misses = int((~branch_correct).sum())
        if misses == 0:
            continue
        rows.append(
            (
                pc,
                len(indices),
                misses,
                float(branch_correct.mean()),
                float(trace.taken[indices].mean()),
                misses / total if total else 0.0,
            )
        )
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows


def reference_ages(trace: Trace) -> np.ndarray:
    ages = np.zeros(len(trace), dtype=np.int64)
    for indices in reference_indices_by_pc(trace).values():
        ages[indices] = np.arange(len(indices))
    return ages


# -- strategies ---------------------------------------------------------------

#: Few distinct addresses, including the top of the uint64 range.
ADDRESSES = (0x40, 0x44, 0x1000, 2**63 + 8, 2**64 - 4)


@st.composite
def traces_with_bitmaps(draw, bitmaps: int = 6):
    pool = draw(
        st.lists(st.sampled_from(ADDRESSES), min_size=1, max_size=4, unique=True)
    )
    length = draw(st.integers(0, 40))
    pcs = draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length))
    taken = draw(st.lists(st.booleans(), min_size=length, max_size=length))
    trace = Trace(pcs, [pc ^ 0x10 for pc in pcs], taken)
    maps = [
        np.array(
            draw(st.lists(st.booleans(), min_size=length, max_size=length)),
            dtype=bool,
        )
        for _ in range(bitmaps)
    ]
    return trace, maps


class FakeLab:
    """The two members of :class:`~repro.analysis.runner.Lab` the
    classification reads."""

    def __init__(self, trace: Trace, bitmaps: Dict[str, np.ndarray]) -> None:
        self.trace = trace
        self._bitmaps = bitmaps

    def correct(self, name: str) -> np.ndarray:
        return self._bitmaps[name]


def _lab(trace: Trace, maps: Sequence[np.ndarray]) -> FakeLab:
    names = ("loop", "fixed_best", "block", "if_pas")
    bitmaps = dict(zip(names, maps))
    bitmaps["ideal_static"] = ideal_static_correct(trace)
    return FakeLab(trace, bitmaps)


def _same_items(actual: dict, expected: dict) -> bool:
    return list(actual.items()) == list(expected.items())


# -- properties ---------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(traces_with_bitmaps())
def test_index_views_match_reference(case):
    trace, _maps = case
    pcs, ids, counts = trace.branch_index()
    expected = reference_indices_by_pc(trace)
    assert list(trace.indices_by_pc()) == list(expected)
    for got, want in zip(trace.indices_by_pc().values(), expected.values()):
        assert np.array_equal(got, want)
    assert np.array_equal(pcs, np.unique(trace.pc))
    assert np.array_equal(pcs[ids], trace.pc)
    assert _same_items(trace.dynamic_counts(), reference_dynamic_counts(trace))
    assert trace.num_static_branches() == len(expected)
    assert list(trace.static_pcs().tolist()) == list(expected)
    assert not (pcs.flags.writeable or ids.flags.writeable or counts.flags.writeable)


@settings(max_examples=80, deadline=None)
@given(traces_with_bitmaps())
def test_trace_stats_match_reference(case):
    trace, _maps = case
    assert _same_items(per_branch_bias(trace), reference_per_branch_bias(trace))
    assert np.array_equal(
        ideal_static_correct(trace), reference_ideal_static_correct(trace)
    )
    for threshold in (0.5, 0.75, 0.99):
        assert biased_fraction(trace, threshold) == reference_biased_fraction(
            trace, threshold
        )
    stats = compute_statistics(trace)
    assert stats.num_static == len(reference_indices_by_pc(trace))
    assert _same_items(stats.per_branch_bias, reference_per_branch_bias(trace))


@settings(max_examples=80, deadline=None)
@given(traces_with_bitmaps(), st.lists(st.sampled_from(ADDRESSES + (7,))))
def test_accuracy_helpers_match_reference(case, branches):
    trace, maps = case
    assert _same_items(
        accuracy_by_branch(trace, maps[0]), reference_accuracy_by_branch(trace, maps[0])
    )
    assert _same_items(
        correct_counts_by_branch(trace, maps[0]),
        reference_correct_counts(trace, maps[0]),
    )
    assert dynamic_weighted_fraction(trace, branches) == reference_weighted_fraction(
        trace, branches
    )


@settings(max_examples=80, deadline=None)
@given(traces_with_bitmaps())
def test_best_predictor_distribution_matches_reference(case):
    trace, maps = case
    groups = {"gshare": [maps[0]], "pas": [maps[1], maps[2]], "other": maps[3:]}
    for static in (ideal_static_correct(trace), maps[5]):
        dist = best_predictor_distribution(trace, groups, static)
        best_of, fractions, biased = reference_best_predictor_distribution(
            trace, groups, static
        )
        assert _same_items(dist.best_of, best_of)
        assert _same_items(dist.dynamic_fractions, fractions)
        assert dist.static_best_biased_fraction == biased


@settings(max_examples=80, deadline=None)
@given(traces_with_bitmaps())
def test_classify_per_address_matches_reference(case):
    trace, maps = case
    lab = _lab(trace, maps)
    result = classify_per_address(lab)
    class_of, fractions, biased = reference_classify_per_address(lab)
    assert _same_items(result.class_of, class_of)
    assert _same_items(result.dynamic_fractions, fractions)
    assert result.static_best_biased_fraction == biased


@settings(max_examples=80, deadline=None)
@given(traces_with_bitmaps())
def test_percentile_curve_matches_reference(case):
    trace, maps = case
    percentiles = tuple(range(0, 101, 5))
    curve = percentile_difference_curve(trace, maps[0], maps[1], percentiles)
    expected = reference_percentile_differences(trace, maps[0], maps[1], percentiles)
    assert np.array_equal(curve.differences, expected)


@settings(max_examples=80, deadline=None)
@given(traces_with_bitmaps(), st.sets(st.sampled_from(ADDRESSES)))
def test_oracle_combiners_match_reference(case, members):
    trace, maps = case
    combined = OracleCombiner.combine(trace, maps[0], maps[1])
    assert combined.dtype == maps[0].dtype
    assert np.array_equal(combined, reference_combine(trace, maps[0], maps[1]))
    masked = OracleCombiner.combine_with_mask(trace, maps[0], maps[1], members)
    assert np.array_equal(
        masked, reference_combine_with_mask(trace, maps[0], maps[1], members)
    )


@settings(max_examples=80, deadline=None)
@given(traces_with_bitmaps(), st.integers(1, 6))
def test_offenders_and_warmup_match_reference(case, count):
    trace, maps = case
    rows = [
        (o.pc, o.executions, o.mispredictions, o.accuracy, o.taken_rate,
         o.misprediction_share)
        for o in top_offenders(trace, maps[0], count=count)
    ]
    assert rows == reference_offender_rows(trace, maps[0])[:count]

    edges = (0, 1, 2, 5, 1 << 62)
    curve = warmup_curve(trace, maps[0], bucket_edges=edges)
    ages = reference_ages(trace)
    for i, (low, high) in enumerate(zip(edges, edges[1:])):
        mask = (ages >= low) & (ages < high)
        assert curve.counts[i] == int(mask.sum())
        assert curve.accuracies[i] == (
            float(maps[0][mask].mean()) if mask.any() else 0.0
        )


# -- explicit tie rules ---------------------------------------------------------


def _trace(per_branch: Dict[int, int]) -> Trace:
    pcs = [pc for pc, n in per_branch.items() for _ in range(n)]
    return Trace(pcs, pcs, [True] * len(pcs))


def _bitmap(trace: Trace, hits: Dict[int, int]) -> np.ndarray:
    """A bitmap with ``hits[pc]`` correct executions of each branch."""
    bitmap = np.zeros(len(trace), dtype=bool)
    for pc, indices in trace.indices_by_pc().items():
        bitmap[indices[: hits.get(pc, 0)]] = True
    return bitmap


class TestBestPredictorTieRules:
    # Per branch: (static, first, second) correct executions out of 4.
    SCORES = {
        0x10: (3, 3, 3),  # all tie -> static
        0x20: (2, 3, 3),  # groups tie above static -> first
        0x30: (2, 3, 4),  # second strictly best
        0x40: (4, 3, 4),  # second ties static -> static
        0x50: (1, 2, 1),  # first strictly best
    }

    def test_static_then_earlier_group_keeps_ties(self):
        trace = _trace({pc: 4 for pc in self.SCORES})
        bitmaps = [
            _bitmap(trace, {pc: s[i] for pc, s in self.SCORES.items()})
            for i in range(3)
        ]
        dist = best_predictor_distribution(
            trace, {"first": [bitmaps[1]], "second": [bitmaps[2]]}, bitmaps[0]
        )
        assert list(dist.best_of.items()) == [
            (0x10, "ideal_static"),
            (0x20, "first"),
            (0x30, "second"),
            (0x40, "ideal_static"),
            (0x50, "first"),
        ]
        assert list(dist.dynamic_fractions.items()) == [
            ("ideal_static", 0.4),
            ("first", 0.4),
            ("second", 0.2),
        ]


class TestPerAddressTieRules:
    # Per branch: (static, loop, fixed_best, block, if_pas) out of 4.
    SCORES = {
        0x10: (3, 3, 3, 3, 3),  # all tie -> ideal_static
        0x20: (2, 3, 3, 1, 3),  # classes tie above static -> loop
        0x30: (2, 1, 1, 3, 3),  # repeating (via block) ties non_repeating
        0x40: (2, 1, 2, 1, 4),  # non_repeating strictly best
        0x50: (1, 2, 4, 0, 3),  # repeating (via fixed) strictly best
        0x60: (4, 4, 4, 4, 4),  # all perfect -> ideal_static
    }

    def test_static_then_loop_then_repeating_keep_ties(self):
        trace = _trace({pc: 4 for pc in self.SCORES})
        names = ("ideal_static", "loop", "fixed_best", "block", "if_pas")
        lab = FakeLab(
            trace,
            {
                name: _bitmap(trace, {pc: s[i] for pc, s in self.SCORES.items()})
                for i, name in enumerate(names)
            },
        )
        result = classify_per_address(lab)
        assert list(result.class_of.items()) == [
            (0x10, "ideal_static"),
            (0x20, "loop"),
            (0x30, "repeating"),
            (0x40, "non_repeating"),
            (0x50, "repeating"),
            (0x60, "ideal_static"),
        ]
        assert list(result.dynamic_fractions.items()) == [
            ("ideal_static", 8 / 24),
            ("loop", 4 / 24),
            ("repeating", 8 / 24),
            ("non_repeating", 4 / 24),
        ]
