"""Global-history kernel equivalence tests (:mod:`repro.sim.kernels_global`).

The two-level family (gshare/GAs/PAs/GAg/PAg) and the selective-history
replay override ``simulate()`` with whole-trace vectorised kernels.  The
kernels must be *bit-identical* to the generic scalar predict-then-update
loop -- from a fresh state, from a carried (mid-trace) state including the
written-back PHT/BHT/history registers, on every suite workload, on random
traces, and across hypothesis-driven random history/PHT/counter widths.

The batched oracle scorer (:mod:`repro.correlation.selection`) is pinned
the same way: a direct scalar re-derivation through the public
``single_tag_score`` / ``joint_ideal_accuracy`` scoring functions must
reproduce ``select_for_trace`` exactly (same tags, float-equal scores).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.correlation.selection import (
    Selection,
    SelectionConfig,
    joint_ideal_accuracy,
    select_counts,
    select_for_trace,
    single_tag_score,
)
from repro.correlation.tagging import (
    TAG_BACKWARD,
    TAG_OCCURRENCE,
    collect_correlation_data,
)
from repro.predictors.base import simulate as generic_simulate
from repro.predictors.selective import SelectiveHistoryPredictor
from repro.predictors.twolevel import (
    GAgPredictor,
    GAsPredictor,
    GsharePredictor,
    PAgPredictor,
    PAsPredictor,
)
from repro.trace.trace import Trace
from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark

from conftest import trace_from_string

#: Every global-history kernelised predictor, as (label, zero-arg factory).
KERNEL_FACTORIES = [
    ("gshare-8h", lambda: GsharePredictor(history_bits=8)),
    ("gshare-12h", lambda: GsharePredictor(history_bits=12)),
    ("gshare-0h", lambda: GsharePredictor(history_bits=0, pht_bits=4)),
    ("gshare-1bit", lambda: GsharePredictor(history_bits=6, counter_bits=1)),
    ("gshare-3bit", lambda: GsharePredictor(history_bits=6, counter_bits=3)),
    ("gshare-wide-pht", lambda: GsharePredictor(history_bits=4, pht_bits=10)),
    ("gas", lambda: GAsPredictor(history_bits=8, pht_select_bits=3)),
    ("gas-0s", lambda: GAsPredictor(history_bits=8, pht_select_bits=0)),
    ("gag", lambda: GAgPredictor(history_bits=10)),
    ("pas", lambda: PAsPredictor(history_bits=6, bht_bits=6, pht_select_bits=3)),
    ("pas-aliased", lambda: PAsPredictor(history_bits=4, bht_bits=2)),
    ("pag", lambda: PAgPredictor(history_bits=8, bht_bits=8)),
]

FACTORY_IDS = [label for label, _ in KERNEL_FACTORIES]
FACTORIES = [factory for _, factory in KERNEL_FACTORIES]


def random_trace(seed: int, n: int, num_branches: int, bias: float) -> Trace:
    rng = np.random.default_rng(seed)
    pcs = rng.integers(0, num_branches, n).astype(np.uint64) * np.uint64(4)
    pcs += np.uint64(0x1000)
    return Trace(pcs, pcs + np.uint64(16), rng.random(n) < bias)


@pytest.fixture(scope="module")
def suite_traces():
    return {name: load_benchmark(name, length=2500) for name in BENCHMARK_NAMES}


class TestGlobalKernelEquivalence:
    @pytest.mark.parametrize("factory", FACTORIES, ids=FACTORY_IDS)
    def test_all_suite_workloads(self, factory, suite_traces):
        for name, trace in suite_traces.items():
            fast = factory().simulate(trace)
            reference = generic_simulate(factory(), trace)
            assert np.array_equal(fast, reference), name

    @pytest.mark.parametrize("factory", FACTORIES, ids=FACTORY_IDS)
    def test_random_traces(self, factory):
        for seed in range(6):
            trace = random_trace(
                seed, n=400 + 137 * seed, num_branches=1 + 13 * seed,
                bias=(0.1, 0.5, 0.85, 0.97, 0.5, 0.3)[seed],
            )
            fast = factory().simulate(trace)
            reference = generic_simulate(factory(), trace)
            assert np.array_equal(fast, reference), seed

    @pytest.mark.parametrize("factory", FACTORIES, ids=FACTORY_IDS)
    def test_chained_simulate_carries_state(self, factory):
        """Two kernel calls must train across the split like one scalar run."""
        trace = load_benchmark("compress", length=3000)
        half = len(trace) // 2
        first, second = trace[:half], trace[half:]
        predictor = factory()
        fast = np.concatenate(
            [predictor.simulate(first), predictor.simulate(second)]
        )
        reference = generic_simulate(factory(), trace)
        assert np.array_equal(fast, reference)

    @pytest.mark.parametrize("factory", FACTORIES, ids=FACTORY_IDS)
    def test_edge_traces(self, factory):
        for spec in ("", "T", "N", "TN", "TTTN" * 12, "T" * 40, "NT" * 17):
            trace = trace_from_string(spec)
            fast = factory().simulate(trace)
            reference = generic_simulate(factory(), trace)
            assert np.array_equal(fast, reference), spec

    @settings(max_examples=40, deadline=None)
    @given(
        outcomes=st.lists(st.booleans(), max_size=120),
        pcs=st.lists(st.integers(0, 6), max_size=120),
        which=st.integers(0, len(KERNEL_FACTORIES) - 1),
    )
    def test_hypothesis_random(self, outcomes, pcs, which):
        n = min(len(outcomes), len(pcs))
        trace = Trace(
            np.asarray([0x400 + 4 * p for p in pcs[:n]], dtype=np.uint64),
            np.full(n, 0x80, dtype=np.uint64),
            np.asarray(outcomes[:n], dtype=bool),
        )
        factory = FACTORIES[which]
        fast = factory().simulate(trace)
        reference = generic_simulate(factory(), trace)
        assert np.array_equal(fast, reference)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        history_bits=st.integers(0, 9),
        size_bits=st.integers(1, 8),
        select_bits=st.integers(0, 4),
        counter_bits=st.integers(1, 4),
        family=st.integers(0, 4),
    )
    def test_hypothesis_random_widths(
        self, seed, history_bits, size_bits, select_bits, counter_bits, family
    ):
        """Kernel == scalar across random history/PHT/counter geometries."""
        if family == 0:
            factory = lambda: GsharePredictor(
                history_bits, pht_bits=size_bits, counter_bits=counter_bits
            )
        elif family == 1:
            factory = lambda: GAsPredictor(
                history_bits, pht_select_bits=select_bits,
                counter_bits=counter_bits,
            )
        elif family == 2:
            factory = lambda: PAsPredictor(
                history_bits, bht_bits=size_bits,
                pht_select_bits=select_bits, counter_bits=counter_bits,
            )
        elif family == 3:
            factory = lambda: GAgPredictor(
                history_bits, counter_bits=counter_bits
            )
        else:
            factory = lambda: PAgPredictor(
                history_bits, bht_bits=size_bits, counter_bits=counter_bits
            )
        trace = random_trace(seed, n=300, num_branches=11, bias=0.6)
        fast = factory().simulate(trace)
        reference = generic_simulate(factory(), trace)
        assert np.array_equal(fast, reference)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        split=st.integers(0, 300),
        which=st.integers(0, len(KERNEL_FACTORIES) - 1),
    )
    def test_hypothesis_chained_splits(self, seed, split, which):
        """Carried state is exact at every possible split point."""
        trace = random_trace(seed, n=300, num_branches=7, bias=0.55)
        factory = FACTORIES[which]
        predictor = factory()
        fast = np.concatenate(
            [predictor.simulate(trace[:split]), predictor.simulate(trace[split:])]
        )
        reference = generic_simulate(factory(), trace)
        assert np.array_equal(fast, reference)


class TestGlobalKernelStateWriteback:
    def test_gshare_pht_and_history_match_scalar(self):
        trace = load_benchmark("go", length=1500)
        kernel = GsharePredictor(history_bits=7)
        kernel.simulate(trace)
        scalar = GsharePredictor(history_bits=7)
        generic_simulate(scalar, trace)
        assert np.array_equal(kernel._pht, scalar._pht)
        assert kernel._history == scalar._history

    def test_gas_pht_and_history_match_scalar(self):
        trace = load_benchmark("gcc", length=1500)
        kernel = GAsPredictor(history_bits=6, pht_select_bits=3)
        kernel.simulate(trace)
        scalar = GAsPredictor(history_bits=6, pht_select_bits=3)
        generic_simulate(scalar, trace)
        assert np.array_equal(kernel._pht, scalar._pht)
        assert kernel._history == scalar._history

    def test_pas_pht_and_bht_match_scalar(self):
        trace = load_benchmark("perl", length=1500)
        kernel = PAsPredictor(history_bits=5, bht_bits=4, pht_select_bits=2)
        kernel.simulate(trace)
        scalar = PAsPredictor(history_bits=5, bht_bits=4, pht_select_bits=2)
        generic_simulate(scalar, trace)
        assert np.array_equal(kernel._pht, scalar._pht)
        assert np.array_equal(kernel._bht, scalar._bht)


def _scalar_replay(predictor, trace: Trace) -> np.ndarray:
    """Sequential per-branch counter replay of a fitted selective predictor."""
    correct = np.zeros(len(trace), dtype=bool)
    window = predictor._config.window
    for pc, branch in predictor._data.branches.items():
        selection = predictor.selections[pc]
        combined = np.zeros(branch.num_instances(), dtype=np.int64)
        for tag in selection.tags:
            combined = combined * 3 + branch.state_vector(tag, window)
        counters = {}
        branch_correct = np.zeros(branch.num_instances(), dtype=bool)
        for i, (pattern, taken) in enumerate(
            zip(combined.tolist(), branch.outcomes.tolist())
        ):
            value = counters.get(pattern, predictor._initial)
            branch_correct[i] = (value >= predictor._threshold) == taken
            if taken:
                counters[pattern] = min(value + 1, predictor._counter_max)
            else:
                counters[pattern] = max(value - 1, 0)
        correct[branch.trace_indices] = branch_correct
    return correct


class TestSelectiveKernelEquivalence:
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_kernel_matches_scalar_replay_and_online(self, count):
        trace = load_benchmark("gcc", length=3000)
        config = SelectionConfig(window=12)
        kernel = SelectiveHistoryPredictor(count, config).fit(trace)
        fast = kernel.simulate(trace)
        scalar = SelectiveHistoryPredictor(count, config).fit(trace)
        assert np.array_equal(fast, _scalar_replay(scalar, trace))
        online = SelectiveHistoryPredictor(count, config).fit(trace)
        assert np.array_equal(fast, generic_simulate(online, trace))


def _reference_select_counts(
    branch, config: SelectionConfig
) -> Dict[int, Selection]:
    """The pre-batching oracle search, re-derived via the public scorers.

    One sequential search answers every count: the best single, the best
    pair over the ``top_k`` singles (kept only if strictly better), and
    the greedy third on that pair (likewise).  The pair and triple
    searches always run in full, so the batched pass's pruning is checked
    against an unpruned search.
    """
    n = branch.num_instances()
    support_floor = max(
        config.min_support_absolute, int(config.min_support_fraction * n)
    )
    scored = []
    for tag in branch.tags:
        if config.tag_kinds is not None and tag[0] not in config.tag_kinds:
            continue
        support = np.count_nonzero(branch.state_vector(tag, config.window))
        if support < support_floor:
            continue
        scored.append((tag, single_tag_score(branch, tag, config.window)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    if not scored:
        outcomes = branch.outcomes
        rate = float(outcomes.mean()) if len(outcomes) else 0.0
        bias = max(rate, 1.0 - rate) if len(outcomes) else 0.0
        selection = Selection(tags=(), ideal_accuracy=bias)
        return {1: selection, 2: selection, 3: selection}

    best_single = scored[0]
    single = Selection(tags=(best_single[0],), ideal_accuracy=best_single[1])
    if len(scored) == 1:
        return {1: single, 2: single, 3: single}

    top = [tag for tag, _score in scored[: config.top_k]]
    vectors = {tag: branch.state_vector(tag, config.window) for tag in top}
    outcomes = branch.outcomes

    best_pair: Tuple = (best_single[0],)
    best_pair_score = best_single[1]
    for pair in combinations(top, 2):
        score = joint_ideal_accuracy([vectors[t] for t in pair], outcomes)
        if score > best_pair_score:
            best_pair_score = score
            best_pair = pair
    pair = Selection(tags=tuple(best_pair), ideal_accuracy=best_pair_score)
    if len(best_pair) < 2:
        return {1: single, 2: pair, 3: pair}

    best_triple = best_pair
    best_triple_score = best_pair_score
    pair_vectors = [vectors[t] for t in best_pair]
    for tag in top:
        if tag in best_pair:
            continue
        score = joint_ideal_accuracy(pair_vectors + [vectors[tag]], outcomes)
        if score > best_triple_score:
            best_triple_score = score
            best_triple = best_pair + (tag,)
    triple = Selection(tags=tuple(best_triple), ideal_accuracy=best_triple_score)
    return {1: single, 2: pair, 3: triple}


#: How a small random trace's step picks its outcome: fixed, a copy of an
#: earlier outcome, or the XOR of two, so perfect singles and perfect
#: pairs are common.
_OUTCOME_RULES = ("T", "N", "copy1", "copy2", "xor")


@st.composite
def small_oracle_traces(draw) -> Trace:
    """1-4 branches of 1-40 instances each, interleaved at random."""
    counts = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    branches = draw(
        st.permutations([b for b, count in enumerate(counts) for _ in range(count)])
    )
    rules = draw(
        st.lists(
            st.sampled_from(_OUTCOME_RULES),
            min_size=len(branches), max_size=len(branches),
        )
    )
    taken = []
    for rule in rules:
        last = taken[-1] if taken else True
        before = taken[-2] if len(taken) > 1 else False
        taken.append(
            {"T": True, "N": False, "copy1": last, "copy2": before, "xor": last != before}[rule]
        )
    pcs = [0x400 + 0x40 * b for b in branches]
    # Branches 2 and 3 jump backward, so both tag schemes are exercised.
    targets = [pc - 0x20 if pc >= 0x480 else pc + 0x200 for pc in pcs]
    return Trace(pcs, targets, taken)


class TestBatchedOracleEquivalence:
    CONFIGS = [
        SelectionConfig(window=8),
        SelectionConfig(window=16, top_k=6),
        SelectionConfig(window=16, tag_kinds=(TAG_OCCURRENCE,)),
        SelectionConfig(window=12, tag_kinds=(TAG_BACKWARD,)),
        SelectionConfig(window=16, min_support_fraction=0.2),
    ]

    @pytest.mark.parametrize("workload", ["gcc", "go", "compress"])
    def test_pinned_to_scalar_reference(self, workload):
        """Batched selection is exactly the sequential search's output."""
        trace = load_benchmark(workload, length=3000)
        data = collect_correlation_data(trace, window=16)
        for config in self.CONFIGS:
            batched = {count: select_for_trace(data, count, config) for count in (1, 2, 3)}
            for pc, branch in data.branches.items():
                reference = _reference_select_counts(branch, config)
                for count in (1, 2, 3):
                    expected = reference[count]
                    got = batched[count][pc]
                    assert got.tags == expected.tags, (pc, count, config)
                    assert got.ideal_accuracy == expected.ideal_accuracy, (
                        pc, count, config,
                    )

    @settings(max_examples=120, deadline=None)
    @given(
        trace=small_oracle_traces(),
        window=st.sampled_from((4, 8, 16)),
        top_k=st.sampled_from((2, 3, 12)),
        floor=st.sampled_from((1, 4)),
    )
    def test_pruned_search_matches_the_full_search(self, trace, window, top_k, floor):
        """Skipping pair and triple searches that cannot win changes nothing."""
        data = collect_correlation_data(trace, window=16)
        config = SelectionConfig(window=window, top_k=top_k, min_support_absolute=floor)
        selections = select_counts(data, config)
        for pc, branch in data.branches.items():
            reference = _reference_select_counts(branch, config)
            for count in (1, 2, 3):
                assert selections[count][pc] == reference[count], (pc, count)
            single = selections[1][pc]
            if len(single.tags) == 1 and single.ideal_accuracy == 1.0:
                assert selections[2][pc].tags == single.tags
                assert selections[3][pc].tags == single.tags
