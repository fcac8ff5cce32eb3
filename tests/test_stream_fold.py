"""Chunked-fold bit-identity: streaming must never change a prediction.

The streaming subsystem's whole correctness story is one property: for
every windowable predictor, folding a trace window by window through a
single instance produces exactly the bitmap a whole-trace ``simulate()``
would.  These tests sweep that property across every registered kernel,
with split points driven across (and off-by-one around) real ``BPT2``
chunk edges, plus the count-exactness of the dedicated streaming folds
for the whole-run baselines.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.streamed import (
    CHUNKABLE_TASKS,
    STREAMABLE_TASKS,
    fixed_best_count,
    ideal_static_count,
    stream_report,
    task_predictor,
)
from repro.check.contracts import _prepare
from repro.sim.fold import fold_correct_count, fold_simulate
from repro.predictors import PREDICTOR_REGISTRY
from repro.trace.stream import TraceStream, write_trace

from conftest import trace_from_steps

#: Registry predictors that participate in window folds (the two
#: oracle-replay predictors opt out via ``windowable = False``).
WINDOWABLE = sorted(
    name
    for name, factory in PREDICTOR_REGISTRY.items()
    if getattr(factory(), "windowable", True)
)


@pytest.fixture(scope="module")
def fold_trace(small_benchmark_trace):
    """A structurally-rich trace sized for per-kernel window sweeps."""
    return small_benchmark_trace[:2000]


class TestEveryRegisteredKernel:
    def test_oracle_replay_predictors_are_excluded(self):
        assert "selective" not in WINDOWABLE
        assert "ideal-static" not in WINDOWABLE
        assert "gshare" in WINDOWABLE and "egskew" in WINDOWABLE

    @pytest.mark.parametrize("name", WINDOWABLE)
    def test_fold_matches_whole_trace_across_chunk_edges(
        self, tmp_path, fold_trace, name
    ):
        factory = PREDICTOR_REGISTRY[name]
        reference = np.asarray(
            _prepare(factory(), fold_trace).simulate(fold_trace), dtype=bool
        )
        path = tmp_path / "fold.bpt"
        write_trace(fold_trace, path, chunk_branches=504)
        stream = TraceStream.open(path)
        folded = fold_simulate(
            _prepare(factory(), fold_trace), stream.chunks()
        )
        np.testing.assert_array_equal(np.asarray(folded, dtype=bool), reference)
        # Split points ON and AROUND every chunk edge: predictor state
        # carried across an edge must not shift any later prediction.
        edges = [start for start, _ in stream.spans()[1:]]
        splits = sorted(
            {edge + delta for edge in edges for delta in (-1, 0, 1)}
            & set(range(1, len(fold_trace)))
        )
        for split in splits:
            instance = _prepare(factory(), fold_trace)
            bitmap = np.concatenate([
                np.asarray(instance.simulate(fold_trace[:split]), dtype=bool),
                np.asarray(instance.simulate(fold_trace[split:]), dtype=bool),
            ])
            np.testing.assert_array_equal(bitmap, reference)


@settings(max_examples=25, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from([0x100, 0x104, 0x108, 0x10C]),
            st.just(0x80),
            st.booleans(),
        ),
        min_size=2,
        max_size=120,
    ),
    chunk_branches=st.integers(min_value=1, max_value=64),
    name=st.sampled_from(WINDOWABLE),
)
def test_property_random_trace_random_window(steps, chunk_branches, name):
    trace = trace_from_steps(steps)
    factory = PREDICTOR_REGISTRY[name]
    reference = np.asarray(
        _prepare(factory(), trace).simulate(trace), dtype=bool
    )
    stream = TraceStream.from_trace(trace, chunk_branches=chunk_branches)
    folded = fold_simulate(_prepare(factory(), trace), stream.chunks())
    np.testing.assert_array_equal(np.asarray(folded, dtype=bool), reference)


class TestStreamedTaskFolds:
    def test_chunked_bitmap_matches_compute_task(self, fold_trace):
        from repro.analysis.parallel import compute_task

        stream = TraceStream.from_trace(fold_trace, chunk_branches=256)
        for task in CHUNKABLE_TASKS:
            reference = np.asarray(
                compute_task(fold_trace, DEFAULT_CONFIG, task), dtype=bool
            )
            folded = fold_simulate(
                task_predictor(DEFAULT_CONFIG, task), stream.chunks()
            )
            np.testing.assert_array_equal(
                np.asarray(folded, dtype=bool), reference
            )

    @pytest.mark.parametrize("task", CHUNKABLE_TASKS)
    def test_uneven_windows_match_compute_task(self, fold_trace, task):
        """Windows of 1, 7 and 64 branches, then the rest."""
        from repro.analysis.parallel import compute_task

        reference = compute_task(fold_trace, DEFAULT_CONFIG, task)
        bounds = (0, 1, 8, 72, len(fold_trace))
        windows = [fold_trace[a:b] for a, b in zip(bounds, bounds[1:])]
        folded = fold_simulate(task_predictor(DEFAULT_CONFIG, task), windows)
        np.testing.assert_array_equal(
            np.asarray(folded, dtype=bool), np.asarray(reference, dtype=bool)
        )

    @pytest.mark.parametrize("name", ["if-gshare", "if-pas"])
    def test_uneven_windows_across_the_fallback_width(self, fold_trace, name):
        """Windows switch from the kernel to the reference loop mid-fold.

        With 59 history bits, cell keys fit the kernel's 62 bits while
        the perfect BTB holds at most 8 rows: the first window runs the
        kernel, later ones (more rows) the scalar loop, both on one
        state, and the fold must equal a whole-trace scalar replay.
        """
        from repro.predictors.base import simulate as generic_simulate

        trace = fold_trace[:600]
        factory = PREDICTOR_REGISTRY[name]
        assert factory(history_bits=59)._kernel_fits(trace[:1])
        assert not factory(history_bits=59)._kernel_fits(trace)
        reference = generic_simulate(factory(history_bits=59), trace)
        windows = [trace[:1], trace[1:8], trace[8:72], trace[72:]]
        folded = fold_simulate(factory(history_bits=59), windows)
        np.testing.assert_array_equal(folded, reference)

    def test_fold_correct_count_matches_bitmap_sum(self, fold_trace):
        stream = TraceStream.from_trace(fold_trace, chunk_branches=256)
        for task in CHUNKABLE_TASKS:
            reference = fold_simulate(
                task_predictor(DEFAULT_CONFIG, task), stream.chunks()
            )
            correct, total = fold_correct_count(
                task_predictor(DEFAULT_CONFIG, task), stream.chunks()
            )
            assert total == len(fold_trace)
            assert correct == int(np.count_nonzero(reference))

    def test_ideal_static_count_is_window_invariant(self, fold_trace):
        from repro.trace.stats import ideal_static_correct

        # A branch first seen in the last window, below every other
        # address, shifts every row of the per-branch accumulation.
        late = trace_from_steps([(0x4, 0x8, taken) for taken in (1, 1, 0)])
        assert 0x4 not in fold_trace.dynamic_counts()
        for trace in (fold_trace, fold_trace.concat(late)):
            reference = int(np.count_nonzero(ideal_static_correct(trace)))
            for chunk in (8, 104, 520):
                stream = TraceStream.from_trace(trace, chunk_branches=chunk)
                assert ideal_static_count(stream.chunks()) == (
                    reference, len(trace)
                )

    def test_fixed_best_count_is_window_invariant(self, fold_trace):
        whole = fixed_best_count([fold_trace])
        for chunk in (8, 104, 520):
            stream = TraceStream.from_trace(fold_trace, chunk_branches=chunk)
            assert fixed_best_count(stream.chunks()) == whole

    def test_stream_report_covers_all_streamable_tasks(self, fold_trace):
        stream = TraceStream.from_trace(fold_trace, chunk_branches=256)
        report = stream_report(stream, DEFAULT_CONFIG)
        assert set(report) == set(STREAMABLE_TASKS)
        for entry in report.values():
            assert entry["total"] == len(fold_trace)
            assert 0.0 < entry["accuracy"] <= 1.0

    def test_stream_report_rejects_unknown_task(self, fold_trace):
        stream = TraceStream.from_trace(fold_trace, chunk_branches=256)
        with pytest.raises(ValueError, match="not streamable"):
            stream_report(stream, DEFAULT_CONFIG, tasks=("correlation",))
