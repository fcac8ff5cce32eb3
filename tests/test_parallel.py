"""Tests for the parallel simulation scheduler."""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.analysis.cache import ResultCache
from repro.analysis.parallel import (
    DEFAULT_TASKS,
    WorkerPool,
    default_jobs,
    prime_labs,
    resolve_jobs,
)
from repro.analysis.runner import Lab
from repro.experiments.base import build_labs
from repro.workloads.suite import load_benchmark

SMALL = 2000


@pytest.fixture(scope="module")
def serial_labs():
    """Reference results computed the plain in-process way."""
    labs = build_labs(SMALL)
    for lab in labs.values():
        for task in DEFAULT_TASKS:
            if task == "correlation":
                lab.correlation_data()
            else:
                lab.correct(task)
    return labs


def assert_labs_match(labs, serial_labs):
    assert set(labs) == set(serial_labs)
    for name, lab in labs.items():
        reference = serial_labs[name]
        for task in DEFAULT_TASKS:
            if task == "correlation":
                assert (
                    lab.correlation_data().trace_length
                    == reference.correlation_data().trace_length
                )
            else:
                assert np.array_equal(
                    lab.correct(task), reference.correct(task)
                ), (name, task)


class TestJobResolution:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        assert resolve_jobs(None) == 3

    def test_env_garbage_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert default_jobs() >= 1

    def test_explicit_wins_and_clamps(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(2) == 2
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


def _signal_handlers():
    return signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGINT)


def _raise_interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


class TestWorkerSignals:
    def test_workers_drop_the_parents_handlers(self):
        # A run converts SIGTERM into KeyboardInterrupt in the parent;
        # pool workers must not inherit that.
        previous = signal.signal(signal.SIGTERM, _raise_interrupt)
        try:
            with WorkerPool(2) as pool:
                handlers = pool.handle().submit(_signal_handlers).result(timeout=60)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert handlers == (signal.SIG_DFL, signal.SIG_IGN)


class TestPrimeLabs:
    def test_serial_priming_fills_memos(self, serial_labs):
        labs = build_labs(SMALL)
        executed = prime_labs(labs, jobs=1)
        assert executed == len(labs) * len(DEFAULT_TASKS)
        for lab in labs.values():
            for task in DEFAULT_TASKS:
                assert lab.is_primed(task)
        assert_labs_match(labs, serial_labs)

    def test_parallel_matches_serial(self, serial_labs):
        labs = build_labs(SMALL)
        executed = prime_labs(labs, jobs=2)
        assert executed == len(labs) * len(DEFAULT_TASKS)
        assert_labs_match(labs, serial_labs)

    def test_already_primed_schedules_nothing(self, serial_labs):
        labs = build_labs(SMALL)
        prime_labs(labs, jobs=1)
        assert prime_labs(labs, jobs=2) == 0

    def test_cache_makes_second_prime_pure_hits(self, tmp_path, serial_labs):
        cache = ResultCache(tmp_path / "c")
        labs = build_labs(SMALL, jobs=2, cache=cache)
        assert_labs_match(labs, serial_labs)
        # A fresh process (fresh labs, fresh cache handle) folds from disk.
        cache2 = ResultCache(tmp_path / "c")
        labs2 = build_labs(SMALL, jobs=2, cache=cache2)
        assert cache2.stats.misses == 0
        assert cache2.stats.hits >= len(labs2) * len(DEFAULT_TASKS)
        assert_labs_match(labs2, serial_labs)

    def test_adhoc_lab_digest_mismatch_is_discarded(self):
        # A lab whose trace does NOT regenerate from its key must not be
        # polluted by the worker's differently-seeded result.
        trace = load_benchmark("compress", length=SMALL, run_seed=777)
        labs = {"compress": Lab(trace)}
        prime_labs(labs, run_seed=12345, jobs=2, tasks=("loop",))
        assert not labs["compress"].is_primed("loop")

    def test_subset_of_tasks(self):
        labs = build_labs(SMALL)
        prime_labs(labs, jobs=1, tasks=("loop", "block"))
        for lab in labs.values():
            assert lab.is_primed("loop") and lab.is_primed("block")
            assert not lab.is_primed("gshare")


class TestChunkedPriming:
    def test_chunked_prime_is_bit_identical(self, serial_labs):
        # A window far below every trace length forces chunk lanes
        # (carried-state folds; shared-memory shipping on the pool) for
        # all chunkable tasks; results must match the serial references
        # in-process and on the pool alike.
        for jobs in (1, 2):
            labs = build_labs(SMALL, chunk_branches=512)
            executed = prime_labs(labs, jobs=jobs, chunk_branches=512)
            assert executed == len(labs) * len(DEFAULT_TASKS)
            assert_labs_match(labs, serial_labs)

    def test_chunked_metrics_count_lanes_and_windows(self):
        from repro.obs.metrics import METRICS

        counts = []
        for jobs in (1, 2):
            labs = build_labs(SMALL, chunk_branches=512)
            METRICS.reset()
            prime_labs(
                labs, jobs=jobs, tasks=("gshare",), chunk_branches=512
            )
            snapshot = METRICS.snapshot()
            lanes = snapshot["counters"].get("sim.chunked_simulations", 0)
            windows = snapshot["counters"].get("sim.chunk_simulations", 0)
            assert lanes == len(labs)
            assert windows > lanes  # several windows per lane
            assert "sim.simulations" not in snapshot["counters"]
            counts.append((lanes, windows))
        assert counts[0] == counts[1]

    def test_window_wider_than_traces_uses_whole_trace_path(
        self, serial_labs
    ):
        labs = build_labs(SMALL, chunk_branches=1 << 20)
        prime_labs(labs, jobs=1, chunk_branches=1 << 20)
        assert_labs_match(labs, serial_labs)


class TestBuildLabsWiring:
    def test_default_build_stays_lazy(self):
        labs = build_labs(SMALL)
        for lab in labs.values():
            assert lab.cache is None
            for task in DEFAULT_TASKS:
                assert not lab.is_primed(task)

    def test_build_with_cache_stores_traces(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        labs = build_labs(SMALL, cache=cache)
        assert cache.stats.writes == len(labs)
        cache2 = ResultCache(tmp_path / "c")
        labs2 = build_labs(SMALL, cache=cache2)
        assert cache2.stats.hits == len(labs2)
        for name in labs:
            assert labs[name].trace == labs2[name].trace
