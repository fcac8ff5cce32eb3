"""Tests for the parallel simulation scheduler."""

from __future__ import annotations

import contextlib
import os
import signal
import struct
import threading
from multiprocessing.connection import wait as wait_for

import numpy as np
import pytest

import repro.analysis.parallel as parallel
from repro.analysis.cache import ResultCache
from repro.analysis.parallel import (
    WorkerPool,
    default_jobs,
    prime_plan,
    resolve_jobs,
)
from repro.analysis.runner import DEFAULT_TASKS, Lab
from repro.experiments.base import EXPERIMENT_IDS, build_labs
from repro.obs.metrics import Metrics
from repro.plan import build_plan
from repro.resilience.retry import RetryPolicy
from repro.spec import RunSpec, SyntheticSource
from repro.workloads.suite import load_benchmark

from conftest import scoped_cache_events

SMALL = 2000

#: The paper's experiments on the 2,000-branch suite: every default task.
SUITE = RunSpec(
    experiments=EXPERIMENT_IDS, workload=SyntheticSource(max_length=SMALL)
)


def prime(spec, jobs, cache=None):
    """One priming pass of ``spec``'s plan on a ``jobs``-worker pool."""
    with WorkerPool(jobs) as pool:
        return prime_plan(
            build_plan(spec), pool=pool, policy=RetryPolicy(), cache=cache
        )


def executed(primed):
    """How many sim lanes the pass ran and folded."""
    return primed.metrics[0].counter("parallel.jobs_executed")


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


def _blocked_signals():
    return {int(signum) for signum in signal.pthread_sigmask(signal.SIG_BLOCK, [])}


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

    def test_workers_unblock_the_signals_deferred_at_fork(self):
        # The scheduler holds SIGTERM/SIGINT pending while it submits, so
        # workers forked by that submit inherit the mask; they drop it.
        with WorkerPool(2) as pool:
            with parallel._interrupts_deferred():
                future = pool.handle().submit(_blocked_signals)
            blocked = future.result(timeout=60)
        assert int(signal.SIGTERM) not in blocked
        assert int(signal.SIGINT) not in blocked

    def test_killed_pool_with_a_partial_result_does_not_hang(self):
        # What a worker killed mid-write leaves in the result pipe: a
        # header promising 4 KiB, then a few bytes.
        pool = WorkerPool(1)
        executor = pool.handle()
        executor.submit(int).result(timeout=60)
        manager = executor._executor_manager_thread
        writer = executor._result_queue._writer
        os.write(writer.fileno(), struct.pack("!i", 4096) + b"partial")
        try:
            pool.drain(kill=True)
            manager.join(timeout=30)
            assert not manager.is_alive()
        finally:
            writer.close()  # never leave the thread, or the exit, blocked

    def test_sigterm_during_submit_surfaces_after_registration(
        self, monkeypatch
    ):
        schedulers, workers, seen = [], [], {}

        class Recording(parallel._Scheduler):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                schedulers.append(self)

        real_handle = WorkerPool.handle

        def handle(pool):
            executor = real_handle(pool)
            real_submit = executor.submit

            def submit(fn, *args):
                # The signal lands inside submit, before the real one.
                signal.pthread_kill(threading.main_thread().ident, signal.SIGTERM)
                future = real_submit(fn, *args)
                seen["submitted"] = True
                workers.extend(executor._processes.values())
                return future

            executor.submit = submit
            return executor

        def on_sigterm(signum, frame):
            seen.setdefault("submitted", False)
            seen["registered"] = len(schedulers[0].active)
            raise KeyboardInterrupt(f"signal {signum}")

        monkeypatch.setattr(parallel, "_Scheduler", Recording)
        monkeypatch.setattr(WorkerPool, "handle", handle)
        spec = RunSpec(experiments=("fig6",), workload=SyntheticSource(
            max_length=SMALL, benchmarks=("compress",)))
        previous = signal.signal(signal.SIGTERM, on_sigterm)
        try:
            with pytest.raises(KeyboardInterrupt):
                prime(spec, jobs=2)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert seen == {"submitted": True, "registered": 1}
        # No worker outlives the pass: each one's sentinel closes on exit.
        assert workers
        for worker in workers:
            assert wait_for([worker.sentinel], timeout=30), worker.pid


class TestPrimeLabs:
    def test_serial_priming_fills_memos(self, serial_labs):
        primed = prime(SUITE, jobs=1)
        labs = primed.labs[0]
        assert executed(primed) == len(labs) * len(DEFAULT_TASKS)
        for lab in labs.values():
            for task in DEFAULT_TASKS:
                assert lab.is_primed(task)
        assert_labs_match(labs, serial_labs)

    def test_parallel_matches_serial(self, serial_labs):
        primed = prime(SUITE, jobs=2)
        labs = primed.labs[0]
        assert executed(primed) == len(labs) * len(DEFAULT_TASKS)
        assert_labs_match(labs, serial_labs)

    def test_already_primed_schedules_nothing(self, tmp_path, serial_labs):
        prime(SUITE, jobs=1, cache=ResultCache(tmp_path / "c"))
        with WorkerPool(2) as pool:
            primed = prime_plan(
                build_plan(SUITE), pool=pool, policy=RetryPolicy(),
                cache=ResultCache(tmp_path / "c"),
            )
            assert pool._pool is None  # nothing to run: no worker forked
        assert executed(primed) == 0
        assert_labs_match(primed.labs[0], serial_labs)

    def test_cache_makes_second_prime_pure_hits(self, tmp_path, serial_labs):
        cache = ResultCache(tmp_path / "c")
        assert_labs_match(prime(SUITE, jobs=2, cache=cache).labs[0], serial_labs)
        # A fresh process (fresh labs, fresh cache handle) folds from disk.
        with scoped_cache_events() as second:
            labs2 = prime(SUITE, jobs=2, cache=ResultCache(tmp_path / "c")).labs[0]
        assert second.misses == 0
        assert second.hits >= len(labs2) * len(DEFAULT_TASKS)
        assert_labs_match(labs2, serial_labs)

    def test_adhoc_lab_digest_mismatch_is_discarded(self):
        # A worker that loaded a different trace than the lab holds must
        # not pollute the lab with its result.
        trace = load_benchmark("compress", length=SMALL, run_seed=777)
        delta = Metrics().snapshot()
        bitmap = np.ones(SMALL, dtype=bool)
        no_charge = lambda point: contextlib.nullcontext()  # noqa: E731
        for digest, primed in (("0" * 16, False), (trace.digest(), True)):
            lab = Lab(trace)
            lane = parallel._Lane(
                "compress", "loop", (None, SMALL, None),
                lab=lab, point=0, rank=0, priority=(),
            )
            lane.kinds = ()
            lane.payload = (bitmap, digest, delta, [], 0.0)
            parallel._fold_lanes([lane], None, no_charge)
            assert lab.is_primed("loop") is primed, digest

    def test_subset_of_tasks(self):
        fig6 = RunSpec(experiments=("fig6",), workload=SUITE.workload)
        labs = prime(fig6, jobs=1).labs[0]
        for lab in labs.values():
            assert lab.is_primed("loop") and lab.is_primed("block")
            assert not lab.is_primed("gshare")


class TestBuildLabsWiring:
    def test_default_build_stays_lazy(self):
        labs = build_labs(SMALL)
        for lab in labs.values():
            assert lab.cache is None
            for task in DEFAULT_TASKS:
                assert not lab.is_primed(task)

    def test_build_with_cache_stores_traces(self, tmp_path, cache_events):
        labs = build_labs(SMALL, cache=ResultCache(tmp_path / "c"))
        assert cache_events.writes == len(labs)
        with scoped_cache_events() as second:
            labs2 = build_labs(SMALL, cache=ResultCache(tmp_path / "c"))
        assert second.hits == len(labs2)
        for name in labs:
            assert labs[name].trace == labs2[name].trace
