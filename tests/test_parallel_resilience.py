"""Scheduler resilience: retries, fault injection, failure records.

The determinism contract under test: the same fault spec produces the
same attempt sequence, the same resilience counters and the same folded
results whether the engine runs in-process (``jobs=1``) or across
worker processes (``jobs=4``), and whether a task runs as one
whole-trace window or as a lane of chunk windows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import parallel
from repro.analysis.parallel import prime_labs
from repro.experiments.base import build_labs
from repro.obs.metrics import METRICS
from repro.resilience.faults import FaultInjector, FaultSpecError
from repro.resilience.retry import RetryPolicy

SMALL = 2000

#: A window far below every trace length, so chunkable tasks run as
#: multi-window lanes.
CHUNK = 512

#: A policy with negligible backoff so retry tests stay fast.
FAST = dict(backoff_base=0.001, backoff_factor=1.0, backoff_cap=0.001)

#: Every (jobs, chunk_branches) path; whole-trace cells keep the ids
#: they had before chunking was a parameter.
PATHS = [
    pytest.param(1, None, id="1"),
    pytest.param(2, None, id="2"),
    pytest.param(1, CHUNK, id="1-chunked"),
    pytest.param(2, CHUNK, id="2-chunked"),
]
CELLS = [tuple(path.values) for path in PATHS]


def assert_lanes_chunked(delta: dict, labs, chunk_branches) -> None:
    """A fault spec must not send chunkable lanes down the whole path."""
    if chunk_branches is None:
        return
    counters = delta["counters"]
    assert counters["sim.chunked_simulations"] == len(labs)
    assert "sim.simulations" not in counters


def resilience_counters(delta: dict) -> dict:
    return {
        name: value
        for name, value in delta.get("counters", {}).items()
        if name.startswith("resilience.")
    }


@pytest.fixture()
def reference_loop():
    """Fault-free serial reference for the 'loop' task."""
    labs = build_labs(SMALL)
    prime_labs(labs, jobs=1, tasks=("loop",))
    return {name: lab.correct("loop") for name, lab in labs.items()}


class TestCrashRetry:
    @pytest.mark.parametrize("jobs,chunk_branches", PATHS)
    def test_attempt_one_crash_is_transparent(
        self, jobs, chunk_branches, reference_loop
    ):
        labs = build_labs(SMALL)
        injector = FaultInjector.from_spec("loop:1:crash")
        failures = []
        baseline = METRICS.snapshot()
        executed = prime_labs(
            labs,
            jobs=jobs,
            tasks=("loop",),
            policy=RetryPolicy(max_attempts=3, **FAST),
            injector=injector,
            failures=failures,
            chunk_branches=chunk_branches,
        )
        delta = METRICS.delta_since(baseline)
        assert_lanes_chunked(delta, labs, chunk_branches)
        assert executed == len(labs)
        assert failures == []
        counters = resilience_counters(delta)
        assert counters["resilience.faults.crash"] == len(labs)
        assert counters["resilience.retries"] == len(labs)
        assert "resilience.task_failures" not in counters
        for name, lab in labs.items():
            assert np.array_equal(lab.correct("loop"), reference_loop[name])

    def test_serial_and_parallel_counters_match(self, reference_loop):
        # Every jobs x chunking cell runs in this one test so their
        # counters and bitmaps can be compared with each other.
        spec = "gcc/loop:1:crash,perl/loop:1:crash,perl/loop:2:crash"
        deltas = []
        for jobs, chunk_branches in CELLS:
            labs = build_labs(SMALL)
            baseline = METRICS.snapshot()
            prime_labs(
                labs,
                jobs=jobs,
                tasks=("loop",),
                policy=RetryPolicy(max_attempts=3, **FAST),
                injector=FaultInjector.from_spec(spec),
                failures=[],
                chunk_branches=chunk_branches,
            )
            delta = METRICS.delta_since(baseline)
            assert_lanes_chunked(delta, labs, chunk_branches)
            deltas.append(resilience_counters(delta))
            for name, lab in labs.items():
                assert np.array_equal(lab.correct("loop"), reference_loop[name])
        assert all(delta == deltas[0] for delta in deltas)
        assert deltas[0]["resilience.faults.crash"] == 3
        assert deltas[0]["resilience.retries"] == 3

    def test_in_process_window_retry_resumes_carried_state(
        self, monkeypatch, reference_loop
    ):
        # A mid-lane window that simulates and then fails must be
        # retried from the state carried into it, not from the
        # predictor its failed attempt already advanced.
        labs = build_labs(SMALL)
        real = parallel._simulate_window
        failed = []

        def flaky(trace, config, task, window, state):
            result = real(trace, config, task, window, state)
            if trace is labs["gcc"].trace and window == (CHUNK, 2 * CHUNK):
                if not failed:
                    failed.append(window)
                    raise RuntimeError("transient window failure")
            return result

        monkeypatch.setattr(parallel, "_simulate_window", flaky)
        failures = []
        baseline = METRICS.snapshot()
        prime_labs(
            labs,
            jobs=1,
            tasks=("loop",),
            policy=RetryPolicy(max_attempts=2, **FAST),
            failures=failures,
            chunk_branches=CHUNK,
        )
        delta = METRICS.delta_since(baseline)
        assert failed and failures == []
        assert resilience_counters(delta)["resilience.retries"] == 1
        for name, lab in labs.items():
            assert np.array_equal(lab.correct("loop"), reference_loop[name])


class TestExhaustedRetries:
    @pytest.mark.parametrize("jobs,chunk_branches", PATHS)
    def test_persistent_crash_becomes_structured_failure(
        self, jobs, chunk_branches
    ):
        labs = build_labs(SMALL)
        spec = ",".join(f"gcc/loop:{attempt}:crash" for attempt in (1, 2))
        failures = []
        baseline = METRICS.snapshot()
        prime_labs(
            labs,
            jobs=jobs,
            tasks=("loop",),
            policy=RetryPolicy(max_attempts=2, **FAST),
            injector=FaultInjector.from_spec(spec),
            failures=failures,
            chunk_branches=chunk_branches,
        )
        delta = METRICS.delta_since(baseline)
        assert len(failures) == 1
        failure = failures[0]
        assert failure["scope"] == "task"
        assert (failure["benchmark"], failure["task"]) == ("gcc", "loop")
        assert failure["attempts"] == 2
        assert failure["kind"] == "error"
        assert "InjectedCrash" in failure["message"]
        # The whole record is path-independent, message included.
        assert failure["message"] == "InjectedCrash: injected crash: gcc/loop"
        assert delta["counters"]["resilience.task_failures"] == 1
        # The run degraded, it did not die: every other lab is primed.
        assert not labs["gcc"].is_primed("loop")
        for name, lab in labs.items():
            if name != "gcc":
                assert lab.is_primed("loop")

    def test_failures_are_sorted_not_schedule_ordered(self):
        spec = ",".join(
            f"{name}/loop:{attempt}:crash"
            for name in ("perl", "gcc")
            for attempt in (1, 2)
        )
        records = []
        for jobs, chunk_branches in CELLS:
            labs = build_labs(SMALL)
            failures = []
            prime_labs(
                labs,
                jobs=jobs,
                tasks=("loop",),
                policy=RetryPolicy(max_attempts=2, **FAST),
                injector=FaultInjector.from_spec(spec),
                failures=failures,
                chunk_branches=chunk_branches,
            )
            assert [f["benchmark"] for f in failures] == ["gcc", "perl"]
            records.append(failures)
        assert all(failures == records[0] for failures in records)


class TestHangs:
    def test_hang_without_timeout_is_a_spec_error(self):
        labs = build_labs(SMALL)
        with pytest.raises(FaultSpecError, match="task timeout"):
            prime_labs(
                labs,
                jobs=1,
                tasks=("loop",),
                injector=FaultInjector.from_spec("loop:1:hang"),
            )

    def test_serial_hang_counts_as_timeout_and_retries(self):
        labs = build_labs(SMALL)
        failures = []
        baseline = METRICS.snapshot()
        prime_labs(
            labs,
            jobs=1,
            tasks=("loop",),
            policy=RetryPolicy(max_attempts=2, timeout=5.0, **FAST),
            injector=FaultInjector.from_spec("gcc/loop:1:hang"),
            failures=failures,
        )
        delta = METRICS.delta_since(baseline)
        assert failures == []
        assert delta["counters"]["resilience.timeouts"] == 1
        assert delta["counters"]["resilience.retries"] == 1
        assert labs["gcc"].is_primed("loop")

    def test_pool_hang_times_out_alike_chunked_or_not(self, reference_loop):
        # A hung window is reclaimed by the deadline on chunk lanes too:
        # the pool is killed, the hung lane retried once, innocents
        # resubmitted uncharged.
        counters = []
        for chunk_branches in (None, CHUNK):
            labs = build_labs(SMALL)
            failures = []
            baseline = METRICS.snapshot()
            prime_labs(
                labs,
                jobs=2,
                tasks=("loop",),
                policy=RetryPolicy(max_attempts=2, timeout=3.0, **FAST),
                injector=FaultInjector.from_spec("gcc/loop:1:hang"),
                failures=failures,
                chunk_branches=chunk_branches,
            )
            delta = METRICS.delta_since(baseline)
            assert failures == []
            assert_lanes_chunked(delta, labs, chunk_branches)
            assert delta["counters"]["parallel.pool_rebuilds"] >= 1
            counters.append(resilience_counters(delta))
            for name, lab in labs.items():
                assert np.array_equal(lab.correct("loop"), reference_loop[name])
        assert counters[0] == counters[1]
        assert counters[0]["resilience.timeouts"] == 1
        assert counters[0]["resilience.retries"] == 1
        assert counters[0]["resilience.faults.hang"] == 1


class TestBackoffAccounting:
    def test_nominal_backoff_seconds_are_deterministic(self):
        policy = RetryPolicy(max_attempts=3)
        spec = "gcc/loop:1:crash,gcc/loop:2:crash"
        totals = []
        for jobs, chunk_branches in CELLS:
            labs = build_labs(SMALL)
            baseline = METRICS.snapshot()
            prime_labs(
                labs,
                jobs=jobs,
                tasks=("loop",),
                policy=policy,
                injector=FaultInjector.from_spec(spec),
                failures=[],
                chunk_branches=chunk_branches,
            )
            delta = METRICS.delta_since(baseline)
            totals.append(delta["timers"]["resilience.backoff_seconds"])
        # Every run charges exactly backoff(1) + backoff(2), as recorded
        # nominal values -- not measured sleeps.
        expected = policy.backoff(1) + policy.backoff(2)
        for total in totals:
            assert total["seconds"] == pytest.approx(expected)
            assert total["count"] == 2
