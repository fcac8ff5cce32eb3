"""Scheduler resilience: retries, fault injection, failure records.

The determinism contract under test: the same fault spec produces the
same attempt sequence, the same resilience counters and the same folded
results whether the engine runs in-process (``jobs=1``) or across
worker processes (``jobs=2``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.parallel import prime_labs
from repro.experiments.base import build_labs
from repro.obs.metrics import METRICS
from repro.resilience.faults import FaultInjector, FaultSpecError
from repro.resilience.retry import RetryPolicy

SMALL = 2000

#: A policy with negligible backoff so retry tests stay fast.
FAST = dict(backoff_base=0.001, backoff_factor=1.0, backoff_cap=0.001)

#: Every worker-count path: in-process and pooled.
PATHS = [1, 2]


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
    def test_serial_and_parallel_counters_match(self, reference_loop):
        # Both paths run in this one test so their counters and bitmaps
        # can be compared with each other.
        spec = "gcc/loop:1:crash,perl/loop:1:crash,perl/loop:2:crash"
        deltas = []
        for jobs in PATHS:
            labs = build_labs(SMALL)
            baseline = METRICS.snapshot()
            prime_labs(
                labs,
                jobs=jobs,
                tasks=("loop",),
                policy=RetryPolicy(max_attempts=3, **FAST),
                injector=FaultInjector.from_spec(spec),
                failures=[],
            )
            delta = METRICS.delta_since(baseline)
            deltas.append(resilience_counters(delta))
            for name, lab in labs.items():
                assert np.array_equal(lab.correct("loop"), reference_loop[name])
        assert all(delta == deltas[0] for delta in deltas)
        assert deltas[0]["resilience.faults.crash"] == 3
        assert deltas[0]["resilience.retries"] == 3


class TestExhaustedRetries:
    @pytest.mark.parametrize("jobs", PATHS)
    def test_persistent_crash_becomes_structured_failure(self, jobs):
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
        for jobs in PATHS:
            labs = build_labs(SMALL)
            failures = []
            prime_labs(
                labs,
                jobs=jobs,
                tasks=("loop",),
                policy=RetryPolicy(max_attempts=2, **FAST),
                injector=FaultInjector.from_spec(spec),
                failures=failures,
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

    def test_pool_hang_times_out_and_retries(self, reference_loop):
        # A hung worker is reclaimed by the deadline: the pool is
        # killed, the hung lane retried once, innocents resubmitted
        # uncharged.
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
        )
        delta = METRICS.delta_since(baseline)
        assert failures == []
        assert delta["counters"]["parallel.pool_rebuilds"] >= 1
        counters = resilience_counters(delta)
        assert counters["resilience.timeouts"] == 1
        assert counters["resilience.retries"] == 1
        assert counters["resilience.faults.hang"] == 1
        for name, lab in labs.items():
            assert np.array_equal(lab.correct("loop"), reference_loop[name])


class TestBackoffAccounting:
    def test_nominal_backoff_seconds_are_deterministic(self):
        policy = RetryPolicy(max_attempts=3)
        spec = "gcc/loop:1:crash,gcc/loop:2:crash"
        totals = []
        for jobs in PATHS:
            labs = build_labs(SMALL)
            baseline = METRICS.snapshot()
            prime_labs(
                labs,
                jobs=jobs,
                tasks=("loop",),
                policy=policy,
                injector=FaultInjector.from_spec(spec),
                failures=[],
            )
            delta = METRICS.delta_since(baseline)
            totals.append(delta["timers"]["resilience.backoff_seconds"])
        # Every run charges exactly backoff(1) + backoff(2), as recorded
        # nominal values -- not measured sleeps.
        expected = policy.backoff(1) + policy.backoff(2)
        for total in totals:
            assert total["seconds"] == pytest.approx(expected)
            assert total["count"] == 2
