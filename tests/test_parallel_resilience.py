"""Scheduler resilience: retries, fault injection, failure records.

The determinism contract under test: the same fault spec produces the
same attempt sequence, the same resilience counters and the same folded
results whether the engine runs in-process (``jobs=1``) or across
worker processes (``jobs=2``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.parallel import WorkerPool, prime_plan
from repro.plan import build_plan
from repro.resilience.faults import FaultInjector, FaultSpecError
from repro.resilience.retry import RetryPolicy
from repro.spec import RunSpec, SyntheticSource

SMALL = 2000

#: Figure 6 on the 2,000-branch suite: its tasks include ``loop``, which
#: every fault spec here targets.
FIG6 = RunSpec(experiments=("fig6",), workload=SyntheticSource(max_length=SMALL))

#: A policy with negligible backoff so retry tests stay fast.
FAST = dict(backoff_base=0.001, backoff_factor=1.0, backoff_cap=0.001)

#: Every worker-count path: in-process and pooled.
PATHS = [1, 2]


def prime(jobs, policy, spec=None):
    """One priming pass of the fig6 plan on a ``jobs``-worker pool, with
    faults from ``spec``; the point's labs, failures and metric delta."""
    with WorkerPool(jobs) as pool:
        primed = prime_plan(
            build_plan(FIG6), pool=pool, policy=policy,
            injector=FaultInjector.from_spec(spec) if spec else None,
        )
    return primed.labs[0], primed.failures[0], primed.metrics[0].snapshot()


def resilience_counters(delta: dict) -> dict:
    return {
        name: value
        for name, value in delta.get("counters", {}).items()
        if name.startswith("resilience.")
    }


@pytest.fixture()
def reference_loop():
    """Fault-free serial reference for the 'loop' task."""
    labs, _, _ = prime(1, RetryPolicy())
    return {name: lab.correct("loop") for name, lab in labs.items()}


class TestCrashRetry:
    def test_serial_and_parallel_counters_match(self, reference_loop):
        # Both paths run in this one test so their counters and bitmaps
        # can be compared with each other.
        spec = "gcc/loop:1:crash,perl/loop:1:crash,perl/loop:2:crash"
        deltas = []
        for jobs in PATHS:
            labs, _, delta = prime(jobs, RetryPolicy(max_attempts=3, **FAST), spec)
            deltas.append(resilience_counters(delta))
            for name, lab in labs.items():
                assert np.array_equal(lab.correct("loop"), reference_loop[name])
        assert all(delta == deltas[0] for delta in deltas)
        assert deltas[0]["resilience.faults.crash"] == 3
        assert deltas[0]["resilience.retries"] == 3


class TestExhaustedRetries:
    @pytest.mark.parametrize("jobs", PATHS)
    def test_persistent_crash_becomes_structured_failure(self, jobs):
        spec = ",".join(f"gcc/loop:{attempt}:crash" for attempt in (1, 2))
        labs, failures, delta = prime(
            jobs, RetryPolicy(max_attempts=2, **FAST), spec
        )
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
            _, failures, _ = prime(
                jobs, RetryPolicy(max_attempts=2, **FAST), spec
            )
            assert [f["benchmark"] for f in failures] == ["gcc", "perl"]
            records.append(failures)
        assert all(failures == records[0] for failures in records)


class TestHangs:
    def test_hang_without_timeout_is_a_spec_error(self):
        with pytest.raises(FaultSpecError, match="task timeout"):
            prime(1, RetryPolicy(), "loop:1:hang")

    def test_serial_hang_counts_as_timeout_and_retries(self):
        labs, failures, delta = prime(
            1, RetryPolicy(max_attempts=2, timeout=5.0, **FAST), "gcc/loop:1:hang"
        )
        assert failures == []
        assert delta["counters"]["resilience.timeouts"] == 1
        assert delta["counters"]["resilience.retries"] == 1
        assert labs["gcc"].is_primed("loop")

    def test_pool_hang_times_out_and_retries(self, reference_loop):
        # A hung worker is reclaimed by the deadline: the pool is
        # killed, the hung lane retried once, innocents resubmitted
        # uncharged.
        labs, failures, delta = prime(
            2, RetryPolicy(max_attempts=2, timeout=3.0, **FAST), "gcc/loop:1:hang"
        )
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
            _, _, delta = prime(jobs, policy, spec)
            totals.append(delta["timers"]["resilience.backoff_seconds"])
        # Every run charges exactly backoff(1) + backoff(2), as recorded
        # nominal values -- not measured sleeps.
        expected = policy.backoff(1) + policy.backoff(2)
        for total in totals:
            assert total["seconds"] == pytest.approx(expected)
            assert total["count"] == 2
