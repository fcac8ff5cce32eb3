"""Tests for the metrics registry (repro.obs.metrics)."""

import threading

import pytest

from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.parallel import PoolJob, _run_job
from repro.obs.metrics import METRICS, Metrics, current_metrics, metrics_scope
from repro.spec import SyntheticSource


class TestInstruments:
    def test_counter_increments(self):
        m = Metrics()
        m.inc("a")
        m.inc("a", 4)
        assert m.counter("a") == 5
        assert m.counter("never") == 0

    def test_gauge_last_write_wins(self):
        m = Metrics()
        m.gauge("workers", 2)
        m.gauge("workers", 8)
        assert m.snapshot()["gauges"] == {"workers": 8}

    def test_timer_context_manager_accumulates(self):
        m = Metrics()
        with m.timer("t"):
            pass
        with m.timer("t"):
            pass
        entry = m.snapshot()["timers"]["t"]
        assert entry["count"] == 2
        assert entry["seconds"] >= 0.0

    def test_add_time_external_duration(self):
        m = Metrics()
        m.add_time("t", 1.5)
        m.add_time("t", 0.5, count=3)
        entry = m.snapshot()["timers"]["t"]
        assert entry["count"] == 4
        assert entry["seconds"] == 2.0


class TestSnapshotDelta:
    def test_snapshot_is_plain_and_sorted(self):
        m = Metrics()
        m.inc("z")
        m.inc("a")
        snap = m.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert set(snap) == {"counters", "gauges", "timers"}

    def test_snapshot_is_a_copy(self):
        m = Metrics()
        m.inc("a")
        snap = m.snapshot()
        snap["counters"]["a"] = 999
        assert m.counter("a") == 1


class TestMergeReset:
    def test_merge_adds_counters_and_timers(self):
        parent = Metrics()
        parent.inc("a", 1)
        worker = Metrics()
        worker.inc("a", 2)
        worker.inc("b", 3)
        worker.add_time("t", 0.5)
        parent.merge(worker.snapshot())
        snap = parent.snapshot()
        assert snap["counters"] == {"a": 3, "b": 3}
        assert snap["timers"]["t"] == {"count": 1, "seconds": 0.5}

    def test_merge_order_does_not_matter_for_counters(self):
        deltas = []
        for value in (1, 2, 3):
            w = Metrics()
            w.inc("n", value)
            deltas.append(w.snapshot())
        forward, backward = Metrics(), Metrics()
        for d in deltas:
            forward.merge(d)
        for d in reversed(deltas):
            backward.merge(d)
        assert forward.snapshot()["counters"] == backward.snapshot()["counters"]

    def test_thread_safety_of_inc(self):
        m = Metrics()

        def bump():
            for _ in range(1000):
                m.inc("n")

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("n") == 4000


class TestGlobalRegistry:
    def test_global_registry_exists_and_counts(self):
        with metrics_scope() as scope:
            METRICS.inc("test.obs_metrics.probe")
        assert scope.counter("test.obs_metrics.probe") == 1
        assert current_metrics() is not scope


class TestScopes:
    def test_nested_registry_counts_into_its_parent(self):
        with metrics_scope() as outer:
            METRICS.inc("a")
            with metrics_scope() as inner:
                METRICS.inc("a", 2)
                METRICS.gauge("level", 3)
                METRICS.add_time("t", 0.5)
                METRICS.merge({"counters": {"b": 4}})
            METRICS.inc("c")
        assert inner.snapshot() == {
            "counters": {"a": 2, "b": 4},
            "gauges": {"level": 3},
            "timers": {"t": {"count": 1, "seconds": 0.5}},
        }
        assert outer.snapshot() == {
            "counters": {"a": 3, "b": 4, "c": 1},
            "gauges": {"level": 3},
            "timers": {"t": {"count": 1, "seconds": 0.5}},
        }

    def test_thread_scopes_do_not_see_each_other(self):
        both_inside = threading.Barrier(2)
        seen = {}

        def count(name):
            with metrics_scope() as scope:
                both_inside.wait()
                for _ in range(500):
                    METRICS.inc("n")
                both_inside.wait()
            seen[name] = scope.snapshot()["counters"]

        with metrics_scope() as mine:
            threads = [threading.Thread(target=count, args=(name,)) for name in "ab"]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert seen == {"a": {"n": 500}, "b": {"n": 500}}
        assert mine.counter("n") == 0

    def test_scope_is_restored_on_exit(self):
        with metrics_scope() as outer:
            with pytest.raises(RuntimeError):
                with metrics_scope():
                    raise RuntimeError("leave the scope")
            assert current_metrics() is outer
            METRICS.inc("after")
        assert outer.counter("after") == 1

    def test_job_registry_starts_empty(self):
        job = PoolJob(
            "compress", "gshare", DEFAULT_CONFIG, SyntheticSource(max_length=2000),
            None, None, (),
        )
        with metrics_scope() as outer:
            METRICS.inc("sim.simulations", 5)
            shipped = _run_job(job)[2]["counters"]
        assert shipped["sim.simulations"] == 1
        # The job's registry counts into nothing here: the parent folds
        # its snapshot in, once.
        assert outer.counter("sim.simulations") == 5
