"""Corrupt cache entries are quarantined, not silently trusted."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.cache import QUARANTINE_DIRNAME, ResultCache, result_key
from repro.analysis.config import LabConfig
from repro.analysis.parallel import prime_labs
from repro.analysis.runner import Lab
from repro.api import EngineSession, run_spec
from repro.resilience.faults import FaultInjector
from repro.resilience.retry import RetryPolicy
from repro.spec import EngineOptions, spec_from_kwargs
from repro.workloads.suite import load_benchmark

from conftest import count_disk_reads

SMALL = 2000


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "c")


def store_bitmap(cache, digest="d" * 32, key="loop|v1"):
    bitmap = np.array([True, False, True, True], dtype=bool)
    cache.store_bitmap(digest, key, bitmap)
    return bitmap, cache.entry_path("bitmap", cache.bitmap_key(digest, key))


class TestQuarantine:
    def test_truncated_entry_is_quarantined_on_load(self, cache):
        _, path = store_bitmap(cache)
        with open(path, "r+b") as fh:
            fh.truncate(8)
        assert cache.load_bitmap("d" * 32, "loop|v1") is None
        assert not path.exists()
        assert cache.quarantine_count() == 1
        (moved,) = cache.quarantined_entries()
        assert moved.parent.name == QUARANTINE_DIRNAME
        # Forensic bytes survive the move.
        assert moved.read_bytes() == moved.read_bytes()[:8]
        assert cache.stats.quarantined == 1
        assert cache.stats.errors == 1
        assert "quarantined" in cache.stats.summary()

    def test_recompute_overwrites_cleanly(self, cache):
        bitmap, path = store_bitmap(cache)
        with open(path, "r+b") as fh:
            fh.truncate(8)
        assert cache.load_bitmap("d" * 32, "loop|v1") is None
        cache.store_bitmap("d" * 32, "loop|v1", bitmap)
        reloaded = cache.load_bitmap("d" * 32, "loop|v1")
        assert np.array_equal(reloaded, bitmap)
        assert cache.quarantine_count() == 1  # evidence is kept

    def test_quarantine_excluded_from_entries_but_cleared(self, cache):
        _, path = store_bitmap(cache)
        with open(path, "r+b") as fh:
            fh.truncate(8)
        cache.load_bitmap("d" * 32, "loop|v1")
        assert cache.entry_count() == 0
        assert cache.total_bytes() == 0
        removed = cache.clear()
        assert removed == 1
        assert cache.quarantine_count() == 0

    def test_clean_cache_reports_zero(self, cache):
        assert cache.quarantine_count() == 0
        assert "quarantined" not in cache.stats.summary()


class TestCorruptFaultRoundTrip:
    """The injected 'corrupt' fault exercises the full quarantine path."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_corrupt_then_reload_recomputes_identically(self, tmp_path, jobs):
        trace = load_benchmark("gcc", length=SMALL, run_seed=12345)
        config = LabConfig()

        cache = ResultCache(tmp_path / "c")
        labs = {"gcc": Lab(trace, config, cache=cache)}
        prime_labs(
            labs,
            jobs=jobs,
            cache=cache,
            tasks=("loop",),
            policy=RetryPolicy(max_attempts=1),
            injector=FaultInjector.from_spec("gcc/loop:1:corrupt"),
        )
        reference = labs["gcc"].correct("loop")

        # A later run over the poisoned cache: the load quarantines the
        # torn entry and the task recomputes bit-identically.
        cache2 = ResultCache(tmp_path / "c")
        labs2 = {"gcc": Lab(trace, config, cache=cache2)}
        prime_labs(labs2, jobs=jobs, cache=cache2, tasks=("loop",))
        assert cache2.stats.quarantined == 1
        assert np.array_equal(labs2["gcc"].correct("loop"), reference)

        # And a third run hits the rewritten clean entry.
        cache3 = ResultCache(tmp_path / "c")
        labs3 = {"gcc": Lab(trace, config, cache=cache3)}
        prime_labs(labs3, jobs=jobs, cache=cache3, tasks=("loop",))
        assert cache3.stats.quarantined == 0
        assert cache3.stats.misses == 0
        assert np.array_equal(labs3["gcc"].correct("loop"), reference)


class TestQuarantineInLongLivedSession:
    """The session memo never masks a poisoned entry on disk."""

    @staticmethod
    def run(session):
        run = run_spec(
            spec_from_kwargs(["fig9"], max_length=SMALL), engine=session
        )
        digests = {
            entry["id"]: entry["result_digest"]
            for entry in run.manifest["experiments"]
        }
        return run, digests

    @staticmethod
    def gshare_entry(run, cache):
        lab = run.labs["gcc"]
        key = cache.bitmap_key(
            lab.trace.digest(), result_key("gshare", lab.config)
        )
        return cache.entry_path("bitmap", key)

    def test_poisoned_before_first_read(self, tmp_path, monkeypatch):
        options = EngineOptions(jobs=1, cache_dir=str(tmp_path / "c"))
        with EngineSession.resolve(options) as session:
            cache = session.cache
            cold, reference = self.run(session)
            path = self.gshare_entry(cold, cache)
            with open(path, "r+b") as fh:
                fh.truncate(8)

            reads = count_disk_reads(cache, monkeypatch)
            _, digests = self.run(session)
            assert cache.stats.quarantined == 1
            assert digests == reference
            assert ("bitmap", path.stem) not in cache._memo

            # The clean rewrite is read from disk by the next run, and
            # only then held.
            del reads[:]
            _, digests = self.run(session)
            assert path in reads
            assert cache.stats.quarantined == 1
            assert digests == reference
            del reads[:]
            self.run(session)
            assert path not in reads

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_corrupt_fault_on_shared_session(self, tmp_path, jobs):
        options = EngineOptions(
            jobs=jobs,
            cache_dir=str(tmp_path / "c"),
            retries=1,
            fault_spec="gcc/gshare:1:corrupt",
        )
        with EngineSession.resolve(options) as session:
            _, reference = self.run(session)
            assert session.cache.stats.quarantined == 0
            # The fault tore the entry its run wrote; the session's next
            # run must still find that on disk, not in memory.
            _, digests = self.run(session)
            assert session.cache.stats.quarantined == 1
            assert digests == reference
