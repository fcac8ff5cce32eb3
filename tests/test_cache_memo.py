"""The result cache's session memo: each entry is read from disk once."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import cache as cache_module
from repro.analysis.cache import ResultCache
from repro.api import EngineSession, run_spec
from repro.correlation.tagging import collect_correlation_data
from repro.spec import EngineOptions, spec_from_kwargs
from repro.workloads.suite import load_benchmark

from conftest import count_disk_reads

DIGEST = "d" * 32


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "c")


@pytest.fixture()
def disk_reads(cache, monkeypatch):
    return count_disk_reads(cache, monkeypatch)


def bitmap(length, seed=0):
    return np.random.default_rng(seed).random(length) < 0.5


class TestMemo:
    def test_second_load_is_served_from_memory(self, cache, disk_reads, cache_events):
        stored = bitmap(64)
        cache.store_bitmap(DIGEST, "loop|v1", stored)
        first = cache.load_bitmap(DIGEST, "loop|v1", 64)
        second = cache.load_bitmap(DIGEST, "loop|v1", 64)
        assert second is first
        assert np.array_equal(first, stored)
        assert len(disk_reads) == 1
        # A memo hit is still a cache hit, and is also counted as such.
        assert cache_events.hits == 2
        assert cache_events.registry.counter("cache.memo_hits") == 1

    def test_traces_and_correlation_tables_are_memoised(
        self, cache, disk_reads
    ):
        trace = load_benchmark("gcc", length=500, run_seed=1)
        cache.store_trace("gcc", 500, 1, trace)
        stored = collect_correlation_data(trace)
        cache.store_correlation(trace.digest(), stored)
        first = cache.load_trace("gcc", 500, 1)
        assert cache.load_trace("gcc", 500, 1) is first
        assert first.digest() == trace.digest()
        table = cache.load_correlation(trace.digest(), stored.window, len(trace))
        assert cache.load_correlation(trace.digest(), stored.window, len(trace)) is table
        assert len(disk_reads) == 2

    def test_stores_do_not_fill_the_memo(self, cache, disk_reads):
        cache.store_bitmap(DIGEST, "loop|v1", bitmap(64))
        cache.load_bitmap(DIGEST, "loop|v1", 64)
        assert len(disk_reads) == 1

    def test_misses_are_not_memoised(self, cache, disk_reads):
        assert cache.load_bitmap(DIGEST, "loop|v1", 64) is None
        cache.store_bitmap(DIGEST, "loop|v1", bitmap(64))
        assert cache.load_bitmap(DIGEST, "loop|v1", 64) is not None
        assert len(disk_reads) == 2

    def test_memoised_bitmap_is_read_only(self, cache):
        cache.store_bitmap(DIGEST, "loop|v1", bitmap(64))
        loaded = cache.load_bitmap(DIGEST, "loop|v1", 64)
        with pytest.raises(ValueError):
            loaded[0] = not loaded[0]


class TestBound:
    def test_lru_evicts_oldest_first(self, cache, disk_reads, monkeypatch):
        # Room for two 100-byte bitmaps, not three.
        monkeypatch.setattr(cache_module, "MEMO_BYTES", 250)
        for key in ("a", "b", "c"):
            cache.store_bitmap(DIGEST, key, bitmap(100))
        held_a = cache.load_bitmap(DIGEST, "a", 100)
        held_b = cache.load_bitmap(DIGEST, "b", 100)
        assert cache.load_bitmap(DIGEST, "a", 100) is held_a  # a is now newest
        cache.load_bitmap(DIGEST, "c", 100)  # evicts b, the oldest
        assert len(disk_reads) == 3
        assert cache.load_bitmap(DIGEST, "a", 100) is held_a
        assert len(disk_reads) == 3
        reread = cache.load_bitmap(DIGEST, "b", 100)
        assert len(disk_reads) == 4
        assert reread is not held_b
        assert np.array_equal(reread, held_b)

    def test_entry_larger_than_the_bound_is_never_held(
        self, cache, disk_reads, monkeypatch
    ):
        monkeypatch.setattr(cache_module, "MEMO_BYTES", 250)
        cache.store_bitmap(DIGEST, "small", bitmap(100))
        cache.store_bitmap(DIGEST, "large", bitmap(300))
        small = cache.load_bitmap(DIGEST, "small", 100)
        first = cache.load_bitmap(DIGEST, "large", 300)
        second = cache.load_bitmap(DIGEST, "large", 300)
        assert second is not first
        assert np.array_equal(first, second)
        assert len(disk_reads) == 3
        # The oversized entry evicted nothing on its way past.
        assert cache.load_bitmap(DIGEST, "small", 100) is small
        assert len(disk_reads) == 3


class TestSharedSession:
    EXPERIMENTS = ("fig9", "table2")

    def spec(self):
        return spec_from_kwargs(list(self.EXPERIMENTS), max_length=2000)

    @staticmethod
    def summary(run):
        section = dict(run.manifest["cache"])
        section.pop("dir")
        digests = {
            entry["id"]: entry["result_digest"]
            for entry in run.manifest["experiments"]
        }
        return section, digests

    def test_shared_session_matches_separate_sessions(self, tmp_path):
        # Cold, then a first warm read from disk, then a read the
        # shared session serves from its memo.
        shared = []
        options = EngineOptions(jobs=1, cache_dir=str(tmp_path / "shared"))
        with EngineSession.resolve(options) as session:
            for _ in range(3):
                shared.append(run_spec(self.spec(), engine=session))
        separate = []
        options = EngineOptions(jobs=1, cache_dir=str(tmp_path / "separate"))
        for _ in range(3):
            with EngineSession.resolve(options) as session:
                separate.append(run_spec(self.spec(), engine=session))

        assert shared[2].metrics["counters"].get("cache.memo_hits", 0) > 0
        for mine, theirs in zip(shared, separate):
            assert self.summary(mine) == self.summary(theirs)
