"""Tests for the content-addressed on-disk result cache."""

from __future__ import annotations

import numpy as np
import pytest

import repro.analysis.cache as cache_module
from repro.analysis.cache import ResultCache, result_key
from repro.analysis.config import LabConfig
from repro.analysis.runner import Lab
from repro.correlation.tagging import CorrelationTable, collect_correlation_data
from repro.workloads.suite import load_benchmark

from conftest import trace_from_string


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


@pytest.fixture(scope="module")
def trace():
    return load_benchmark("compress", length=2000)


class TestBitmapCache:
    def test_miss_then_hit(self, cache, trace):
        bitmap = np.arange(len(trace)) % 3 == 0
        assert cache.load_bitmap(trace.digest(), "gshare|x") is None
        assert cache.stats.misses == 1
        cache.store_bitmap(trace.digest(), "gshare|x", bitmap)
        assert cache.stats.writes == 1
        loaded = cache.load_bitmap(trace.digest(), "gshare|x")
        assert np.array_equal(loaded, bitmap)
        assert cache.stats.hits == 1

    def test_key_distinguishes_result_and_trace(self, cache, trace):
        bitmap = np.zeros(len(trace), dtype=bool)
        cache.store_bitmap(trace.digest(), "a", bitmap)
        assert cache.load_bitmap(trace.digest(), "b") is None
        assert cache.load_bitmap("other-digest", "a") is None

    def test_schema_version_invalidates(self, cache, trace, monkeypatch):
        bitmap = np.ones(len(trace), dtype=bool)
        cache.store_bitmap(trace.digest(), "a", bitmap)
        monkeypatch.setattr(cache_module, "SCHEMA_VERSION", 9999)
        assert cache.load_bitmap(trace.digest(), "a") is None

    def test_corrupted_file_is_a_miss(self, cache, trace):
        bitmap = np.ones(len(trace), dtype=bool)
        cache.store_bitmap(trace.digest(), "a", bitmap)
        path = cache._path("bitmap", cache.bitmap_key(trace.digest(), "a"))
        path.write_bytes(b"not an npz file")
        assert cache.load_bitmap(trace.digest(), "a") is None
        assert cache.stats.errors == 1
        # Storing again repairs the entry.
        cache.store_bitmap(trace.digest(), "a", bitmap)
        assert np.array_equal(cache.load_bitmap(trace.digest(), "a"), bitmap)

    def test_unwritable_root_never_raises(self, trace, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = ResultCache(blocker / "cache")
        cache.store_bitmap(trace.digest(), "a", np.zeros(3, dtype=bool))
        assert cache.stats.errors == 1
        assert cache.stats.writes == 0


class TestCorrelationCache:
    def test_round_trip(self, cache, trace):
        data = collect_correlation_data(trace, window=8)
        assert cache.load_correlation(trace.digest(), 8) is None
        cache.store_correlation(trace.digest(), data)
        loaded = cache.load_correlation(trace.digest(), 8)
        assert loaded.window == 8
        assert loaded.trace_length == len(trace)
        collected, restored = data.columns(), loaded.columns()
        assert list(collected) == list(restored)
        for name, column in collected.items():
            assert np.array_equal(column, restored[name]), name
            assert np.asarray(column).dtype == np.asarray(restored[name]).dtype, name

    def test_cold_and_warm_tables_share_one_order(self, cache, trace):
        data = collect_correlation_data(trace, window=8)
        cache.store_correlation(trace.digest(), data)
        loaded = cache.load_correlation(trace.digest(), 8)
        assert list(data.branches) == sorted(data.branches)
        assert list(loaded.branches) == list(data.branches)
        for pc, branch in data.branches.items():
            assert list(branch.tags) == sorted(branch.tags)
            assert loaded.branches[pc].tags == branch.tags

    def test_window_is_part_of_the_key(self, cache, trace):
        data = collect_correlation_data(trace, window=8)
        cache.store_correlation(trace.digest(), data)
        assert cache.load_correlation(trace.digest(), 16) is None

    def test_old_layout_entry_is_never_read(self, cache, trace, monkeypatch):
        # A schema-1 entry held offset-delimited packed tag buffers at the
        # schema-1 key; the schema bump must leave it unaddressed, not
        # load it and quarantine it.
        monkeypatch.setattr(cache_module, "SCHEMA_VERSION", 1)
        old_path = cache.entry_path(
            "corr", cache.correlation_key(trace.digest(), 8)
        )
        monkeypatch.undo()
        old_path.parent.mkdir(parents=True)
        np.savez_compressed(
            old_path,
            window=np.int64(8),
            trace_length=np.int64(len(trace)),
            pcs=np.zeros(1, dtype=np.uint64),
            branch_offsets=np.array([0, 1]),
            tag_offsets=np.array([0]),
            tag_values=np.zeros(0, dtype=np.int64),
        )
        assert cache.entry_path(
            "corr", cache.correlation_key(trace.digest(), 8)
        ) != old_path
        assert cache.load_correlation(trace.digest(), 8) is None
        assert cache.stats.misses == 1
        assert cache.stats.quarantined == 0
        assert old_path.exists()

    def test_layout_2_entry_is_never_read(self, cache, trace, monkeypatch):
        # A schema-2 entry held the table's own columns (owner columns and
        # unpacked entry outcomes) at the schema-2 key; the bump to the
        # compact layout must leave it unaddressed, not quarantine it.
        data = collect_correlation_data(trace, window=8)
        monkeypatch.setattr(cache_module, "SCHEMA_VERSION", 2)
        old_path = cache.entry_path(
            "corr", cache.correlation_key(trace.digest(), 8)
        )
        monkeypatch.undo()
        old_path.parent.mkdir(parents=True)
        np.savez_compressed(old_path, **data.columns())
        assert cache.entry_path(
            "corr", cache.correlation_key(trace.digest(), 8)
        ) != old_path
        assert cache.load_correlation(trace.digest(), 8) is None
        assert cache.stats.misses == 1
        assert cache.stats.quarantined == 0
        assert old_path.exists()

    def test_entry_stores_counts_and_packed_outcomes(self, cache, trace):
        data = collect_correlation_data(trace, window=8)
        cache.store_correlation(trace.digest(), data)
        path = cache.entry_path("corr", cache.correlation_key(trace.digest(), 8))
        with np.load(path) as payload:
            stored = set(payload.files)
            counts = payload["entry_tag_counts"]
            packed = payload["entry_outcome_packed"]
        assert not stored & {"inst_branch", "tag_branch", "entry_tag", "entry_outcome"}
        assert np.array_equal(counts, np.diff(data.entry_offsets))
        assert len(packed) == (len(data.entry_instance) + 7) // 8

    def test_wide_row_columns_keep_their_dtype(self, cache, trace):
        # Tables of 2**31 rows or more use int64 row columns.
        collected = collect_correlation_data(trace, window=8).columns()
        rows = ("inst_branch", "inst_index", "tag_branch", "entry_tag", "entry_instance")
        data = CorrelationTable(
            **{
                name: column.astype(np.int64) if name in rows else column
                for name, column in collected.items()
            }
        )
        cache.store_correlation(trace.digest(), data)
        restored = cache.load_correlation(trace.digest(), 8).columns()
        for name, column in data.columns().items():
            assert np.array_equal(column, restored[name]), name
            assert np.asarray(column).dtype == np.asarray(restored[name]).dtype, name


def _tamper(payload: dict, name: str) -> None:
    """Damage one stored column of a correlation entry."""
    if name == "negative":
        # One tag's count goes negative; the total is kept.
        counts = payload["entry_tag_counts"].copy()
        counts[-1] += counts[0] + 1
        counts[0] = -1
        payload["entry_tag_counts"] = counts
    elif name == "total":
        counts = payload["inst_branch_counts"].copy()
        counts[0] += 1
        payload["inst_branch_counts"] = counts
    elif name == "owners":
        # One count fewer than branches; the total is kept.
        counts = payload["tag_branch_counts"].copy()
        counts[-2] += counts[-1]
        payload["tag_branch_counts"] = counts[:-1]
    else:
        payload["entry_outcome_packed"] = payload["entry_outcome_packed"][:-1]


class TestMalformedCorrelationEntry:
    @pytest.mark.parametrize("damage", ["negative", "total", "owners", "outcomes"])
    def test_is_quarantined_and_recomputed(self, cache, trace, damage):
        data = Lab(trace, cache=cache).correlation_data()
        path = cache.entry_path(
            "corr", cache.correlation_key(trace.digest(), data.window)
        )
        with np.load(path) as stored:
            payload = {name: stored[name] for name in stored.files}
        _tamper(payload, damage)
        np.savez_compressed(path, **payload)

        fresh = ResultCache(cache.root)
        recomputed = Lab(trace, cache=fresh).correlation_data()
        assert fresh.stats.quarantined == 1
        assert fresh.quarantine_count() == 1
        for name, column in data.columns().items():
            assert np.array_equal(column, recomputed.columns()[name]), name
        # The recompute wrote a clean entry back in place.
        assert ResultCache(cache.root).load_correlation(trace.digest(), data.window) is not None


class TestTraceCache:
    def test_round_trip(self, cache, trace):
        assert cache.load_trace("compress", 2000, 12345) is None
        cache.store_trace("compress", 2000, 12345, trace)
        assert cache.load_trace("compress", 2000, 12345) == trace

    def test_workload_schema_invalidates(self, cache, trace, monkeypatch):
        cache.store_trace("compress", 2000, 12345, trace)
        monkeypatch.setattr(cache_module, "WORKLOAD_SCHEMA", 9999)
        assert cache.load_trace("compress", 2000, 12345) is None


class TestMaintenance:
    def test_entry_count_bytes_and_clear(self, cache, trace):
        assert cache.entry_count() == 0
        cache.store_bitmap(trace.digest(), "a", np.ones(10, dtype=bool))
        cache.store_trace("compress", 2000, 12345, trace)
        assert cache.entry_count() == 2
        assert cache.total_bytes() > 0
        assert cache.clear() == 2
        assert cache.entry_count() == 0


class TestResultKey:
    def test_config_fields_rekey(self):
        a = result_key("gshare", LabConfig())
        b = result_key("gshare", LabConfig(gshare_history_bits=12))
        assert a != b
        assert result_key("loop", LabConfig()) != a


class TestLabIntegration:
    def test_lab_reads_and_writes_cache(self, cache):
        trace = load_benchmark("perl", length=1500)
        lab = Lab(trace, cache=cache)
        bitmap = lab.correct("loop")
        assert cache.stats.writes >= 1
        # A fresh lab over the same trace hits the disk cache.
        lab2 = Lab(trace, cache=cache)
        assert np.array_equal(lab2.correct("loop"), bitmap)
        assert cache.stats.hits >= 1

    def test_selective_bitmap_cached(self, cache):
        trace = trace_from_string("TTNT" * 40)
        lab = Lab(trace, cache=cache)
        bitmap = lab.selective_correct(1)
        lab2 = Lab(trace, cache=cache)
        hits_before = cache.stats.hits
        assert np.array_equal(lab2.selective_correct(1), bitmap)
        assert cache.stats.hits > hits_before

    def test_no_cache_lab_never_touches_disk(self, tmp_path):
        trace = trace_from_string("TTNT" * 10)
        lab = Lab(trace)
        lab.correct("loop")
        assert lab.cache is None
        assert not (tmp_path / "cache").exists()
