"""Corrupt cache entries are quarantined, not silently trusted."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.cache import QUARANTINE_DIRNAME, ResultCache, result_key
from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.runner import Lab
from repro.api import EngineSession, run_spec
from repro.spec import EngineOptions, spec_from_kwargs
from repro.workloads.suite import load_benchmark

from conftest import count_disk_reads, rewrite_cache_entry, scoped_cache_events

SMALL = 2000


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "c")


def store_bitmap(cache, digest="d" * 32, key="loop|v1"):
    bitmap = np.array([True, False, True, True], dtype=bool)
    cache.store_bitmap(digest, key, bitmap)
    return bitmap, cache.entry_path("bitmap", cache.bitmap_key(digest, key))


class TestQuarantine:
    def test_truncated_entry_is_quarantined_on_load(self, cache, cache_events):
        _, path = store_bitmap(cache)
        with open(path, "r+b") as fh:
            fh.truncate(8)
        assert cache.load_bitmap("d" * 32, "loop|v1", 4) is None
        assert not path.exists()
        assert cache.quarantine_count() == 1
        (moved,) = cache.quarantined_entries()
        assert moved.parent.name == QUARANTINE_DIRNAME
        # Forensic bytes survive the move.
        assert moved.read_bytes() == moved.read_bytes()[:8]
        assert cache_events.quarantined == 1
        assert cache_events.errors == 1
        assert "quarantined" in cache_events.summary()

    def test_recompute_overwrites_cleanly(self, cache):
        bitmap, path = store_bitmap(cache)
        with open(path, "r+b") as fh:
            fh.truncate(8)
        assert cache.load_bitmap("d" * 32, "loop|v1", 4) is None
        cache.store_bitmap("d" * 32, "loop|v1", bitmap)
        reloaded = cache.load_bitmap("d" * 32, "loop|v1", 4)
        assert np.array_equal(reloaded, bitmap)
        assert cache.quarantine_count() == 1  # evidence is kept

    def test_quarantine_excluded_from_entries_but_cleared(self, cache):
        _, path = store_bitmap(cache)
        with open(path, "r+b") as fh:
            fh.truncate(8)
        cache.load_bitmap("d" * 32, "loop|v1", 4)
        assert cache.entry_count() == 0
        assert cache.total_bytes() == 0
        removed = cache.clear()
        assert removed == 1
        assert cache.quarantine_count() == 0

    def test_forged_length_bitmap_is_recomputed(self, tmp_path, cache_events):
        # A well-formed entry claiming 5 more branches than its trace
        # raised "bitmap length 2005 != trace length 2000" from the lab.
        trace = load_benchmark("compress", length=SMALL)
        reference = Lab(trace, cache=ResultCache(tmp_path)).correct("gshare")
        cache = ResultCache(tmp_path)
        path = cache.entry_path("bitmap", cache.bitmap_key(
            trace.digest(), result_key("gshare", DEFAULT_CONFIG)))
        rewrite_cache_entry(
            path, lambda fields: fields.update(length=fields["length"] + 5))
        assert np.array_equal(Lab(trace, cache=cache).correct("gshare"), reference)
        assert cache_events.quarantined == 1
        assert cache.quarantine_count() == 1

    def test_every_flipped_bit_is_quarantined(self, cache):
        # The entry digest covers every byte, so no flip anywhere in the
        # file (magic, header, arrays or the digest itself) loads.
        _, path = store_bitmap(cache)
        clean = path.read_bytes()
        for offset in range(len(clean)):
            for bit in range(8):
                flipped = bytearray(clean)
                flipped[offset] ^= 1 << bit
                path.write_bytes(bytes(flipped))
                fresh = ResultCache(cache.root)
                with scoped_cache_events() as flip:
                    assert fresh.load_bitmap("d" * 32, "loop|v1", 4) is None, (offset, bit)
                assert flip.quarantined == 1 and not path.exists()
        assert cache.quarantine_count() == 1  # one name, overwritten each time

    def test_clean_cache_reports_zero(self, cache, cache_events):
        assert cache.quarantine_count() == 0
        assert "quarantined" not in cache_events.summary()


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

    def test_poisoned_before_first_read(self, tmp_path, monkeypatch, cache_events):
        options = EngineOptions(jobs=1, cache_dir=str(tmp_path / "c"))
        with EngineSession.resolve(options) as session:
            cache = session.cache
            cold, reference = self.run(session)
            path = self.gshare_entry(cold, cache)
            with open(path, "r+b") as fh:
                fh.truncate(8)

            reads = count_disk_reads(cache, monkeypatch)
            _, digests = self.run(session)
            assert cache_events.quarantined == 1
            assert digests == reference
            assert ("bitmap", path.stem) not in cache._memo

            # The clean rewrite is read from disk by the next run, and
            # only then held.
            del reads[:]
            _, digests = self.run(session)
            assert path in reads
            assert cache_events.quarantined == 1
            assert digests == reference
            del reads[:]
            self.run(session)
            assert path not in reads

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_corrupt_fault_on_shared_session(self, tmp_path, jobs, cache_events):
        options = EngineOptions(
            jobs=jobs,
            cache_dir=str(tmp_path / "c"),
            retries=1,
            fault_spec="gcc/gshare:1:corrupt",
        )
        with EngineSession.resolve(options) as session:
            _, reference = self.run(session)
            assert cache_events.quarantined == 0
            # The fault tore the entry its run wrote; the session's next
            # run must still find that on disk, not in memory.
            _, digests = self.run(session)
            assert cache_events.quarantined == 1
            assert digests == reference
