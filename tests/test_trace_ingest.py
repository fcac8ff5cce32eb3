"""Tests for foreign-trace ingestion (repro.trace.ingest)."""

import numpy as np
import pytest

from repro.errors import IngestError, ReproError
from repro.trace.ingest import (
    BINARY_RECORD,
    detect_format,
    ingest_file,
    load_imported_trace,
)
from repro.trace.stream import TraceStream, write_trace
from repro.trace.trace import Trace

from conftest import bpt1_bytes


def make_trace(n=1000, seed=3):
    rng = np.random.default_rng(seed)
    pc = rng.integers(0, 2**40, size=n, dtype=np.uint64)
    target = rng.integers(0, 2**40, size=n, dtype=np.uint64)
    taken = rng.random(n) < 0.6
    return Trace(pc, target, taken)


def write_text(path, trace, three_field=True):
    with open(path, "w") as fh:
        fh.write("# header comment\n\n")
        for pc, target, taken in zip(trace.pc, trace.target, trace.taken):
            outcome = "T" if taken else "N"
            if three_field:
                fh.write(f"{int(pc):#x} {int(target):#x} {outcome}\n")
            else:
                fh.write(f"{int(pc):#x} {outcome}\n")


def write_binary(path, trace):
    records = np.zeros(len(trace), dtype=BINARY_RECORD)
    records["pc"] = trace.pc
    records["taken"] = trace.taken.astype(np.uint8)
    records.tofile(path)


class TestRoundTrips:
    def test_text_to_bpt_digest_is_bit_identical(self, tmp_path):
        trace = make_trace()
        source = tmp_path / "trace.txt"
        write_text(source, trace)
        result = ingest_file(source, tmp_path / "trace.bpt")
        assert result.branches == len(trace)
        assert result.digest == trace.digest()
        assert TraceStream.open(result.path).digest() == trace.digest()

    def test_two_field_text_synthesises_targets(self, tmp_path):
        trace = make_trace()
        source = tmp_path / "trace.txt"
        write_text(source, trace, three_field=False)
        result = ingest_file(source, tmp_path / "trace.bpt")
        loaded = load_imported_trace(result.path)
        assert np.array_equal(loaded.pc, trace.pc)
        assert np.array_equal(loaded.taken, trace.taken)
        assert np.array_equal(loaded.target, trace.pc + np.uint64(4))

    def test_outcome_spellings(self, tmp_path):
        source = tmp_path / "trace.txt"
        source.write_text(
            "0x10 T\n0x10 N\n0x10 1\n0x10 0\n0x10 taken\n0x10 not-taken\n"
        )
        loaded = load_imported_trace(source)
        assert loaded.taken.tolist() == [True, False, True, False, True, False]

    def test_binary_to_bpt_digest_is_bit_identical(self, tmp_path):
        trace = make_trace()
        source = tmp_path / "trace.bin"
        write_binary(source, trace)
        result = ingest_file(source, tmp_path / "trace.bpt")
        assert result.branches == len(trace)
        loaded = load_imported_trace(result.path, expected_digest=result.digest)
        assert np.array_equal(loaded.pc, trace.pc)
        assert np.array_equal(loaded.taken, trace.taken)

    def test_native_bpt_is_validated_in_place(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "native.bpt"
        write_trace(trace, path)
        result = ingest_file(path)
        assert result.path == str(path)
        assert result.format == "bpt"
        assert result.digest == trace.digest()

    def test_bpt1_spills_to_bpt2_with_the_same_digest(self, tmp_path):
        trace = make_trace(n=20000)  # spans several parser batches
        source = tmp_path / "legacy.bpt"
        source.write_bytes(bpt1_bytes(trace))
        assert detect_format(source) == "bpt1"
        result = ingest_file(source, tmp_path / "spill.bpt", chunk_branches=256)
        assert result.format == "bpt1"
        assert (tmp_path / "spill.bpt").read_bytes()[:4] == b"BPT2"
        assert result.digest == trace.digest()
        assert TraceStream.open(result.path).digest() == trace.digest()
        # Specs that pin the BPT1 path itself keep loading it.
        for declared in (None, "bpt"):
            loaded = load_imported_trace(
                source, format=declared, expected_digest=trace.digest()
            )
            assert loaded == trace

    def test_chunked_spill_matches_whole_trace_digest(self, tmp_path):
        trace = make_trace(n=5000)
        source = tmp_path / "trace.txt"
        write_text(source, trace)
        result = ingest_file(
            source, tmp_path / "trace.bpt", chunk_branches=256
        )
        assert result.digest == trace.digest()
        assert load_imported_trace(
            result.path, expected_digest=trace.digest()
        ).digest() == trace.digest()

    def test_result_entry_pins_the_identity(self, tmp_path):
        trace = make_trace()
        source = tmp_path / "trace.txt"
        write_text(source, trace)
        entry = ingest_file(source, tmp_path / "trace.bpt").to_entry()
        assert entry.name == "trace"
        assert entry.digest == trace.digest()
        assert entry.branches == len(trace)
        assert entry.format == "bpt"


class TestDetection:
    def test_magic_wins(self, tmp_path):
        trace = make_trace(n=16)
        path = tmp_path / "oddly_named.txt"
        write_trace(trace, path)
        assert detect_format(path) == "bpt"

    def test_extension_fallback(self, tmp_path):
        binary = tmp_path / "t.bin"
        binary.write_bytes(b"\x00" * 9)
        assert detect_format(binary) == "binary"
        text = tmp_path / "t.out"
        text.write_text("0x10 T\n")
        assert detect_format(text) == "text"


class TestRejections:
    def test_garbage_line_reports_path_and_line(self, tmp_path):
        source = tmp_path / "bad.txt"
        source.write_text("0x10 T\n0x10 T\nnot a branch line\n")
        with pytest.raises(IngestError) as exc:
            ingest_file(source, tmp_path / "bad.bpt")
        assert f"{source}:3" in str(exc.value)
        assert not (tmp_path / "bad.bpt").exists()

    def test_bad_address(self, tmp_path):
        source = tmp_path / "bad.txt"
        source.write_text("0xzz T\n")
        with pytest.raises(IngestError, match="bad address"):
            ingest_file(source, tmp_path / "bad.bpt")

    def test_address_out_of_range(self, tmp_path):
        source = tmp_path / "bad.txt"
        source.write_text(f"{2**64} T\n")
        with pytest.raises(IngestError, match="uint64"):
            ingest_file(source, tmp_path / "bad.bpt")

    def test_bad_outcome_word(self, tmp_path):
        source = tmp_path / "bad.txt"
        source.write_text("0x10 maybe\n")
        with pytest.raises(IngestError, match="bad outcome"):
            ingest_file(source, tmp_path / "bad.bpt")

    def test_truncated_binary_reports_offset(self, tmp_path):
        source = tmp_path / "bad.bin"
        source.write_bytes(b"\x00" * (9 * 3 + 4))
        with pytest.raises(IngestError, match="truncated record"):
            ingest_file(source, tmp_path / "bad.bpt")

    def test_binary_outcome_byte_must_be_boolean(self, tmp_path):
        source = tmp_path / "bad.bin"
        source.write_bytes(b"\x00" * 8 + b"\x02")
        with pytest.raises(IngestError, match="bad outcome byte 2"):
            ingest_file(source, tmp_path / "bad.bpt")

    def test_empty_text_trace(self, tmp_path):
        source = tmp_path / "empty.txt"
        source.write_text("# only a comment\n")
        with pytest.raises(IngestError, match="no branches"):
            ingest_file(source, tmp_path / "empty.bpt")
        assert not (tmp_path / "empty.bpt").exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            ingest_file(tmp_path / "nope.txt")

    def test_ingest_error_is_usage_not_traceback(self):
        assert issubclass(IngestError, ReproError)
        assert issubclass(IngestError, ValueError)
        assert IngestError("x").exit_code == 2
        assert IngestError("x").http_status == 400


class TestLoadImported:
    def test_digest_mismatch_is_rejected(self, tmp_path):
        trace = make_trace()
        source = tmp_path / "trace.txt"
        write_text(source, trace)
        result = ingest_file(source, tmp_path / "trace.bpt")
        with pytest.raises(IngestError, match="does not match"):
            load_imported_trace(
                result.path, expected_digest="0" * 32
            )

    def test_loads_foreign_formats_directly(self, tmp_path):
        trace = make_trace()
        source = tmp_path / "trace.bin"
        write_binary(source, trace)
        loaded = load_imported_trace(source, format="binary")
        assert np.array_equal(loaded.pc, trace.pc)

    def test_empty_trace_is_rejected(self, tmp_path):
        source = tmp_path / "empty.txt"
        source.write_text("")
        with pytest.raises(IngestError, match="no branches"):
            load_imported_trace(source)
