"""Tests for the crash-safe run journal (checkpoint/resume)."""

from __future__ import annotations

import json

import pytest

from repro.experiments.base import ReplayedResult
from repro.resilience.journal import (
    JOURNAL_KIND,
    JOURNAL_SCHEMA_VERSION,
    RunJournal,
    payload_digest,
    run_key,
)


class FakeResult:
    """Minimal ExperimentResult stand-in for journal round-trips."""

    title = "Fake table"

    def __init__(self, value=1):
        self.value = value

    def to_dict(self):
        return {"schema_version": 2, "value": self.value}

    def render(self):
        return f"rendered {self.value}"


class FakeLab:
    def __init__(self, digest):
        self.trace = self
        self._digest = digest

    def digest(self):
        return self._digest


class TestRunKey:
    def test_same_inputs_same_key(self):
        labs = {"gcc": FakeLab("aa"), "perl": FakeLab("bb")}
        assert run_key("cfg", 1, labs) == run_key("cfg", 1, labs)

    def test_key_covers_config_seed_and_traces(self):
        labs = {"gcc": FakeLab("aa")}
        base = run_key("cfg", 1, labs)
        assert run_key("cfg2", 1, labs) != base
        assert run_key("cfg", 2, labs) != base
        assert run_key("cfg", 1, {"gcc": FakeLab("cc")}) != base
        assert run_key("cfg", 1, {"go": FakeLab("aa")}) != base

    def test_benchmark_order_does_not_matter(self):
        a = {"gcc": FakeLab("aa"), "perl": FakeLab("bb")}
        b = {"perl": FakeLab("bb"), "gcc": FakeLab("aa")}
        assert run_key("cfg", 1, a) == run_key("cfg", 1, b)


class TestRoundTrip:
    def test_record_then_load(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            entry = journal.record("table1", "key1", FakeResult(7))
        loaded = RunJournal(path).load()
        assert loaded == {("table1", "key1"): entry}
        record = loaded[("table1", "key1")]
        assert record["kind"] == JOURNAL_KIND
        assert record["schema_version"] == JOURNAL_SCHEMA_VERSION
        assert record["payload"] == {"schema_version": 2, "value": 7}
        assert record["render"] == "rendered 7"
        assert record["result_digest"] == payload_digest(record["payload"])

    def test_replayed_result_is_bit_identical(self, tmp_path):
        path = tmp_path / "j.jsonl"
        original = FakeResult(3)
        with RunJournal(path) as journal:
            journal.record("fig4", "k", original)
        entry = RunJournal(path).lookup("fig4", "k")
        replayed = ReplayedResult(entry["payload"], entry["render"])
        assert replayed.to_dict() == original.to_dict()
        assert replayed.render() == original.render()
        assert payload_digest(replayed.to_dict()) == entry["result_digest"]

    def test_later_entry_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("table1", "k", FakeResult(1))
            journal.record("table1", "k", FakeResult(2))
        entry = RunJournal(path).lookup("table1", "k")
        assert entry["payload"]["value"] == 2

    def test_fresh_truncates_existing_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("table1", "k", FakeResult(1))
        with RunJournal(path, fresh=True) as journal:
            journal.record("fig4", "k", FakeResult(2))
        loaded = RunJournal(path).load()
        assert set(loaded) == {("fig4", "k")}


#: Journal lines that raised out of ``load()`` instead of being skipped.
UNDECODABLE = {
    "not-utf8": b"\xff\xfe not utf-8",  # UnicodeDecodeError
    "deep-nesting": b"[" * 100_000,  # RecursionError
    "long-int": b'{"value": ' + b"7" * 5000 + b"}",  # ValueError
}


class TestCorruptionTolerance:
    def test_missing_file_loads_empty(self, tmp_path):
        assert RunJournal(tmp_path / "nope.jsonl").load() == {}

    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("table1", "k", FakeResult(1))
            journal.record("fig4", "k", FakeResult(2))
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # kill-mid-write
        loaded = RunJournal(path).load()
        assert set(loaded) == {("table1", "k")}

    def test_garbage_lines_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("table1", "k", FakeResult(1))
        with open(path, "a") as fh:
            fh.write("not json at all\n")
            fh.write('"a bare string"\n')
            fh.write(json.dumps({"kind": "something-else"}) + "\n")
        assert set(RunJournal(path).load()) == {("table1", "k")}

    @pytest.mark.parametrize("garbage", UNDECODABLE.values(), ids=UNDECODABLE)
    def test_undecodable_lines_are_skipped(self, tmp_path, garbage):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("table1", "k", FakeResult(1))
        with open(path, "ab") as fh:
            fh.write(garbage + b"\n")
        with RunJournal(path) as journal:
            journal.record("fig4", "k", FakeResult(2))
        assert set(RunJournal(path).load()) == {("table1", "k"), ("fig4", "k")}

    def test_append_after_a_truncated_line_starts_a_new_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("table1", "k", FakeResult(1))
            journal.record("fig4", "k", FakeResult(2))
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # kill-mid-write
        with RunJournal(path) as journal:  # the resumed run
            journal.record("fig5", "k", FakeResult(3))
        assert set(RunJournal(path).load()) == {("table1", "k"), ("fig5", "k")}

    def test_digest_mismatch_drops_the_entry(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("table1", "k", FakeResult(1))
        entry = json.loads(path.read_text())
        entry["payload"]["value"] = 999  # bit rot / hand edit
        path.write_text(json.dumps(entry) + "\n")
        assert RunJournal(path).load() == {}

    def test_wrong_schema_version_is_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("table1", "k", FakeResult(1))
        entry = json.loads(path.read_text())
        entry["schema_version"] = JOURNAL_SCHEMA_VERSION + 1
        path.write_text(json.dumps(entry) + "\n")
        assert RunJournal(path).load() == {}

    def test_lookup_misses_on_other_run_key(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with RunJournal(path) as journal:
            journal.record("table1", "key-a", FakeResult(1))
        journal = RunJournal(path)
        assert journal.lookup("table1", "key-b") is None
        assert journal.lookup("fig4", "key-a") is None
        assert journal.lookup("table1", "key-a") is not None
