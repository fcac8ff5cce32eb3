"""End-to-end checkpoint/resume and graceful degradation for reports."""

from __future__ import annotations

import pytest

import repro.api as api
from repro.api import run_spec, spec_from_kwargs
from repro.resilience.journal import RunJournal

SMALL = 2000


def digests(run):
    return {
        entry["id"]: entry["result_digest"]
        for entry in run.manifest["experiments"]
    }


def report(tmp_path, experiments, **kwargs):
    kwargs.setdefault("max_length", SMALL)
    kwargs.setdefault("cache_dir", str(tmp_path / "c"))
    kwargs.setdefault("jobs", 1)
    return run_spec(spec_from_kwargs(experiments, **kwargs))


class TestJournaling:
    def test_report_journals_each_experiment(self, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        run = report(
            tmp_path, ["table1", "fig4"], journal_path=str(journal_path)
        )
        entries = RunJournal(journal_path).load()
        assert {eid for eid, _ in entries} == {"table1", "fig4"}
        # Journal digests are the manifest's result digests.
        run_digests = digests(run)
        for (experiment_id, _), entry in entries.items():
            assert entry["result_digest"] == run_digests[experiment_id]

    def test_no_journal_path_writes_nothing(self, tmp_path):
        run = report(tmp_path, ["table1"])
        assert run.manifest["resilience"]["journal"] is None

    def test_fresh_run_truncates_stale_journal(self, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        report(tmp_path, ["table1", "fig4"], journal_path=str(journal_path))
        report(tmp_path, ["table1"], journal_path=str(journal_path))
        entries = RunJournal(journal_path).load()
        assert {eid for eid, _ in entries} == {"table1"}


class TestResume:
    def test_partial_journal_runs_only_the_missing(self, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        report(tmp_path, ["table1"], journal_path=str(journal_path))
        resumed = report(
            tmp_path,
            ["table1", "fig4"],
            journal_path=str(journal_path),
            resume=True,
        )
        assert resumed.replayed == ["table1"]
        assert set(resumed.results) == {"table1", "fig4"}
        # The freshly-run fig4 was journaled, so a second resume
        # replays both.
        again = report(
            tmp_path,
            ["table1", "fig4"],
            journal_path=str(journal_path),
            resume=True,
        )
        assert again.replayed == ["table1", "fig4"]

    def test_journal_from_other_run_inputs_never_matches(self, tmp_path):
        journal_path = tmp_path / "j.jsonl"
        report(tmp_path, ["table1"], journal_path=str(journal_path))
        resumed = report(
            tmp_path,
            ["table1"],
            seed=54321,  # different workload data set, same journal
            journal_path=str(journal_path),
            resume=True,
        )
        assert resumed.replayed == []
        assert set(resumed.results) == {"table1"}


class TestGracefulDegradation:
    def test_experiment_failure_is_recorded_and_run_continues(
        self, tmp_path, monkeypatch
    ):
        real_run_experiment = api.run_experiment

        def flaky(experiment_id, labs):
            if experiment_id == "table1":
                raise RuntimeError("synthetic experiment explosion")
            return real_run_experiment(experiment_id, labs)

        monkeypatch.setattr(api, "run_experiment", flaky)
        run = report(tmp_path, ["table1", "fig4"])
        assert not run.ok
        assert set(run.results) == {"fig4"}
        (failure,) = run.failures
        assert failure["scope"] == "experiment"
        assert failure["experiment_id"] == "table1"
        assert "synthetic experiment explosion" in failure["message"]
        assert run.manifest["resilience"]["failures"] == [failure]

    def test_clean_run_is_ok(self, tmp_path):
        run = report(tmp_path, ["table1"])
        assert run.ok
        assert run.failures == []
        assert run.manifest["resilience"]["task_failures"] == 0


class TestFaultSpecWiring:
    def test_malformed_spec_raises_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="fault"):
            report(tmp_path, ["table1"], fault_spec="loop:zero:crash")

    def test_env_spec_is_picked_up(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "loop:1:crash")
        # fig6 declares the loop task, so the planner primes it and the
        # injected crash fires once per benchmark.
        run = report(tmp_path, ["fig6"], retries=2)
        assert run.ok
        assert (
            run.metrics["counters"]["resilience.faults.crash"]
            == len(run.labs)
        )
