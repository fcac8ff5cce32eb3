"""Tests for the worker-safety pass (repro.check.workers)."""

import ast
from pathlib import Path

import pytest

import repro.analysis.parallel as parallel
from repro.check.diagnostics import ERROR
from repro.check.workers import (
    DEFAULT_ENTRY,
    TASK_ENTRY,
    WORKER_SAFE_GLOBALS,
    analyze_worker_safety,
)

FIXTURES = Path(__file__).parent / "fixtures" / "check_defects"
BAD_WORKER = FIXTURES / "bad_worker.py"


def codes(diagnostics):
    return [diag.code for diag in diagnostics]


def by_code(diagnostics, code):
    return [diag for diag in diagnostics if diag.code == code]


class TestRealTreeIsClean:
    def test_shipped_scheduler_passes(self):
        assert analyze_worker_safety() == []

    def test_every_submitted_function_is_an_entry(self):
        # WS001-WS004 only scan what is reachable from DEFAULT_ENTRY, so
        # a pool entry missing from it would never be checked.
        tree = ast.parse(Path(parallel.__file__).read_text(encoding="utf-8"))
        submitted = {
            node.args[0].id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and node.args
            and isinstance(node.args[0], ast.Name)
        }
        module, functions = DEFAULT_ENTRY
        assert module == parallel.__name__
        assert submitted and submitted <= set(functions)

    def test_task_table_compute_is_an_entry(self):
        # Workers run the task table's compute_task; the default analysis
        # must seed it from the module that defines it.
        import importlib

        module, functions = TASK_ENTRY
        assert functions == ("compute_task",)
        assert importlib.import_module(module).compute_task is parallel.compute_task

    def test_telemetry_singletons_are_allowlisted(self):
        # The delta-shipping protocol depends on these staying exempt.
        assert "METRICS" in WORKER_SAFE_GLOBALS
        assert "TRACER" in WORKER_SAFE_GLOBALS


class TestSeededWorkerDefects:
    @pytest.fixture(scope="class")
    def diagnostics(self):
        return analyze_worker_safety(
            entry_path=str(BAD_WORKER),
            entry_functions=("compute_task",),
        )

    def test_exact_code_multiset(self, diagnostics):
        assert sorted(codes(diagnostics)) == [
            "WS001", "WS001", "WS001", "WS002", "WS002", "WS003",
            "WS004", "WS004",
        ]

    def test_all_findings_are_errors(self, diagnostics):
        assert all(diag.severity == ERROR for diag in diagnostics)

    def test_ws001_sees_through_reachable_helpers(self, diagnostics):
        # compute_task itself never mutates; _record and _fold do.
        messages = [diag.message for diag in by_code(diagnostics, "WS001")]
        assert any("'_RESULTS'" in m and "_record()" in m for m in messages)
        assert any("'_LOG'" in m and "_record()" in m for m in messages)
        assert any("'_SEEN'" in m and "_fold()" in m for m in messages)

    def test_ws002_flags_lambda_and_nested_function(self, diagnostics):
        messages = [diag.message for diag in by_code(diagnostics, "WS002")]
        assert any("lambda" in m for m in messages)
        assert any("'_local_job'" in m for m in messages)

    def test_ws003_flags_set_iteration_in_fold(self, diagnostics):
        (finding,) = by_code(diagnostics, "WS003")
        assert "set" in finding.message
        assert finding.location.endswith(":22")

    def test_ws004_flags_whole_trace_submissions(self, diagnostics):
        messages = [diag.message for diag in by_code(diagnostics, "WS004")]
        assert any("'.trace'" in m for m in messages)
        assert any("'loaded'" in m for m in messages)
        assert all(
            "ship the spill path instead and load the trace in the worker" in m
            for m in messages
        )
        assert not any("shared-memory" in m for m in messages)

    def test_clean_fold_stays_silent(self, diagnostics):
        # fold_clean's sorted() iteration must not fire WS003.
        assert not any(
            diag.location.endswith(":59") for diag in diagnostics
        )


class TestEntryResolution:
    def test_missing_entry_point_reports_ws000(self):
        diagnostics = analyze_worker_safety(
            entry_path=str(BAD_WORKER),
            entry_functions=("no_such_function",),
        )
        assert codes(diagnostics) == ["WS000"]
        assert "no_such_function" in diagnostics[0].message

    def test_suppression_comment_silences_a_finding(self, tmp_path):
        source = BAD_WORKER.read_text(encoding="utf-8")
        patched = source.replace(
            '    for task in {"gshare", "pas", "loop"}:',
            '    for task in {"gshare", "pas", "loop"}:  # check: ignore',
        )
        assert patched != source
        target = tmp_path / "suppressed_worker.py"
        target.write_text(patched, encoding="utf-8")
        diagnostics = analyze_worker_safety(
            entry_path=str(target), entry_functions=("compute_task",)
        )
        assert "WS003" not in codes(diagnostics)
        assert "WS001" in codes(diagnostics)  # the rest still fire
