"""Tests for the ``repro check`` CLI wiring (repro.check.cli)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import cli as check_cli
from repro.check.diagnostics import WARNING, Diagnostic
from repro.cli import main as repro_main

#: Planted lint hazards: a global RNG draw (DH002), and a set iterated
#: directly (DH004) and through a local name (DH004).
HAZARDS = """\
import random


def fold(tasks):
    pending = set(tasks)
    return [task for task in pending]


for name in {"gshare", "pas"}:
    pass

x = random.random()
"""


@pytest.fixture()
def defect_args(tmp_path):
    (tmp_path / "hazards.py").write_text(HAZARDS)
    return ["lint", "--lint-root", str(tmp_path)]


def run_check(tmp_path, *args):
    """``python -m repro check ARGS`` in a subprocess."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "check", *args],
        cwd=tmp_path, env=environment, capture_output=True, text=True,
        timeout=120,
    )


class TestCheckCli:
    def test_full_check_passes_on_seed_repo(self, capsys):
        assert check_cli.main([]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_single_pass_selection(self, capsys):
        assert check_cli.main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "lint:" in out
        assert "ir:" not in out

    def test_unknown_pass_rejected(self):
        with pytest.raises(SystemExit):
            check_cli.main(["nonsense"])

    def test_deps_is_a_usage_error(self, tmp_path):
        done = run_check(tmp_path, "deps")
        assert done.returncode == 2, done.stderr
        assert "usage: repro check" in done.stderr
        assert "choose from ir, contracts, lint" in done.stderr
        assert "Traceback" not in done.stderr

    def test_lint_root_failure_sets_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "hazard.py"
        bad.write_text("import random\nx = random.random()\n")
        assert check_cli.main(["lint", "--lint-root", str(tmp_path)]) == 1
        assert "DH002" in capsys.readouterr().out


class TestNewPasses:
    def test_pass_names(self):
        assert check_cli.PASS_NAMES == ["ir", "contracts", "lint"]

    def test_workers_is_a_usage_error(self, tmp_path):
        # Pool jobs are pure by construction; there is no workers pass.
        done = run_check(tmp_path, "workers")
        assert done.returncode == 2, done.stderr
        assert "choose from ir, contracts, lint" in done.stderr
        assert "Traceback" not in done.stderr
        done = run_check(tmp_path, "lint", "--workers-entry", "x.py")
        assert done.returncode == 2, done.stderr
        assert "unrecognized arguments: --workers-entry" in done.stderr

    def test_defect_fixtures_fail_the_check(self, defect_args, capsys):
        assert check_cli.main(defect_args) == 1
        out = capsys.readouterr().out
        for code in ("DH002", "DH004"):
            assert code in out
        assert "hazards.py:6" in out  # the set bound to a local name


class TestJsonFormat:
    def test_json_document_shape(self, defect_args, capsys):
        assert check_cli.main(defect_args + ["--format", "json"]) == 1
        out = capsys.readouterr().out
        document = json.loads(out)  # progress lines suppressed
        assert document["passes"] == ["lint"]
        assert document["errors"] == 3
        assert document["warnings"] == 0
        record = document["diagnostics"][0]
        assert set(record) == {
            "pass", "code", "severity", "message", "location", "file",
            "line",
        }
        assert all(
            r["line"] is None or isinstance(r["line"], int)
            for r in document["diagnostics"]
        )

    def test_json_clean_run(self, capsys):
        assert check_cli.main(["lint", "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document == {
            "passes": ["lint"], "errors": 0, "warnings": 0,
            "diagnostics": [],
        }


class TestGithubAnnotations:
    def test_error_and_warning_lines_emitted(self, defect_args, capsys):
        assert check_cli.main(defect_args + ["--github"]) == 1
        out = capsys.readouterr().out
        assert "::error file=" in out
        assert ",title=DH004::" in out
        assert ",line=" in out
        # No planted fixture yields a warning, so format one directly.
        warning = Diagnostic("DH004", WARNING, "set\niteration", "mod.py:7")
        assert check_cli.github_annotations({"lint": [warning]}) == [
            "::warning file=mod.py,line=7,title=DH004::set iteration"
        ]

    def test_no_annotations_on_clean_run(self, capsys):
        assert check_cli.main(["lint", "--github"]) == 0
        assert "::error" not in capsys.readouterr().out


class TestReproCliDispatch:
    def test_python_m_repro_check_dispatches(self, capsys):
        assert repro_main(["check", "lint"]) == 0
        assert "lint:" in capsys.readouterr().out

    def test_experiment_ids_still_rejected(self, capsys):
        assert repro_main(["not-an-experiment"]) == 2
