"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


class TestCli:
    def test_unknown_experiment_exits_2(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_single_experiment(self, capsys):
        assert main(["table1", "--max-length", "2000"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "vortex" in out

    def test_duplicates_run_once(self, capsys):
        assert main(["table1", "table1", "--max-length", "2000"]) == 0
        out = capsys.readouterr().out
        assert out.count("running table1") == 1

    def test_gshare_override(self, capsys):
        assert main(["fig9", "--max-length", "2000", "--gshare-history", "8"]) == 0

    def test_seed_changes_workload(self, capsys):
        assert main(["table1", "--max-length", "2000", "--seed", "99"]) == 0


class TestEngineFlags:
    def test_report_is_alias_for_all(self, capsys, tmp_path, monkeypatch):
        # report/all write run_manifest.json into the cwd by default.
        monkeypatch.chdir(tmp_path)
        assert main(
            ["report", "--max-length", "2000",
             "--cache-dir", str(tmp_path / "c")]
        ) == 0
        out = capsys.readouterr().out
        assert "running table1" in out
        assert "running fig9" in out
        assert (tmp_path / "run_manifest.json").is_file()

    def test_no_cache_bypasses_disk(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert main(["table1", "--max-length", "2000", "--no-cache"]) == 0
        assert not (tmp_path / "c").exists()
        assert "cache:" not in capsys.readouterr().out

    def test_cache_dir_flag_populates(self, capsys, tmp_path):
        cache_dir = tmp_path / "c"
        assert main(
            ["table2", "--max-length", "2000", "--cache-dir", str(cache_dir)]
        ) == 0
        assert cache_dir.is_dir()
        first = capsys.readouterr().out
        assert "misses" in first
        # Second run is pure cache hits.
        assert main(
            ["table2", "--max-length", "2000", "--cache-dir", str(cache_dir)]
        ) == 0
        assert "0 misses" in capsys.readouterr().out

    def test_explicit_jobs(self, capsys, tmp_path):
        assert main(
            ["table1", "--max-length", "2000", "--jobs", "2",
             "--cache-dir", str(tmp_path / "c")]
        ) == 0
        assert "jobs: 2" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_metrics_out_writes_snapshot(self, capsys, tmp_path):
        # fig9 declares gshare+pas, so the planner actually schedules
        # simulations (table1 is pure trace statistics and would not).
        import json

        metrics_path = tmp_path / "metrics.json"
        assert main(
            ["fig9", "--max-length", "2000", "--no-cache",
             "--metrics-out", str(metrics_path)]
        ) == 0
        payload = json.loads(metrics_path.read_text())
        assert payload["counters"]["experiments.run"] == 1
        assert "sim.simulations" in payload["counters"]

    def test_trace_out_writes_chrome_trace(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "spans.json"
        assert main(
            ["fig9", "--max-length", "2000", "--no-cache",
             "--trace-out", str(trace_path)]
        ) == 0
        payload = json.loads(trace_path.read_text())
        names = {event["name"] for event in payload["traceEvents"]}
        assert "report" in names and "simulate" in names

    def test_manifest_out_for_single_experiment(self, capsys, tmp_path):
        from repro.obs.manifest import read_manifest

        manifest_path = tmp_path / "m.json"
        assert main(
            ["table2", "--max-length", "2000",
             "--cache-dir", str(tmp_path / "c"),
             "--manifest-out", str(manifest_path)]
        ) == 0
        manifest = read_manifest(str(manifest_path))
        assert [entry["id"] for entry in manifest["experiments"]] == ["table2"]

    def test_single_experiment_writes_no_default_manifest(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["table1", "--max-length", "2000", "--no-cache"]) == 0
        assert not (tmp_path / "run_manifest.json").exists()

    def test_obs_show_round_trips_report_manifest(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["report", "--max-length", "2000",
             "--cache-dir", str(tmp_path / "c")]
        ) == 0
        capsys.readouterr()
        assert main(["obs", "show", "run_manifest.json"]) == 0
        out = capsys.readouterr().out
        from repro.obs.manifest import MANIFEST_SCHEMA_VERSION

        assert f"run manifest (schema v{MANIFEST_SCHEMA_VERSION}" in out
        assert "fig9" in out


class TestCacheSubcommand:
    def test_stats_and_clear(self, capsys, tmp_path):
        cache_dir = tmp_path / "c"
        assert main(
            ["table1", "--max-length", "2000", "--cache-dir", str(cache_dir)]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out and "entries: 0" not in out
        assert main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "entries: 0" in capsys.readouterr().out

    def test_cache_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envc"))
        assert main(["cache", "stats"]) == 0
        assert str(tmp_path / "envc") in capsys.readouterr().out

    def test_stats_on_missing_dir_is_zero_and_clean(self, capsys, tmp_path):
        # Regression: a fresh checkout has no cache directory; stats
        # must report an empty cache, exit 0, and not create the dir.
        missing = tmp_path / "never-created"
        assert main(["cache", "stats", "--cache-dir", str(missing)]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out
        assert "size: 0.00 MB" in out
        assert not missing.exists()

    def test_stats_on_file_root_is_zero(self, capsys, tmp_path):
        # A plain file where the cache dir should be must not crash.
        bogus = tmp_path / "file-not-dir"
        bogus.write_text("not a cache")
        assert main(["cache", "stats", "--cache-dir", str(bogus)]) == 0
        assert "entries: 0" in capsys.readouterr().out


class TestVersionFlag:
    def test_version_flag(self, capsys):
        import re

        assert main(["--version"]) == 0
        out = capsys.readouterr().out.strip()
        # Metadata (when installed) may disagree with the checkout; the
        # format is the contract.
        assert re.fullmatch(r"repro \d+[\w.]*", out)


class TestSpecCommands:
    def emit(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        assert main(
            ["fig9", "--max-length", "2000", "--emit-spec", str(spec_path),
             "--cache-dir", str(tmp_path / "c")]
        ) == 0
        assert "run spec written" in capsys.readouterr().out
        return spec_path

    def test_emit_spec_writes_without_running(self, tmp_path, capsys):
        spec_path = self.emit(tmp_path, capsys)
        from repro.spec import RunSpec

        spec = RunSpec.from_file(str(spec_path))
        assert spec.experiments == ("fig9",)
        assert spec.workload.max_length == 2000

    def test_run_executes_an_emitted_spec(self, tmp_path, capsys):
        spec_path = self.emit(tmp_path, capsys)
        manifest_path = tmp_path / "m.json"
        assert main(
            ["run", str(spec_path), "--manifest-out", str(manifest_path)]
        ) == 0
        assert "running fig9" in capsys.readouterr().out
        assert manifest_path.is_file()

    def test_run_missing_spec_file_is_usage_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_rejects_malformed_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "repro.runspec", "colour": "red"}')
        assert main(["run", str(bad)]) == 2
        assert "unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, field",
        [
            ({"collection_window": 40}, "config.collection_window"),
            ({"selective_window": 20, "collection_window": 16},
             "config.selective_window"),
            ({"collection_window": 16}, "config.collection_window"),
        ],
    )
    def test_run_rejects_bad_correlation_windows_before_simulating(
        self, tmp_path, capsys, config, field
    ):
        spec_path = tmp_path / "fig5.json"
        assert main(
            ["fig5", "--max-length", "300", "--emit-spec", str(spec_path)]
        ) == 0
        document = json.loads(spec_path.read_text())
        document["config"].update(config)
        spec_path.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(["run", str(spec_path)]) == 2
        captured = capsys.readouterr()
        assert field in captured.err
        assert "building workload traces" not in captured.out

    def test_plan_prints_the_graph_without_running(self, tmp_path, capsys):
        spec_path = self.emit(tmp_path, capsys)
        assert main(["plan", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "1 point(s)" in out
        assert "p0/experiment/fig9" in out
        # Planning must not execute anything.
        assert "running fig9" not in out


#: A tiny spec whose ``engine`` section each case below spoils.
_ENGINE_SPEC = {
    "kind": "repro.runspec",
    "experiments": ["table1"],
    "workload": {"max_length": 300},
    "engine": {"cache": False},
}


class TestBadEngineOptions:
    """A bad engine option exits 2 naming the field -- no traceback."""

    @pytest.mark.parametrize(
        "argv, env, engine, expected",
        [
            (["report", "--task-timeout", "0"], {}, None,
             "engine.task_timeout"),
            (["report", "--task-timeout", "-1"], {}, None,
             "engine.task_timeout"),
            (["report"], {"REPRO_TASK_TIMEOUT": "0"}, None,
             "engine.task_timeout (from REPRO_TASK_TIMEOUT)"),
            (["run", "spec.json"], {}, {"task_timeout": 0},
             "engine.task_timeout"),
            (["run", "spec.json"], {}, {"task_timeout": "soon"},
             "engine.task_timeout"),
            (["run", "spec.json"], {}, {"jobs": "x"}, "engine.jobs"),
            (["run", "spec.json"], {}, {"retries": "x"}, "engine.retries"),
            (["run", "spec.json", "--task-timeout", "0"], {}, {},
             "engine.task_timeout"),
        ],
        ids=[
            "flag-zero", "flag-negative", "env-zero", "spec-zero",
            "spec-text", "spec-jobs", "spec-retries", "run-flag-zero",
        ],
    )
    def test_exits_2_naming_the_field(
        self, tmp_path, argv, env, engine, expected
    ):
        if engine is not None:
            document = dict(_ENGINE_SPEC)
            document["engine"] = {**_ENGINE_SPEC["engine"], **engine}
            (tmp_path / "spec.json").write_text(json.dumps(document))
        else:
            argv = argv + ["--max-length", "300", "--no-cache"]
        environment = dict(os.environ, **env)
        environment["PYTHONPATH"] = str(Path(__file__).parents[1] / "src")
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=tmp_path, env=environment, capture_output=True, text=True,
            timeout=120,
        )
        assert done.returncode == 2, done.stderr
        assert expected in done.stderr
        assert "Traceback" not in done.stderr
