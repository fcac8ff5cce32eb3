"""Tests for the public facade (repro.api) and package re-exports."""

import pytest

from repro.api import (
    RESULT_SCHEMA,
    EngineOptions,
    ReportRun,
    RunSpec,
    SyntheticSource,
    UnknownExperimentError,
    generate_suite,
    run_spec,
    spec_from_kwargs,
)


def report(experiments, **kwargs):
    outputs = {
        name: kwargs.pop(name)
        for name in (
            "json_out", "manifest_out", "result_out", "metrics_out",
            "trace_out", "echo",
        )
        if name in kwargs
    }
    return run_spec(spec_from_kwargs(experiments, **kwargs), **outputs)


class TestFacadeSurface:
    def test_package_reexports(self):
        import repro

        assert repro.run_spec is run_spec
        assert repro.spec_from_kwargs is spec_from_kwargs
        assert repro.ReportRun is ReportRun
        for name in (
            "Lab",
            "LabConfig",
            "EngineSession",
            "SpecError",
            "build_labs",
            "generate_suite",
            "run_experiment",
        ):
            assert hasattr(repro, name), name

    def test_run_report_shim_is_gone(self):
        import repro
        import repro.api

        assert not hasattr(repro, "run_report")
        assert not hasattr(repro.api, "run_report")

    def test_facade_matches_deep_paths(self):
        # The facade re-exports; it does not fork the implementation.
        import repro
        from repro.analysis.config import LabConfig as DeepConfig
        from repro.analysis.runner import Lab as DeepLab
        from repro.experiments.base import build_labs as deep_build_labs
        from repro.experiments.base import run_experiment as deep_run

        assert repro.Lab is DeepLab
        assert repro.LabConfig is DeepConfig
        assert repro.build_labs is deep_build_labs
        assert repro.run_experiment is deep_run

    def test_generate_suite_returns_paper_benchmarks(self):
        from repro.workloads.suite import BENCHMARK_NAMES

        traces = generate_suite(max_length=2000)
        assert sorted(traces) == sorted(BENCHMARK_NAMES)
        assert all(len(trace) > 0 for trace in traces.values())


class TestRunSpecFacade:
    def test_unknown_experiment_raises_spec_error(self):
        with pytest.raises(UnknownExperimentError, match="fig99"):
            report(["fig99"], max_length=2000, use_cache=False)
        # Pre-taxonomy callers caught ValueError; that still works.
        with pytest.raises(ValueError, match="fig99"):
            report(["fig99"], max_length=2000, use_cache=False)

    def test_single_experiment_run(self, tmp_path):
        run = report(
            ["table1"],
            max_length=2000,
            cache_dir=str(tmp_path / "c"),
            jobs=1,
        )
        assert isinstance(run, ReportRun)
        assert list(run.results) == ["table1"]
        assert run.results["table1"].experiment_id == "table1"
        assert len(run.labs) == 8
        assert validate_clean(run.manifest)
        assert run.metrics["counters"]["experiments.run"] == 1

    def test_duplicates_run_once(self, tmp_path):
        run = report(
            ["table1", "table1"],
            max_length=2000,
            cache_dir=str(tmp_path / "c"),
            jobs=1,
        )
        assert list(run.results) == ["table1"]
        assert run.metrics["counters"]["experiments.run"] == 1

    def test_echo_preserves_cli_progress_lines(self, tmp_path):
        lines = []
        report(
            ["table1"],
            max_length=2000,
            cache_dir=str(tmp_path / "c"),
            jobs=2,
            echo=lines.append,
        )
        text = "\n".join(lines)
        assert "building workload traces..." in text
        assert "running table1..." in text
        assert "jobs: 2" in text
        assert "cache:" in text

    def test_per_benchmark_spans_name_their_benchmark(self, tmp_path):
        import json

        trace_path = tmp_path / "spans.json"
        run_spec(
            RunSpec(
                experiments=("fig4",),
                workload=SyntheticSource(
                    max_length=1500, benchmarks=("gcc", "compress")
                ),
                engine=EngineOptions(jobs=1, cache=False),
            ),
            trace_out=str(trace_path),
        )
        events = json.loads(trace_path.read_text())["traceEvents"]
        named = {
            event["name"]: set() for event in events
            if event["name"] in ("simulate", "collect_correlation", "select_oracle")
        }
        for event in events:
            if event["name"] in named:
                named[event["name"]].add(event["args"]["benchmark"])
        assert named == dict.fromkeys(
            ("simulate", "collect_correlation", "select_oracle"),
            {"gcc", "compress"},
        )

    def test_silent_without_echo(self, tmp_path, capsys):
        report(
            ["table1"], max_length=2000, cache_dir=str(tmp_path / "c"), jobs=1
        )
        captured = capsys.readouterr()
        assert captured.out == ""

    def test_no_cache_run_has_cache_disabled_manifest(self):
        run = report(["table1"], max_length=2000, use_cache=False, jobs=1)
        assert run.manifest["cache"]["enabled"] is False
        assert run.manifest["cache"]["dir"] is None

    def test_artifacts_written(self, tmp_path):
        import json

        manifest_path = tmp_path / "m.json"
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "spans.json"
        json_path = tmp_path / "results.json"
        report(
            ["table1"],
            max_length=2000,
            cache_dir=str(tmp_path / "c"),
            jobs=1,
            manifest_out=str(manifest_path),
            metrics_out=str(metrics_path),
            trace_out=str(trace_path),
            json_out=str(json_path),
        )
        manifest = json.loads(manifest_path.read_text())
        assert validate_clean(manifest)
        metrics = json.loads(metrics_path.read_text())
        assert metrics["counters"]["experiments.run"] == 1
        spans = json.loads(trace_path.read_text())
        names = {event["name"] for event in spans["traceEvents"]}
        assert "report" in names
        assert "build_labs" in names
        results = json.loads(json_path.read_text())
        assert results["table1"]["schema_version"] == 2


class TestResultEnvelope:
    def test_report_envelope_shape(self, tmp_path):
        run = report(
            ["table1"], max_length=2000, cache_dir=str(tmp_path / "c"), jobs=1
        )
        doc = run.to_dict()
        assert doc["schema"] == RESULT_SCHEMA
        assert doc["kind"] == "report"
        assert doc["ok"] is True
        assert doc["spec_digest"] == run.spec.digest()
        assert doc["spec"] == run.spec.identity()
        assert doc["manifest"] == run.manifest
        assert set(doc["results"]) == {"table1"}
        entry = doc["results"]["table1"]
        assert entry["payload"] == run.results["table1"].to_dict()
        assert entry["render"] == run.results["table1"].render()

    def test_result_out_writes_canonical_envelope(self, tmp_path):
        import json

        result_path = tmp_path / "result.json"
        run = report(
            ["table1"],
            max_length=2000,
            cache_dir=str(tmp_path / "c"),
            jobs=1,
            result_out=str(result_path),
        )
        on_disk = json.loads(result_path.read_text())
        assert on_disk == json.loads(
            json.dumps(run.to_dict(), sort_keys=True)
        )

    def test_envelope_is_engine_independent(self, tmp_path):
        # Same identity, different engine options: identical envelope
        # identity fields (the dedup/wire-compat property the server
        # depends on).
        one = report(
            ["table1"], max_length=2000, cache_dir=str(tmp_path / "a"), jobs=1
        )
        two = report(
            ["table1"], max_length=2000, cache_dir=str(tmp_path / "b"), jobs=2
        )
        assert one.to_dict()["spec"] == two.to_dict()["spec"]
        assert one.to_dict()["spec_digest"] == two.to_dict()["spec_digest"]

    def test_sweep_envelope_embeds_point_envelopes(self, tmp_path):
        import dataclasses

        from repro.spec import SweepSpec

        spec = spec_from_kwargs(
            ["fig9"], max_length=2000, cache_dir=str(tmp_path / "c"), jobs=1
        )
        spec = dataclasses.replace(
            spec, sweep=SweepSpec(axes=(("gshare_history_bits", (4, 6)),))
        )
        sweep = run_spec(spec)
        doc = sweep.to_dict()
        assert doc["schema"] == RESULT_SCHEMA
        assert doc["kind"] == "sweep"
        assert len(doc["points"]) == 2
        for point in doc["points"]:
            assert point["schema"] == RESULT_SCHEMA
            assert point["kind"] == "point"
            assert point["report"]["kind"] == "report"


def validate_clean(manifest):
    from repro.obs.manifest import validate_manifest

    errors = validate_manifest(manifest)
    assert errors == [], errors
    return True
