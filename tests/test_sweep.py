"""End-to-end tests for config sweeps (api.run_sweep, ``repro sweep``).

The acceptance story: a two-point sweep over gshare history length
writes one manifest per point whose spec digests differ exactly in the
swept field, shares every artefact the axis does not touch through one
cache (the hit counters prove it), and -- killed mid-flight with
SIGTERM -- finishes under ``--resume`` with manifests that diff clean
against an uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.api import run_spec, run_sweep, SweepRun
from repro.cli import main
from repro.obs.manifest import diff_manifests, read_manifest
from repro.spec import EngineOptions, RunSpec, SweepSpec, SyntheticSource

REPO_DIR = Path(__file__).parent.parent

BENCHMARKS = ("gcc", "compress")


def sweep_spec(cache_dir, max_length=2000, journal=None, resume=False,
               experiments=("fig9",),
               axes=(("gshare_history_bits", (8, 12)),)):
    return RunSpec(
        experiments=experiments,
        workload=SyntheticSource(
            max_length=max_length, seed=7, benchmarks=BENCHMARKS
        ),
        engine=EngineOptions(
            jobs=1,
            cache_dir=str(cache_dir),
            journal=journal,
            resume=resume,
        ),
        sweep=SweepSpec(axes=axes),
    )


class TestRunSweepApi:
    @pytest.fixture(scope="class")
    def sweep(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("sweep")
        run = run_spec(
            sweep_spec(tmp_path / "cache"),
            manifest_dir=str(tmp_path / "manifests"),
        )
        return tmp_path, run

    def test_returns_a_clean_sweep_run(self, sweep):
        _, run = sweep
        assert isinstance(run, SweepRun)
        assert run.ok
        assert len(run.points) == 2
        assert [point.coords for point in run.points] == [
            {"gshare_history_bits": 8},
            {"gshare_history_bits": 12},
        ]

    def test_manifests_written_per_point(self, sweep):
        tmp_path, run = sweep
        for point in run.points:
            assert point.manifest_path is not None
            manifest = read_manifest(point.manifest_path)
            assert manifest["spec_digest"] == point.spec.digest()
            assert manifest["sweep"] == point.coords

    def test_digests_differ_exactly_in_the_swept_field(self, sweep):
        _, run = sweep
        first = read_manifest(run.points[0].manifest_path)
        second = read_manifest(run.points[1].manifest_path)
        assert first["spec_digest"] != second["spec_digest"]
        differing = {
            name
            for name in first["config"]
            if first["config"][name] != second["config"][name]
        }
        assert differing == {"gshare_history_bits"}
        # Same traces everywhere: the workload is not swept.
        assert first["traces"] == second["traces"]

    def test_cache_hits_prove_cross_point_sharing(self, sweep):
        _, run = sweep
        first = read_manifest(run.points[0].manifest_path)["cache"]
        second = read_manifest(run.points[1].manifest_path)["cache"]
        # Point 0 populates the cache from scratch...
        assert first["trace_misses"] == len(BENCHMARKS)
        # ...and point 1 reuses every trace and the pas bitmaps (the
        # axis only resizes gshare).
        assert second["trace_hits"] == len(BENCHMARKS)
        assert second["trace_misses"] == 0
        assert second["result_hits"] >= len(BENCHMARKS)

    def test_summary_json(self, sweep):
        tmp_path, run = sweep
        assert run.summary_path == str(
            tmp_path / "manifests" / "sweep_summary.json"
        )
        payload = json.loads(Path(run.summary_path).read_text())
        assert payload["kind"] == "repro.sweep_summary"
        assert payload["spec_digest"] == run.spec.digest()
        assert payload["axes"] == {"gshare_history_bits": [8, 12]}
        assert len(payload["points"]) == 2
        for entry, point in zip(payload["points"], run.points):
            assert entry["spec_digest"] == point.spec.digest()
            assert entry["manifest"] == point.manifest_path
            assert entry["failures"] == 0

    def test_summary_table_lists_every_point(self, sweep):
        _, run = sweep
        assert "gshare_history_bits=8" in run.summary
        assert "gshare_history_bits=12" in run.summary

    def test_run_sweep_requires_a_sweep(self, tmp_path):
        plain = RunSpec(experiments=("table1",))
        with pytest.raises(ValueError, match="sweep"):
            run_sweep(plain)


class TestSweepCli:
    def test_axis_flags_build_and_run_a_sweep(self, tmp_path, capsys):
        spec_path = tmp_path / "base.json"
        # Start from a spec file for the benchmark subset; the --axis
        # flag supplies the grid.
        RunSpec(
            experiments=("fig9",),
            workload=SyntheticSource(
                max_length=1500, seed=7, benchmarks=BENCHMARKS
            ),
        ).to_file(str(spec_path))
        manifest_dir = tmp_path / "points"
        assert main(
            [
                "sweep", str(spec_path),
                "--axis", "gshare_history_bits=8,12",
                "--manifest-dir", str(manifest_dir),
                "--cache-dir", str(tmp_path / "cache"),
                "--journal", str(tmp_path / "sweep.journal"),
                "--jobs", "1",
            ]
        ) == 0
        names = sorted(p.name for p in manifest_dir.iterdir())
        assert names == [
            "manifest_p0_gshare_history_bits-8.json",
            "manifest_p1_gshare_history_bits-12.json",
            "sweep_summary.json",
        ]
        out = capsys.readouterr().out
        assert "2 points" in out
        assert "deduped across points" in out

    def test_no_axis_is_a_usage_error(self, capsys):
        assert main(["sweep", "--experiments", "fig9"]) == 2
        assert "nothing to sweep" in capsys.readouterr().err

    def test_malformed_axis_is_a_usage_error(self, capsys):
        assert main(
            ["sweep", "--experiments", "fig9", "--axis", "gshare_history_bits"]
        ) == 2
        assert "--axis" in capsys.readouterr().err

    def test_unknown_axis_field_is_a_usage_error(self, capsys):
        assert main(
            ["sweep", "--experiments", "fig9", "--axis", "warp=1,2"]
        ) == 2
        assert "LabConfig" in capsys.readouterr().err


def _sweep_argv(spec_path, manifest_dir, cache_dir, journal):
    return [
        sys.executable, "-m", "repro", "sweep", str(spec_path),
        "--manifest-dir", str(manifest_dir),
        "--cache-dir", str(cache_dir),
        "--journal", str(journal),
        "--jobs", "1",
    ]


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_DIR / "src")
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_FAULT_SPEC", None)
    return env


class TestSweepSigtermResume:
    def test_killed_sweep_resumes_to_identical_manifests(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        # The sweep primes every point before the first one runs, so the
        # second point's own work is its experiments.  An oracle axis
        # makes that a few hundred milliseconds of selection -- the
        # window the SIGTERM must land in -- while the correlation table
        # it reads is shared from the first point.
        sweep_spec(
            tmp_path / "cache-victim", max_length=20_000,
            experiments=("fig5",), axes=(("selective_top_k", (12, 8)),),
        ).to_file(str(spec_path))
        env = _subprocess_env()

        # Reference: the same sweep, uninterrupted (own cache+journal).
        reference_dir = tmp_path / "reference"
        reference = subprocess.run(
            _sweep_argv(
                spec_path,
                reference_dir,
                tmp_path / "cache-reference",
                tmp_path / "reference.journal",
            ),
            capture_output=True, text=True, env=env, cwd=str(tmp_path),
            timeout=600,
        )
        assert reference.returncode == 0, reference.stderr

        # Victim: SIGTERM the moment the second point announces itself
        # (point 0 is then journaled and point 1 is in flight).
        victim_dir = tmp_path / "victim"
        journal = tmp_path / "victim.journal"
        argv = _sweep_argv(
            spec_path, victim_dir, tmp_path / "cache-victim", journal
        )
        victim = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, bufsize=1, env=env, cwd=str(tmp_path),
        )
        lines = []
        point2_started = threading.Event()

        def watch():
            for line in victim.stdout:
                lines.append(line)
                if line.startswith("=== point 2/2"):
                    point2_started.set()
            point2_started.set()  # EOF: unblock the waiter regardless

        watcher = threading.Thread(target=watch, daemon=True)
        watcher.start()
        try:
            assert point2_started.wait(timeout=600)
            if victim.poll() is None:
                victim.send_signal(signal.SIGTERM)
            victim.wait(timeout=600)
        finally:
            if victim.poll() is None:
                victim.kill()
                victim.wait()
        watcher.join(timeout=60)
        output = "".join(lines)
        # 130 when the run converted SIGTERM into a clean unwind; a raw
        # -SIGTERM only if the signal landed outside the run window.
        assert victim.returncode in (130, -signal.SIGTERM), output
        assert journal.is_file(), "journal must survive the kill"
        assert not any(victim_dir.glob("manifest_p1_*.json"))

        resumed = subprocess.run(
            argv + ["--resume"],
            capture_output=True, text=True, env=env, cwd=str(tmp_path),
            timeout=600,
        )
        assert resumed.returncode == 0, resumed.stderr
        assert "replayed from journal" in resumed.stdout

        reference_names = sorted(
            path.name for path in reference_dir.iterdir()
        )
        assert sorted(path.name for path in victim_dir.iterdir()) == (
            reference_names
        )
        for name in reference_names:
            if not name.startswith("manifest_"):
                continue
            differences = diff_manifests(
                read_manifest(str(reference_dir / name)),
                read_manifest(str(victim_dir / name)),
            )
            assert differences == [], f"{name}: {differences}"
