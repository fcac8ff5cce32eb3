"""Integration: observability of whole report runs.

The acceptance bar for the observability layer:

* work-unit counters (``sim.simulations``, ``sim.correlation_collections``)
  and result-layer cache counters agree between ``jobs=1`` and ``jobs=4``
  -- worker metric deltas folded in the parent sum to exactly what a
  single process counts;
* experiment results are bit-identical across worker counts --
  instrumentation observes, never perturbs.

That manifests validate and diff clean across worker counts, cache
states and launch paths is the job of tests/test_equivalence.py.
"""

import json
import re

import pytest

from repro.api import run_spec, spec_from_kwargs
from repro.cli import main as repro_main
from repro.obs.manifest import diff_manifests


def run_report(experiments, **kwargs):
    return run_spec(spec_from_kwargs(experiments, **kwargs))

# fig5 declares the correlation task (so collections are actually
# scheduled -- the planner primes only declared work); fig6 brings the
# per-address predictor sims.
EXPERIMENTS = ["table1", "fig5", "fig6"]
MAX_LENGTH = 2000

#: Counters that must agree exactly between worker counts.  The
#: trace-layer cache counters are deliberately absent: workers re-read
#: the shared trace entry per task, so trace hits legitimately scale
#: with the schedule (see docs/observability.md).
CONSISTENT_COUNTERS = (
    "sim.simulations",
    "sim.correlation_collections",
    "sim.kernel_fastpath",
    "cache.bitmap.hits",
    "cache.bitmap.misses",
    "cache.bitmap.writes",
    "cache.corr.hits",
    "cache.corr.misses",
    "cache.corr.writes",
    "experiments.run",
)


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serial-cache")
    return run_report(
        EXPERIMENTS, max_length=MAX_LENGTH, jobs=1, cache_dir=str(cache_dir)
    )


@pytest.fixture(scope="module")
def parallel_run(tmp_path_factory):
    return run_report(
        EXPERIMENTS,
        max_length=MAX_LENGTH,
        jobs=4,
        cache_dir=str(tmp_path_factory.mktemp("parallel-cache")),
    )


class TestCrossProcessConsistency:
    def test_work_and_cache_counters_match(self, serial_run, parallel_run):
        serial = serial_run.metrics["counters"]
        parallel = parallel_run.metrics["counters"]
        for name in CONSISTENT_COUNTERS:
            assert serial.get(name, 0) == parallel.get(name, 0), name

    def test_simulations_actually_happened(self, serial_run):
        counters = serial_run.metrics["counters"]
        assert counters["sim.simulations"] > 0
        assert counters["sim.correlation_collections"] == 8

    def test_parallel_run_used_workers(self, parallel_run):
        assert parallel_run.metrics["gauges"]["parallel.workers"] == 4
        assert parallel_run.metrics["counters"]["parallel.jobs_executed"] > 0
        assert "parallel.job_seconds" in parallel_run.metrics["timers"]

    def test_results_bit_identical_across_worker_counts(
        self, serial_run, parallel_run
    ):
        for experiment_id in EXPERIMENTS:
            assert (
                serial_run.results[experiment_id].to_json()
                == parallel_run.results[experiment_id].to_json()
            )


class TestCacheLine:
    def test_final_cache_line_counts_the_workers_too(self, tmp_path, capsys):
        # A cold jobs-2 report: workers write most entries, and the
        # printed line must count them as the manifest does.
        manifest_path = tmp_path / "manifest.json"
        assert repro_main([
            "report", "--max-length", "3000", "--jobs", "2", "--journal", "",
            "--cache-dir", str(tmp_path / "cache"), "--manifest-out", str(manifest_path),
        ]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("cache: ")]
        hits, misses, writes = map(int, re.match(
            r"cache: (\d+) hits, (\d+) misses, (\d+) writes", lines[-1]).groups())
        cache = json.loads(manifest_path.read_text())["cache"]
        assert hits == cache["result_hits"] + cache["trace_hits"]
        assert misses == cache["result_misses"] + cache["trace_misses"]
        assert writes == cache["result_writes"] + cache["trace_writes"] > 0


class TestPoolWorkerSources:
    """Pool workers load whole-trace lanes from a mixed synthetic source
    (the imported source is a cell of tests/test_equivalence.py)."""

    @pytest.mark.parametrize("kind", ["mixed"])
    def test_pool_run_matches_serial_run(self, tmp_path, kind):
        from repro.spec import EngineOptions, RunSpec, SyntheticSource

        workload = SyntheticSource(
            max_length=MAX_LENGTH, benchmarks=("compress", "gcc"),
            mix={"noise": 2.0},
        )
        runs = {}
        for jobs in (1, 2):
            runs[jobs] = run_spec(
                RunSpec(
                    experiments=tuple(EXPERIMENTS),
                    workload=workload,
                    engine=EngineOptions(
                        jobs=jobs, cache_dir=str(tmp_path / f"cache-{jobs}")
                    ),
                )
            )
        assert runs[2].metrics["counters"]["parallel.jobs_executed"] > 0
        digests = [
            {e["id"]: e["result_digest"] for e in run.manifest["experiments"]}
            for run in runs.values()
        ]
        assert digests[0] == digests[1]
        assert diff_manifests(runs[1].manifest, runs[2].manifest) == []
