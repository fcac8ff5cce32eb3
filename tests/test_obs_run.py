"""Integration: observability of whole report runs.

The acceptance bar for the observability layer:

* work-unit counters (``sim.simulations``, ``sim.correlation_collections``)
  and result-layer cache counters agree between ``jobs=1`` and ``jobs=4``
  -- worker metric deltas folded in the parent sum to exactly what a
  single process counts;
* experiment results are bit-identical across worker counts and across
  cold/warm cache runs -- instrumentation observes, never perturbs;
* every run manifest validates against the schema, and manifests of
  equivalent runs diff clean on their deterministic sections.
"""

import pytest

from repro.api import run_spec, spec_from_kwargs
from repro.obs.manifest import diff_manifests, validate_manifest


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
def parallel_cache(tmp_path_factory):
    return tmp_path_factory.mktemp("parallel-cache")


@pytest.fixture(scope="module")
def parallel_run(parallel_cache):
    return run_report(
        EXPERIMENTS,
        max_length=MAX_LENGTH,
        jobs=4,
        cache_dir=str(parallel_cache),
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

    def test_manifests_validate_and_diff_clean(self, serial_run, parallel_run):
        assert validate_manifest(serial_run.manifest) == []
        assert validate_manifest(parallel_run.manifest) == []
        assert diff_manifests(serial_run.manifest, parallel_run.manifest) == []


class TestWarmCache:
    def test_warm_run_is_pure_hits_and_identical(
        self, parallel_run, parallel_cache
    ):
        warm = run_report(
            EXPERIMENTS,
            max_length=MAX_LENGTH,
            jobs=4,
            cache_dir=str(parallel_cache),
        )
        cache = warm.manifest["cache"]
        assert cache["result_misses"] == 0
        assert cache["result_hits"] > 0
        assert cache["hit_ratio"] == 1.0
        counters = warm.metrics["counters"]
        # Nothing was recomputed...
        assert counters.get("sim.simulations", 0) == 0
        assert counters.get("sim.correlation_collections", 0) == 0
        # ...and the outputs did not move.
        for experiment_id in EXPERIMENTS:
            assert (
                warm.results[experiment_id].to_json()
                == parallel_run.results[experiment_id].to_json()
            )
        assert diff_manifests(parallel_run.manifest, warm.manifest) == []


def _pool_source(kind, tmp_path):
    from repro.spec import ImportedSource, SyntheticSource, TraceEntry
    from repro.trace.stream import write_trace
    from repro.workloads.suite import load_benchmark

    names = ("compress", "gcc")
    if kind == "mixed":
        return SyntheticSource(
            max_length=MAX_LENGTH, benchmarks=names, mix={"noise": 2.0}
        )
    entries = []
    for name in names:
        trace = load_benchmark(name, 1500, 7)
        path = tmp_path / f"{name}.bpt"
        write_trace(trace, path)
        entries.append(
            TraceEntry(name, trace.digest(), str(path), branches=len(trace))
        )
    return ImportedSource(traces=tuple(entries))


class TestPoolWorkerSources:
    """Pool workers load whole-trace lanes from every source kind."""

    @pytest.mark.parametrize("kind", ["mixed", "imported"])
    def test_pool_run_matches_serial_run(self, tmp_path, kind):
        from repro.spec import EngineOptions, RunSpec

        workload = _pool_source(kind, tmp_path)
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
