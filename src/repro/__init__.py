"""repro: reproduction of Evers et al., ISCA 1998.

"An Analysis of Correlation and Predictability: What Makes Two-Level
Branch Predictors Work" analysed *why* two-level branch predictors work:
how much branch correlation exists, how little history is needed when an
oracle picks the right branches, and which branches are predictable
per-address, globally, or not at all.

Public API highlights:

* :mod:`repro.trace` -- branch traces (columnar, file-backed).
* :mod:`repro.workloads` -- synthetic SPECint95-analogue benchmarks.
* :mod:`repro.predictors` -- every predictor the paper uses (gshare,
  PAs, interference-free variants, loop/pattern/selective predictors,
  hybrids, static baselines).
* :mod:`repro.correlation` -- instance tagging and oracle selection of
  correlated branches.
* :mod:`repro.classify` -- per-address and global/per-address/static
  branch classification.
* :mod:`repro.analysis` -- the simulation lab (memoised predictor runs,
  per-branch accuracy accounting, percentile curves).
* :mod:`repro.experiments` -- one module per paper table/figure.
* :mod:`repro.obs` -- run-level observability (metrics, span tracing,
  run manifests).
* :mod:`repro.resilience` -- fault-tolerant execution (retries,
  checkpoint/resume journal, deterministic fault injection).
* :mod:`repro.spec` / :mod:`repro.plan` -- declarative run descriptions
  (RunSpec, config sweeps) and the task graphs they expand into.
* :mod:`repro.serve` / :mod:`repro.client` -- analysis as a service: a
  long-lived daemon executing RunSpecs over a versioned HTTP wire API
  with cross-client dedup, plus the matching thin client.
* :mod:`repro.api` -- the stable facade; start here::

      from repro import RunSpec, run_spec
      run = run_spec(RunSpec.from_file("spec.json"))

      from repro import run_spec, spec_from_kwargs   # keyword form
      run = run_spec(spec_from_kwargs(["table2"], max_length=20_000))
"""

__version__ = "1.4.0"

from repro.trace import Trace, TraceBuilder, read_trace, write_trace
from repro.workloads import BENCHMARK_NAMES, load_benchmark, load_suite

# The facade imports the engine, which imports repro.trace/workloads --
# keep this import last so the package is populated enough by the time
# it runs (and so deep-path imports never pay for it implicitly).
from repro.api import (  # noqa: E402
    AdmissionError,
    EngineError,
    EngineOptions,
    EngineSession,
    Lab,
    LabConfig,
    PlanError,
    PointRun,
    ReportRun,
    ReproError,
    RunSpec,
    SpecError,
    SweepRun,
    SweepSpec,
    SyntheticSource,
    UnknownExperimentError,
    build_labs,
    build_plan,
    generate_suite,
    run_experiment,
    run_spec,
    run_sweep,
    spec_from_kwargs,
)

__all__ = [
    "AdmissionError",
    "BENCHMARK_NAMES",
    "EngineError",
    "EngineOptions",
    "EngineSession",
    "Lab",
    "LabConfig",
    "PlanError",
    "PointRun",
    "ReportRun",
    "ReproError",
    "RunSpec",
    "SpecError",
    "SweepRun",
    "SweepSpec",
    "SyntheticSource",
    "Trace",
    "TraceBuilder",
    "UnknownExperimentError",
    "__version__",
    "build_labs",
    "build_plan",
    "generate_suite",
    "load_benchmark",
    "load_suite",
    "read_trace",
    "run_experiment",
    "run_spec",
    "run_sweep",
    "spec_from_kwargs",
    "write_trace",
]
