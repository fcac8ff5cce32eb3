"""The stable public API facade.

Library users previously imported from deep module paths that moved as
the engine grew (``repro.experiments.base``, ``repro.analysis.runner``,
``repro.workloads.suite``...).  This module is the supported surface:

>>> from repro.api import RunSpec, run_spec, spec_from_kwargs
>>> run = run_spec(spec_from_kwargs(["table2"], max_length=20_000))
>>> print(run.results["table2"])          # rendered artefact
>>> run.manifest["cache"]["hit_ratio"]    # run-level telemetry

Everything here accepts and returns the same objects the CLI uses
(:class:`~repro.analysis.runner.Lab`,
:class:`~repro.analysis.config.LabConfig`,
:class:`~repro.experiments.base.ExperimentResult`), so code written
against the facade and results produced by ``repro report`` are
interchangeable.  The deep paths keep working -- the facade re-exports,
it does not move code.

The execution core is spec-driven: a
:class:`~repro.spec.RunSpec` describes the run, a
:class:`~repro.plan.Plan` expands it into the task graph, and
:func:`run_spec` executes the plan through the instrumented engine --
it counts into metrics registries of its own (one per run, nested
in it one per plan point), traces every stage, primes
exactly the simulations the planned experiments declared, assembles
the schema-versioned run manifest, and hosts the resilience layer
(per-task retries, journal checkpointing, ``resume``, structured
failures).  There is one run path: a plain spec is a one-point plan.
:func:`run_spec` primes every point of a plan in one scheduler pass
(:func:`~repro.analysis.parallel.prime_plan`), then runs each point's
experiments (:func:`_run_point`), all inside one session, tracer and
SIGTERM scope.  :func:`run_sweep` is that path for a swept spec: points
share one pass, cache and journal, and each writes its own manifest.

Execution state has an explicit owner: an :class:`EngineSession` holds
the resolved cache, retry policy, fault injector, journal and warm
:class:`~repro.analysis.parallel.WorkerPool`.  ``run_spec`` builds a
session per call by default; long-lived callers (sweeps do this
internally, and the :mod:`repro.serve` daemon is the reason it exists)
construct one session and pass it to every run, so all of them share
one warm cache, one journal and one pool of warm workers.

Every finished run serialises to one wire envelope:
:meth:`ReportRun.to_dict` / :meth:`PointRun.to_dict` /
:meth:`SweepRun.to_dict` all produce a ``result/v1`` document, and the
same bytes come back from ``repro run``, ``repro sweep``, and the
server's ``GET /v1/runs/{id}``.  (The old ``run_report`` keyword shim
is gone -- build a spec with :func:`repro.spec.spec_from_kwargs` and
execute it with :func:`run_spec`.)
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from repro.analysis.cache import ResultCache, cache_summary
from repro.analysis.config import LabConfig
from repro.analysis.parallel import PrimedPlan, WorkerPool, prime_plan
from repro.analysis.runner import Lab
from repro.errors import (
    AdmissionError,
    EngineError,
    PlanError,
    ReproError,
    SpecError,
    UnknownExperimentError,
)
from repro.experiments.base import (
    EXPERIMENT_IDS,
    EXTENSION_IDS,
    ExperimentResult,
    ReplayedResult,
    build_labs,
    run_experiment,
)
from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.metrics import METRICS, metrics_scope
from repro.obs.tracing import TRACER
from repro.plan import Plan, build_plan
from repro.resilience.faults import FaultInjector
from repro.resilience.journal import RunJournal, spec_run_key
from repro.resilience.retry import RetryPolicy
from repro.spec import (
    EngineOptions,
    ImportedSource,
    RunSpec,
    SweepSpec,
    SyntheticSource,
    TraceEntry,
    spec_from_kwargs,
)
from repro.trace.trace import Trace
from repro.workloads.suite import load_suite

#: Schema tag of the run-result wire envelope (see ``docs/serving.md``).
RESULT_SCHEMA = "result/v1"

__all__ = [
    "EXPERIMENT_IDS",
    "EXTENSION_IDS",
    "RESULT_SCHEMA",
    "AdmissionError",
    "EngineError",
    "EngineOptions",
    "EngineSession",
    "ImportedSource",
    "Lab",
    "LabConfig",
    "Plan",
    "PlanError",
    "PointRun",
    "ReportRun",
    "ReproError",
    "RunSpec",
    "SpecError",
    "SweepRun",
    "SweepSpec",
    "SyntheticSource",
    "TraceEntry",
    "UnknownExperimentError",
    "build_labs",
    "build_plan",
    "generate_suite",
    "run_experiment",
    "run_spec",
    "run_sweep",
    "spec_from_kwargs",
    "write_result",
]


def generate_suite(
    max_length: Optional[int] = None, seed: int = 12345
) -> Dict[str, Trace]:
    """Generate the eight benchmark traces, in paper order.

    A facade alias of :func:`repro.workloads.suite.load_suite` with the
    facade's keyword spelling.
    """
    return load_suite(max_length, run_seed=seed)


@dataclass
class ReportRun:
    """Everything one report run (or one sweep point) produced.

    Attributes:
        results: Experiment id -> result, in run order.
        labs: Benchmark name -> primed :class:`Lab` (reusable for
            follow-up analysis without re-simulating).
        manifest: The schema-versioned run manifest dict (already
            written to disk when ``manifest_out`` was given).
        metrics: The run's metrics -- the counters/gauges/timers its own
            registry counted, so this run's work only.
        spec: The executed single-point :class:`RunSpec` (None only for
            hand-built instances).
    """

    results: Dict[str, ExperimentResult] = field(default_factory=dict)
    labs: Dict[str, Lab] = field(default_factory=dict)
    manifest: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    failures: List[Dict[str, Any]] = field(default_factory=list)
    replayed: List[str] = field(default_factory=list)
    spec: Optional[RunSpec] = None

    @property
    def ok(self) -> bool:
        """True when every task and experiment completed cleanly."""
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        """The ``result/v1`` wire envelope for this run.

        The same envelope -- byte for byte under canonical JSON -- is
        produced by ``repro run --result-out``, by each sweep point,
        and by the server's ``GET /v1/runs/{id}``.  The ``spec`` key
        carries the spec's *identity* section (the digest input), so
        the envelope is independent of which engine executed it.
        """
        return {
            "schema": RESULT_SCHEMA,
            "kind": "report",
            "ok": self.ok,
            "spec": None if self.spec is None else self.spec.identity(),
            "spec_digest": None if self.spec is None else self.spec.digest(),
            "manifest": self.manifest,
            "metrics": self.metrics,
            "failures": list(self.failures),
            "replayed": list(self.replayed),
            "results": {
                experiment_id: {
                    "payload": result.to_dict(),
                    "render": result.render(),
                }
                for experiment_id, result in self.results.items()
            },
        }


@dataclass
class PointRun:
    """One executed sweep point: its coordinates, spec and report."""

    coords: Dict[str, int]
    spec: RunSpec
    report: ReportRun
    manifest_path: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """The ``result/v1`` envelope for this point (kind ``point``)."""
        return {
            "schema": RESULT_SCHEMA,
            "kind": "point",
            "ok": self.report.ok,
            "coords": dict(self.coords),
            "spec_digest": self.spec.digest(),
            "manifest_path": self.manifest_path,
            "report": self.report.to_dict(),
        }


@dataclass
class SweepRun:
    """Everything one :func:`run_sweep` invocation produced.

    Attributes:
        spec: The swept spec as submitted.
        points: One :class:`PointRun` per grid point, in grid order.
        summary: The rendered summary table (also echoed).
        summary_path: Where the JSON summary was written, if anywhere.
        metrics: The whole sweep's metrics (its run registry).
    """

    spec: RunSpec
    points: List[PointRun] = field(default_factory=list)
    summary: str = ""
    summary_path: Optional[str] = None
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every point completed cleanly."""
        return all(point.report.ok for point in self.points)

    def to_dict(self) -> Dict[str, Any]:
        """The ``result/v1`` envelope for this sweep (kind ``sweep``)."""
        return {
            "schema": RESULT_SCHEMA,
            "kind": "sweep",
            "ok": self.ok,
            "spec": self.spec.identity(),
            "spec_digest": self.spec.digest(),
            "summary": self.summary,
            "summary_path": self.summary_path,
            "metrics": self.metrics,
            "points": [point.to_dict() for point in self.points],
        }


def write_result(
    run: Union[ReportRun, "SweepRun", PointRun], path: str
) -> None:
    """Write a run's ``result/v1`` envelope as canonical JSON.

    Canonical means key-sorted with 2-space indent -- the exact bytes
    the server stores and serves, so artefacts written here diff clean
    against ``GET /v1/runs/{id}`` responses.
    """
    _write_json(run.to_dict(), path)


def _install_sigterm_handler():
    """Convert SIGTERM into KeyboardInterrupt for the run's duration.

    A preempted/killed-by-timeout run then unwinds through the same
    cleanup as Ctrl-C: the scheduler reaps its workers and the journal
    keeps every experiment completed so far.  Only possible (and only
    attempted) in the main thread; returns the previous handler, or
    None if nothing was installed.
    """
    if threading.current_thread() is not threading.main_thread():
        return None

    def _handler(signum, frame):
        raise KeyboardInterrupt(f"signal {signum}")

    try:
        return signal.signal(signal.SIGTERM, _handler)
    except (ValueError, OSError):
        return None


@dataclass
class EngineSession:
    """Resolved engine state with an explicit lifecycle.

    A session owns every piece of execution machinery a run needs --
    the result cache, retry policy, fault injector, journal, and a warm
    :class:`WorkerPool` (at one job it never forks) -- resolved once from
    an :class:`EngineOptions` via :meth:`resolve`.  ``run_spec`` makes
    a throwaway session per call when none is passed; a long-lived
    caller (a sweep, the :mod:`repro.serve` daemon) resolves one
    session up front and passes it to every run so they all share the
    same warm cache, journal, and worker processes.  The shared cache
    includes its byte-bounded memo of decoded entries (see
    :mod:`repro.analysis.cache`), so each cache entry is read from disk
    at most once per session while it stays within the memo's bound;
    a throwaway session's memo lasts one run.

    Sessions are context managers; :meth:`close` is idempotent and
    drains the pool and closes the journal.
    """

    options: EngineOptions
    cache: Optional[ResultCache]
    pool: WorkerPool
    policy: RetryPolicy
    injector: Optional[FaultInjector]
    journal: Optional[RunJournal]
    resume: bool
    served_by: Optional[str] = None

    @property
    def jobs(self) -> int:
        return self.pool.jobs

    @classmethod
    def resolve(
        cls,
        options: EngineOptions,
        *,
        served_by: Optional[str] = None,
    ) -> "EngineSession":
        """Resolve options (env fallbacks included) into live state.

        All environment fallback goes through
        :meth:`EngineOptions.resolved` -- there is no other place where
        ``REPRO_CACHE_DIR`` / ``REPRO_JOBS`` / retry / fault variables
        are consulted.  ``served_by`` stamps manifests produced through
        this session (the server passes its instance id).
        """
        resolved = options.resolved()
        return cls(
            options=resolved,
            cache=ResultCache(resolved.cache_dir) if resolved.cache else None,
            pool=WorkerPool(resolved.jobs),
            policy=RetryPolicy.resolve(resolved.retries, resolved.task_timeout),
            injector=FaultInjector.from_spec(resolved.fault_spec),
            journal=(
                RunJournal(resolved.journal, fresh=not resolved.resume)
                if resolved.journal
                else None
            ),
            resume=resolved.resume,
            served_by=served_by,
        )

    def close(self, kill: bool = False) -> None:
        """Drain the pool (terminating its workers if ``kill``) and
        close the journal."""
        self.pool.drain(kill=kill)
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(kill=exc_type is not None)


def _prime(
    plan: Plan, engine: EngineSession, say: Callable[[str], None]
) -> PrimedPlan:
    """The plan's one priming pass on the session's engine state."""
    say("building workload traces...")
    with TRACER.span("build_labs", run_seed=plan.points[0][1].workload.seed):
        return prime_plan(
            plan,
            pool=engine.pool,
            policy=engine.policy,
            cache=engine.cache,
            injector=engine.injector,
            say=say,
        )


def _run_point(
    plan: Plan,
    index: int,
    primed: PrimedPlan,
    finished: Dict[str, ExperimentResult],
    *,
    engine: EngineSession,
    command: Optional[List[str]],
    say: Callable[[str], None],
) -> ReportRun:
    """Execute one plan point over its primed labs.

    This is the body every entry point shares: replay journaled
    experiments under this point's run key, reuse a result an earlier
    point computed from the same inputs (``finished``, keyed by the
    plan's experiment key), run the rest (a failing experiment becomes
    a structured failure, not a traceback), and assemble the manifest
    from the point's metrics registry, which holds the pass's work
    charged to this point and counts the experiments too.  The
    caller owns TRACER lifetime, the SIGTERM handler, the journal's
    close, and all file outputs.
    """
    coords, point_spec = plan.points[index]
    swept = plan.spec.sweep is not None
    failures: List[Dict[str, Any]] = list(primed.failures[index])
    replayed: List[str] = []
    requested = list(dict.fromkeys(point_spec.experiments))
    workload = point_spec.workload
    labs = primed.labs[index]
    # The pass is charged to the first point, which planned most of it.
    build_seconds = primed.seconds if index == 0 else 0.0

    run_start = time.perf_counter()
    point_span = (
        TRACER.span("point", experiments=",".join(requested))
        if swept else contextlib.nullcontext()
    )
    with metrics_scope(primed.metrics[index]) as point_metrics, point_span:
        total = sum(len(lab.trace) for lab in labs.values())
        say(f"  {len(labs)} benchmarks, {total} dynamic branches")
        if engine.cache is not None:
            say(f"  cache: {engine.cache.root} ({cache_summary(point_metrics.snapshot())})")
        say(f"  jobs: {engine.jobs}\n")

        key = spec_run_key(point_spec.input_digest(), labs)
        journaled = (
            engine.journal.load()
            if (engine.journal and engine.resume)
            else {}
        )

        results: Dict[str, ExperimentResult] = {}
        experiment_timings: List[dict] = []
        for experiment_id in requested:
            task = plan.task_by_id(f"p{index}/experiment/{experiment_id}")
            entry = journaled.get((experiment_id, key))
            if entry is not None:
                results[experiment_id] = finished[task.key] = ReplayedResult(
                    entry["payload"], entry["render"]
                )
                experiment_timings.append(
                    {"id": experiment_id, "seconds": 0.0}
                )
                replayed.append(experiment_id)
                METRICS.inc("resilience.replayed")
                say(f"{experiment_id}: replayed from journal\n")
                continue
            result = finished.get(task.key)
            reused = result is not None
            if reused:
                experiment_timings.append(
                    {"id": experiment_id, "seconds": 0.0}
                )
                METRICS.inc("experiments.reused")
            else:
                say(f"running {experiment_id}...")
                experiment_start = time.perf_counter()
                try:
                    result = run_experiment(experiment_id, labs)
                except KeyboardInterrupt:
                    raise
                except Exception as error:
                    METRICS.inc("resilience.experiment_failures")
                    failures.append({
                        "scope": "experiment",
                        "experiment_id": experiment_id,
                        "kind": "error",
                        "message": f"{type(error).__name__}: {error}",
                    })
                    say(
                        f"  {experiment_id} FAILED "
                        f"({type(error).__name__}: {error}); continuing\n"
                    )
                    continue
                experiment_timings.append({
                    "id": experiment_id,
                    "seconds": time.perf_counter() - experiment_start,
                })
                finished[task.key] = result
            results[experiment_id] = result
            if engine.journal is not None:
                engine.journal.record(experiment_id, key, result)
            say(
                f"{experiment_id}: same inputs as an earlier point; reused\n"
                if reused
                else f"\n{result}\n"
            )

    metrics = point_metrics.snapshot()
    manifest = build_manifest(
        command=command,
        config=point_spec.config,
        run_seed=workload.seed,
        max_length=workload.max_length,
        jobs=engine.jobs,
        cache_enabled=engine.cache is not None,
        cache_dir=str(engine.cache.root) if engine.cache is not None else None,
        labs=labs,
        results=results,
        experiment_timings=experiment_timings,
        metrics=metrics,
        timings={
            "build_labs_seconds": build_seconds,
            "total_seconds": build_seconds + time.perf_counter() - run_start,
        },
        resilience={
            "failures": failures,
            "resumed": bool(engine.resume),
            "replayed": replayed,
            "journal": (
                engine.journal.path if engine.journal is not None else None
            ),
        },
        spec_digest=point_spec.digest(),
        sweep=dict(coords) if coords else None,
        served_by=engine.served_by,
        trace_source={"kind": workload.kind, **workload.identity_dict()},
    )
    return ReportRun(
        results=results,
        labs=labs,
        manifest=manifest,
        metrics=metrics,
        failures=failures,
        replayed=replayed,
        spec=point_spec,
    )


def run_spec(
    spec: RunSpec,
    *,
    json_out: Optional[str] = None,
    manifest_out: Optional[str] = None,
    result_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    trace_out: Optional[str] = None,
    manifest_dir: Optional[str] = None,
    summary_out: Optional[str] = None,
    command: Optional[List[str]] = None,
    echo: Optional[Callable[[str], None]] = None,
    engine: Optional[EngineSession] = None,
) -> Union[ReportRun, "SweepRun"]:
    """Execute a :class:`RunSpec` end to end.

    The spec is the single source of truth: what to simulate comes from
    its workload/config/experiments, how to execute from its engine
    options.  A plain spec is a one-point plan; a swept spec runs as
    :func:`run_sweep` does (the ``manifest_dir``/``summary_out``
    arguments apply there; ``json_out`` and ``manifest_out`` apply to
    plain runs).

    Args:
        spec: The run description (see :mod:`repro.spec`).
        json_out: Also export the results as JSON to this path.
        manifest_out: Write the run manifest JSON to this path.
        result_out: Write the ``result/v1`` envelope JSON to this path.
        metrics_out: Write the run's metrics JSON to this path.
        trace_out: Write the run's Chrome-trace span JSON to this path.
        manifest_dir: Sweep runs: directory for per-point manifests.
        summary_out: Sweep runs: path for the JSON summary.
        command: The argv that launched the run, recorded in the
            manifest (None for library use).
        echo: Progress sink (e.g. ``print``); None runs silently.
        engine: A caller-owned :class:`EngineSession` to execute on.
            When given, the spec's engine section is ignored, no
            SIGTERM handler is installed, and the caller keeps the
            session open afterwards (server/sweep mode).  Default None
            resolves a session from ``spec.engine`` and closes it.

    Returns:
        A :class:`ReportRun` (plain spec) or :class:`SweepRun` (swept
        spec).

    Raises:
        UnknownExperimentError: On an unknown experiment id (a
            :class:`SpecError`, so ``except ValueError`` works too).
        SpecError: On a malformed fault spec, or hang faults without a
            task timeout.
    """
    say = echo if echo is not None else (lambda message: None)
    # Planning validates the experiments before any engine state opens.
    plan = build_plan(spec)
    swept = spec.sweep is not None
    owned = engine is None
    if owned:
        engine = EngineSession.resolve(spec.engine)
    if swept:
        stats = plan.stats()
        say(
            f"sweep: {len(plan.points)} points, {stats['total']} planned "
            f"tasks ({stats['deduped']} deduped across points)\n"
        )

    TRACER.reset()
    previous_sigterm = _install_sigterm_handler() if owned else None
    points: List[PointRun] = []
    try:
        root = (
            TRACER.span("sweep", points=str(len(plan.points)))
            if swept
            else TRACER.span("report", experiments=",".join(
                dict.fromkeys(spec.experiments)
            ))
        )
        with metrics_scope() as run_metrics, root:
            primed = _prime(plan, engine, say)
            finished: Dict[str, ExperimentResult] = {}
            for index, (coords, point_spec) in enumerate(plan.points):
                if swept:
                    say(
                        f"=== point {index + 1}/{len(plan.points)}: "
                        f"{_where(coords)} ==="
                    )
                run = _run_point(
                    plan,
                    index,
                    primed,
                    finished,
                    engine=engine,
                    command=command,
                    say=say,
                )
                manifest_path = None
                if swept and manifest_dir:
                    os.makedirs(manifest_dir, exist_ok=True)
                    manifest_path = os.path.join(
                        manifest_dir, _point_manifest_name(index, coords)
                    )
                    write_manifest(run.manifest, manifest_path)
                    say(f"point manifest written to {manifest_path}\n")
                points.append(
                    PointRun(
                        coords=dict(coords),
                        spec=point_spec,
                        report=run,
                        manifest_path=manifest_path,
                    )
                )
    finally:
        # The journal appends durably as each experiment completes, so
        # an interrupt here loses nothing already finished.
        if owned:
            engine.close()
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)

    if swept:
        summary = _sweep_summary_table(spec, points)
        say(summary + "\n")
        summary_path = summary_out
        if summary_path is None and manifest_dir:
            summary_path = os.path.join(manifest_dir, "sweep_summary.json")
        if summary_path:
            _write_json(_sweep_summary(spec, points), summary_path)
            say(f"sweep summary written to {summary_path}")
        result: Union[ReportRun, SweepRun] = SweepRun(
            spec=spec,
            points=points,
            summary=summary,
            summary_path=summary_path,
            metrics=run_metrics.snapshot(),
        )
    else:
        result = points[0].report
        if json_out:
            from repro.experiments.export import export_results

            export_results(result.results, json_out)
            say(f"JSON results written to {json_out}")
        if manifest_out:
            write_manifest(result.manifest, manifest_out)
            say(f"run manifest written to {manifest_out}")
        if result_out:
            write_result(result, result_out)
            say(f"result envelope written to {result_out}")
    if metrics_out:
        _write_json(result.metrics, metrics_out)
        say(f"metrics written to {metrics_out}")
    if trace_out:
        TRACER.write(trace_out)
        say(f"span trace written to {trace_out}")
    if engine.cache is not None:
        say(f"cache: {cache_summary(run_metrics.snapshot())}")
    if swept and result_out:
        write_result(result, result_out)
        say(f"result envelope written to {result_out}")
    if not swept and result.failures:
        say(
            f"run finished with {len(result.failures)} failure(s); see the "
            "manifest's resilience section"
        )
    return result


def run_sweep(
    spec: RunSpec,
    *,
    manifest_dir: Optional[str] = None,
    summary_out: Optional[str] = None,
    result_out: Optional[str] = None,
    metrics_out: Optional[str] = None,
    trace_out: Optional[str] = None,
    command: Optional[List[str]] = None,
    echo: Optional[Callable[[str], None]] = None,
    engine: Optional[EngineSession] = None,
) -> SweepRun:
    """Execute a swept spec point by point over one shared engine.

    One plan is built for the whole grid and primed in one pass, so
    artefacts the sweep's axes don't touch (traces, unaffected
    predictors) are computed once and taken in memory everywhere else,
    and an experiment whose inputs repeat an earlier point's is reused
    -- the cache counters and ``experiments.reused`` in each point's
    manifest show the sharing.  One journal
    (``spec.engine.journal``) checkpoints all points under per-point
    run keys, so ``resume`` finishes a killed sweep bit-identically.

    Args:
        spec: A spec with a non-None ``sweep``.
        manifest_dir: Directory for per-point manifests plus
            ``sweep_summary.json`` (created if missing; None writes no
            files).
        summary_out: Override path for the JSON summary.
        result_out: Write the sweep's ``result/v1`` envelope JSON here.
        metrics_out: Write the whole sweep's metrics JSON here.
        trace_out: Write the whole sweep's Chrome-trace JSON here.
        command: The argv that launched the sweep.
        echo: Progress sink; None runs silently.
        engine: A caller-owned :class:`EngineSession` (see
            :func:`run_spec`); default None resolves one from
            ``spec.engine`` for the sweep's duration.

    Raises:
        SpecError: If the spec has no sweep.
        UnknownExperimentError: On an unknown experiment id.
    """
    if spec.sweep is None:
        raise SpecError("run_sweep requires a spec with a sweep section")
    return run_spec(
        spec,
        manifest_dir=manifest_dir,
        summary_out=summary_out,
        result_out=result_out,
        metrics_out=metrics_out,
        trace_out=trace_out,
        command=command,
        echo=echo,
        engine=engine,
    )


def _where(coords: Dict[str, int]) -> str:
    return (
        ", ".join(f"{k}={v}" for k, v in sorted(coords.items()))
        or "base config"
    )


def _point_manifest_name(index: int, coords: Dict[str, int]) -> str:
    slug = "".join(
        f"_{name}-{value}" for name, value in sorted(coords.items())
    )
    return f"manifest_p{index}{slug}.json"


def _sweep_summary(spec: RunSpec, points: List[PointRun]) -> dict:
    return {
        "schema_version": 1,
        "kind": "repro.sweep_summary",
        "spec_digest": spec.digest(),
        "axes": {name: list(values) for name, values in spec.sweep.axes},
        "points": [
            {
                "coords": dict(point.coords),
                "spec_digest": point.spec.digest(),
                "manifest": point.manifest_path,
                "experiments": sorted(point.report.results),
                "replayed": list(point.report.replayed),
                "failures": len(point.report.failures),
            }
            for point in points
        ],
    }


def _sweep_summary_table(spec: RunSpec, points: List[PointRun]) -> str:
    header = f"{'point':<7}{'coordinates':<40}{'spec digest':<34}{'ok':<4}"
    lines = [
        f"sweep of {len(points)} point(s), spec {spec.digest()}",
        header,
        "-" * len(header),
    ]
    for index, point in enumerate(points):
        ok = "yes" if point.report.ok else f"{len(point.report.failures)}!"
        lines.append(
            f"{index:<7}{_where(point.coords):<40}"
            f"{point.spec.digest():<34}{ok:<4}"
        )
    return "\n".join(lines)


def _write_json(payload: Any, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
