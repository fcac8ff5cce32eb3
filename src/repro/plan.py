"""Plan: the explicit task graph a :class:`~repro.spec.RunSpec` implies.

A spec says *what* to compute; a plan says *which tasks* that takes.
:func:`build_plan` expands a spec -- every sweep point included -- into
a DAG of four task kinds:

``trace``
    Generate one benchmark trace (name, scale anchor, seed).
``sim``
    Simulate one predictor task over one trace.  Only the tasks the
    point's experiments declared via ``register(..., requires=)`` are
    planned; experiments without a declaration conservatively pull the
    full default set.
``experiment``
    Run one registered experiment over the point's primed labs.
``render``
    Materialise one point's report/manifest from its experiment
    results.

Tasks carry content keys -- the same digests the result cache and
journal use -- and the planner dedupes by them *across sweep points*:
a trace is generated once per (name, length, seed) no matter how many
points share it, and a sim whose config projection
(:func:`repro.analysis.config.task_config_key`) is unaffected by the
swept fields collapses onto the first point's task.  A paper
experiment is keyed by its inputs the same way -- its traces and the
config fields its declared tasks read
(:func:`repro.experiments.base.experiment_config_fields`) -- so a point
whose experiment inputs repeat an earlier point's reuses that result.
The deduped task records its ``deduped_from`` so tooling can show
where the sharing happens.

The executor (:func:`repro.api.run_spec`) runs the plan's graph: one
scheduler pass (:func:`repro.analysis.parallel.prime_plan`) takes every
non-deduped ``trace`` and ``sim`` task of every point as a lane -- sims
start once their trace is in -- and hands each point's labs the shared
results in memory.  The points then run their experiments in grid
order, an experiment task with ``deduped_from`` taking the earlier
point's result.  ``repro plan spec.json`` prints :meth:`Plan.describe`
without executing anything.

Every sim task is one whole-trace job: a run holds each trace whole,
because the paper's baselines are defined over the whole run.
Bounded-memory accuracy over a windowed trace file is
:func:`~repro.analysis.streamed.stream_report`'s job, outside the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.config import task_config_key
from repro.errors import PlanError, UnknownExperimentError
from repro.spec import RunSpec

#: Task kinds in dependency order.
TASK_KINDS = ("trace", "sim", "experiment", "render")

# PlanError (re-exported here for its historical import path) is raised
# by :func:`build_plan` when an experiment's ``requires=`` declaration
# names a task outside the plannable set (DS003, planted in
# tests/test_check_deps.py).  Without this the bad name survives until a
# worker's ``compute_task`` raises ``KeyError`` mid-run (or never, if
# the point is cache-hit).
__all__ = ["Plan", "PlanError", "PlanTask", "TASK_KINDS", "build_plan"]


@dataclass(frozen=True)
class PlanTask:
    """One node of the plan DAG.

    Attributes:
        id: Unique within the plan (``p0/sim/gcc/gshare``).
        kind: One of :data:`TASK_KINDS`.
        point: Index of the sweep point this task belongs to (0 for a
            plain run).
        key: Content key; two tasks with equal keys compute the same
            artefact (the dedup criterion).
        deps: Ids of tasks that must complete first.
        benchmark: Benchmark name (trace/sim tasks).
        task: Simulation task name (sim tasks).
        experiment_id: Experiment id (experiment tasks).
        deduped_from: Id of the earlier task this one shares its
            artefact with, or None if it is the first of its key.
    """

    id: str
    kind: str
    point: int
    key: str
    deps: Tuple[str, ...] = ()
    benchmark: Optional[str] = None
    task: Optional[str] = None
    experiment_id: Optional[str] = None
    deduped_from: Optional[str] = None


@dataclass(frozen=True)
class Plan:
    """The full task graph for a spec, points expanded in grid order."""

    spec: RunSpec
    points: Tuple[Tuple[Dict[str, int], RunSpec], ...]
    tasks: Tuple[PlanTask, ...]
    _by_id: Dict[str, PlanTask] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self):
        object.__setattr__(
            self, "_by_id", {task.id: task for task in self.tasks}
        )

    def task_by_id(self, task_id: str) -> PlanTask:
        return self._by_id[task_id]

    def point_tasks(self, point: int) -> List[PlanTask]:
        return [task for task in self.tasks if task.point == point]

    def sim_task_names(self, point: int) -> Tuple[str, ...]:
        """Simulation task names point ``point`` needs, in plan order.

        Includes deduped tasks: the point still *needs* the artefact,
        it just takes it from the point that computed it.
        """
        return tuple(dict.fromkeys(
            task.task
            for task in self.tasks
            if task.kind == "sim" and task.point == point
        ))

    def stats(self) -> Dict[str, int]:
        """Task counts per kind, plus how many were deduped away."""
        counts = {kind: 0 for kind in TASK_KINDS}
        deduped = 0
        for task in self.tasks:
            counts[task.kind] += 1
            if task.deduped_from is not None:
                deduped += 1
        counts["total"] = len(self.tasks)
        counts["deduped"] = deduped
        return counts

    def describe(self) -> str:
        """A human-readable dump of the graph (``repro plan``)."""
        lines = []
        stats = self.stats()
        lines.append(
            f"plan for spec {self.spec.digest()}: "
            f"{len(self.points)} point(s), {stats['total']} tasks "
            f"({stats['trace']} trace, {stats['sim']} sim, "
            f"{stats['experiment']} experiment, {stats['render']} render; "
            f"{stats['deduped']} deduped)"
        )
        for index, (coords, point_spec) in enumerate(self.points):
            where = (
                ", ".join(f"{k}={v}" for k, v in sorted(coords.items()))
                or "base config"
            )
            lines.append(
                f"  point {index} [{where}] spec {point_spec.digest()}"
            )
            for task in self.point_tasks(index):
                suffix = (
                    f"  (dedup -> {task.deduped_from})"
                    if task.deduped_from
                    else ""
                )
                deps = f"  deps={len(task.deps)}" if task.deps else ""
                lines.append(f"    {task.kind:<10} {task.id}{deps}{suffix}")
        return "\n".join(lines)


def build_plan(spec: RunSpec) -> Plan:
    """Expand a spec into its deduped task graph.

    Expansion is deterministic: benchmarks in suite order, simulation
    tasks in default-scheduler order, experiments in spec order, points
    in grid order.  Dedup is by content key, first occurrence wins.

    Raises:
        UnknownExperimentError: If the spec names an unregistered
            experiment.
        PlanError: If a named experiment's ``requires=`` declaration
            contains a task outside :data:`DEFAULT_TASKS` (nothing
            could ever prime it), or a point's ``collection_window`` is
            shallower than a history window an experiment sweeps.
    """
    from repro.analysis.runner import DEFAULT_TASKS
    from repro.experiments.base import (
        experiment_config_fields,
        experiment_requires,
        experiment_windows,
    )

    for experiment_id in spec.experiments:
        try:
            required = experiment_requires(experiment_id)
        except KeyError as error:
            raise UnknownExperimentError(error.args[0]) from None
        bad = [name for name in required if name not in DEFAULT_TASKS]
        if bad:
            raise PlanError(
                f"experiment {experiment_id!r} declares requires= task(s) "
                f"{', '.join(map(repr, sorted(bad)))} outside the "
                f"plannable set ({', '.join(DEFAULT_TASKS)}); selective "
                "products are derived from 'correlation' -- declare that "
                "instead"
            )

    points = tuple(spec.expand_points())
    benchmarks = spec.workload.trace_names()
    tasks: List[PlanTask] = []
    first_by_key: Dict[str, str] = {}

    def add(task: PlanTask) -> PlanTask:
        if task.key in first_by_key and task.deduped_from is None:
            task = PlanTask(
                **{**task.__dict__, "deduped_from": first_by_key[task.key]}
            )
        first_by_key.setdefault(task.key, task.id)
        tasks.append(task)
        return task

    for index, (coords, point_spec) in enumerate(points):
        prefix = f"p{index}"
        workload = point_spec.workload
        # Every task the point's experiments declared, ordered like the
        # scheduler's default set (unknown/selective names keep their
        # declaration order at the end).
        needed: List[str] = []
        collection = point_spec.config.collection_window
        for experiment_id in point_spec.experiments:
            for name in experiment_requires(experiment_id):
                if name not in needed:
                    needed.append(name)
            if max(experiment_windows(experiment_id), default=0) > collection:
                raise PlanError(
                    f"config.collection_window: {collection} is shallower than "
                    f"the windows {experiment_id!r} sweeps"
                )
        needed.sort(
            key=lambda name: (
                DEFAULT_TASKS.index(name)
                if name in DEFAULT_TASKS
                else len(DEFAULT_TASKS)
            )
        )

        # Per-point source identity: "" keeps the legacy key bytes (the
        # dedup anchor across mix-swept points whose mix does not touch
        # this benchmark); a mix signature or a content digest forks it.
        def source_key(name: str) -> str:
            identity = workload.trace_identity(name)
            if workload.kind == "imported":
                return f"{name}|{identity}"
            base = f"{name}|{workload.max_length}|{workload.seed}"
            return f"{base}|{identity}" if identity else base

        trace_ids = {}
        for name in benchmarks:
            trace_key = f"trace|{source_key(name)}"
            task = add(
                PlanTask(
                    id=f"{prefix}/trace/{name}",
                    kind="trace",
                    point=index,
                    key=trace_key,
                    benchmark=name,
                )
            )
            trace_ids[name] = task.id

        sims: List[PlanTask] = []
        for task_name in needed:
            for name in benchmarks:
                sims.append(
                    add(
                        PlanTask(
                            id=f"{prefix}/sim/{name}/{task_name}",
                            kind="sim",
                            point=index,
                            key=(
                                f"sim|{source_key(name)}|"
                                f"{task_config_key(task_name, point_spec.config)}"
                            ),
                            deps=(trace_ids[name],),
                            benchmark=name,
                            task=task_name,
                        )
                    )
                )

        sources = ";".join(source_key(name) for name in benchmarks)
        experiment_ids = []
        for experiment_id in point_spec.experiments:
            required = experiment_requires(experiment_id)
            deps = tuple(
                sim.id for sim in sims if sim.task in required
            ) or tuple(trace_ids.values())
            # A paper experiment is a function of its traces and the
            # config fields it reads, so points that agree on those share
            # it; any other experiment is keyed by the whole point.
            fields = experiment_config_fields(experiment_id)
            inputs = (
                point_spec.digest()
                if fields is None
                else sources + "|" + ", ".join(
                    f"{name}={getattr(point_spec.config, name)}"
                    for name in fields
                )
            )
            task = add(
                PlanTask(
                    id=f"{prefix}/experiment/{experiment_id}",
                    kind="experiment",
                    point=index,
                    key=f"experiment|{experiment_id}|{inputs}",
                    deps=deps,
                    experiment_id=experiment_id,
                )
            )
            experiment_ids.append(task.id)

        add(
            PlanTask(
                id=f"{prefix}/render",
                kind="render",
                point=index,
                key=f"render|{point_spec.digest()}",
                deps=tuple(experiment_ids),
            )
        )

    return Plan(spec=spec, points=points, tasks=tuple(tasks))

