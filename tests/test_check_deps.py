"""Runtime guards for the two sharing declarations (DS001-DS005).

Experiments share simulations through ``@register(..., requires=,
windows=)``, and tasks share cache entries through the
``TASK_CONFIG_FIELDS`` projection.  Both are checked by running code:

====== ======= ========================================================
DS001  error   an experiment reads a task (or oracle window) it does
               not declare: the plan never primes it.
DS002  warning an experiment declares a task (or window) it never
               reads: every plan schedules phantom work.
DS003  error   ``requires=`` names an unplannable task:
               :func:`repro.plan.build_plan` raises ``PlanError``.
DS004  error   a factory reads a field its projection omits: the build
               raises ``AttributeError``, because every task is built
               from a :class:`~repro.analysis.config.ProjectedConfig`.
DS005  warning a projection lists a field its build never reads: sweep
               points that could share an entry recompute it.
====== ======= ========================================================

Reads are recorded at the :class:`Lab`'s public methods, before the
memo, so a product an experiment gets from the memo still counts.  A
recording config also lists the LabConfig fields a paper experiment
reads, which must lie inside its reuse key
(:func:`~repro.experiments.base.experiment_config_fields`): sweep
points that agree on that key share one result.
"""

import inspect
from typing import Set

import pytest

import repro.analysis.config as config_module
from repro.analysis.config import (
    DEFAULT_CONFIG,
    TASK_CONFIG_FIELDS,
    ProjectedConfig,
    build_task,
    task_config_fields,
)
from repro.analysis.runner import CORRELATION_TASK, DEFAULT_TASKS, Lab, compute_task
from repro.analysis.streamed import task_predictor
from repro.check.diagnostics import ERROR, WARNING, Diagnostic, format_diagnostics
from repro.experiments import base
from repro.experiments.base import (
    EXPERIMENT_IDS,
    build_labs,
    experiment_config_fields,
    experiment_ids,
    experiment_requires,
    experiment_windows,
)
from repro.plan import PlanError, build_plan
from repro.spec import RunSpec, SyntheticSource

#: Lab's public methods that read no task product.
NON_PRODUCT_METHODS = {
    "available_predictors", "fold_cached", "is_primed",
    "stats", "store", "take",
}


class RecordingConfig:
    """A LabConfig that records each field read through it."""

    def __init__(self, config) -> None:
        self._config = config
        self.reads: Set[str] = set()

    def __getattr__(self, name):
        value = getattr(self._config, name)
        self.reads.add(name)
        return value


class RecordingLab(Lab):
    """A cache-less lab that records each product read at its public methods."""

    def __init__(self, trace, config=DEFAULT_CONFIG) -> None:
        super().__init__(trace, config)
        self.tasks: Set[str] = set()
        self.windows: Set[int] = set()

    def _oracle(self, window) -> None:
        self.tasks.add(CORRELATION_TASK)
        self.windows.add(self.config.selective_window if window is None else window)

    def correct(self, name):
        self.tasks.add(name)
        return super().correct(name)

    def accuracy(self, name):
        self.tasks.add(name)
        return super().accuracy(name)

    def correlation_data(self):
        self.tasks.add(CORRELATION_TASK)
        return super().correlation_data()

    def selections(self, count, window=None):
        self._oracle(window)
        return super().selections(count, window)

    def selective_correct(self, count, window=None):
        self._oracle(window)
        return super().selective_correct(count, window)

    def selective_accuracy(self, count, window=None):
        self._oracle(window)
        return super().selective_accuracy(count, window)


def audit_requires(experiment_id, runner, requires, windows, traces):
    """DS001/DS002 findings of one runner, run on fresh recording labs."""
    labs = {name: RecordingLab(trace) for name, trace in traces.items()}
    runner(labs)
    tasks = set().union(*(lab.tasks for lab in labs.values()))
    default = {DEFAULT_CONFIG.selective_window}
    read_windows = set().union(*(lab.windows for lab in labs.values())) - default
    declared_windows = set(windows) - default
    location = f"{inspect.getsourcefile(runner)}:{runner.__code__.co_firstlineno}"
    findings = []

    def report(code, severity, message):
        findings.append(Diagnostic(
            code=code, severity=severity,
            message=f"experiment {experiment_id!r} {message}", location=location,
        ))

    for task in sorted(tasks - set(requires)):
        report("DS001", ERROR, f"reads task {task!r}, which requires= omits")
    for task in sorted(set(requires) - tasks):
        report("DS002", WARNING, f"declares task {task!r} but never reads it")
    for window in sorted(read_windows - declared_windows):
        report("DS001", ERROR, f"reads oracle window {window}, which windows= omits")
    for window in sorted(declared_windows - read_windows):
        report("DS002", WARNING, f"declares oracle window {window} but never reads it")
    return findings


def audit_projections():
    """DS004/DS005 findings of every task's build from its projection."""
    findings = []
    # One member of the selective family stands for all of them.
    for task in (*TASK_CONFIG_FIELDS, "selective_3_16"):
        view = ProjectedConfig(DEFAULT_CONFIG, task)
        try:
            view.build()
        except AttributeError as error:
            findings.append(Diagnostic("DS004", ERROR, str(error), task))
            continue
        read = set(view.reads)
        if task.startswith("selective_"):
            # Selective products are fitted on the correlation table.
            read |= set(task_config_fields(CORRELATION_TASK))
        for field in task_config_fields(task):
            if field not in read:
                findings.append(Diagnostic(
                    "DS005", WARNING,
                    f"task {task!r} projects {field}, which its build never reads",
                    task,
                ))
    return findings


def plant_stale_projections(patch):
    """gshare forgets a field it reads; loop lists one it never reads."""
    patch.setitem(TASK_CONFIG_FIELDS, "gshare", ("gshare_history_bits",))
    patch.setitem(TASK_CONFIG_FIELDS, "loop", ("pas_history_bits",))


def codes(diagnostics):
    return [diag.code for diag in diagnostics]


def by_code(diagnostics, code):
    return [diag for diag in diagnostics if diag.code == code]


@pytest.fixture(scope="module")
def traces():
    """The eight-benchmark suite at 2,000 branches, no cache."""
    return {name: lab.trace for name, lab in build_labs(max_length=2000).items()}


# -- planted runners: test-local, never registered ---------------------------


def _helper_reads_pas(lab):
    return lab.correct("pas")


def run_undeclared(labs):
    """DS001 x2: reads pas through a helper and correlation through
    selective_correct, declares neither."""
    return {
        name: (lab.accuracy("gshare"), _helper_reads_pas(lab), lab.selective_correct(3))
        for name, lab in labs.items()
    }


def run_phantom(labs):
    """DS002: declares loop but never reads it."""
    return {name: lab.accuracy("gshare") for name, lab in labs.items()}


def run_window(labs):
    """DS001 + DS002: reads window 24, declares window 20."""
    return {name: lab.selective_accuracy(3, window=24) for name, lab in labs.items()}


def run_unknown(labs):
    """DS003: a typo'd task name the plan can never prime."""
    return {name: lab.trace for name, lab in labs.items()}


def run_clean(labs):
    """Control: a sound declaration stays silent."""
    return {name: lab.correct("if_gshare") for name, lab in labs.items()}


PLANTED = {
    "fx_undeclared": (run_undeclared, ("gshare",), ()),
    "fx_phantom": (run_phantom, ("gshare", "loop"), ()),
    "fx_window": (run_window, ("correlation",), (20,)),
    "fx_clean": (run_clean, ("if_gshare",), ()),
}


class TestRealTreeIsClean:
    """The shipped experiments and projections pass their own audit."""

    def test_requires_pass_clean(self, traces):
        findings = []
        for experiment_id in experiment_ids():
            findings += audit_requires(
                experiment_id,
                base._REGISTRY[experiment_id],
                experiment_requires(experiment_id),
                experiment_windows(experiment_id),
                traces,
            )
        assert findings == [], format_diagnostics(findings)

    def test_projection_pass_clean(self):
        findings = audit_projections()
        assert findings == [], format_diagnostics(findings)

    def test_combined_pass_clean(self):
        spec = RunSpec(
            experiments=experiment_ids(),
            workload=SyntheticSource(max_length=2000, seed=7),
        )
        planned = build_plan(spec).sim_task_names(0)
        assert set(planned) == {
            task for eid in experiment_ids() for task in experiment_requires(eid)
        }

    def test_paper_experiments_read_only_their_reuse_key(self, traces):
        for experiment_id in EXPERIMENT_IDS:
            config = RecordingConfig(DEFAULT_CONFIG)
            labs = {name: RecordingLab(trace, config) for name, trace in traces.items()}
            base._REGISTRY[experiment_id](labs)
            key = set(experiment_config_fields(experiment_id))
            assert config.reads <= key, (experiment_id, config.reads - key)
            assert bool(config.reads) == bool(experiment_requires(experiment_id))

    def test_recorder_covers_every_public_lab_method(self):
        public = {name for name in vars(Lab) if not name.startswith("_")}
        recorded = {name for name in vars(RecordingLab) if not name.startswith("_")}
        assert public == recorded | NON_PRODUCT_METHODS


class TestSeededRequiresDefects:
    """Each planted declaration defect produces its exact DS code."""

    @pytest.fixture(scope="class")
    def diagnostics(self, traces):
        two = {name: traces[name] for name in ("compress", "gcc")}
        findings = []
        for experiment_id, (runner, requires, windows) in PLANTED.items():
            findings += audit_requires(experiment_id, runner, requires, windows, two)
        return findings

    def test_exact_code_multiset(self, diagnostics):
        assert sorted(codes(diagnostics)) == [
            "DS001", "DS001", "DS001", "DS002", "DS002",
        ]

    def test_ds001_undeclared_helper_consumption(self, diagnostics):
        found = [d for d in by_code(diagnostics, "DS001") if "fx_undeclared" in d.message]
        assert {d.message.split("'")[3] for d in found} == {"pas", "correlation"}
        assert all(d.severity == ERROR for d in found)

    def test_ds001_selective_access_maps_to_correlation(self, diagnostics):
        (correlation,) = [
            d for d in by_code(diagnostics, "DS001") if "'correlation'" in d.message
        ]
        assert "fx_undeclared" in correlation.message

    def test_ds001_and_ds002_cover_oracle_windows(self, diagnostics):
        windows = [d for d in diagnostics if "fx_window" in d.message]
        assert [(d.code, d.severity) for d in windows] == [
            ("DS001", ERROR), ("DS002", WARNING),
        ]
        assert "window 24" in windows[0].message
        assert "window 20" in windows[1].message

    def test_ds002_phantom_declaration_is_warning(self, diagnostics):
        (phantom,) = [d for d in by_code(diagnostics, "DS002") if "fx_phantom" in d.message]
        assert phantom.severity == WARNING
        assert "'loop'" in phantom.message

    def test_ds003_unknown_task_name(self, monkeypatch):
        monkeypatch.setitem(base._REGISTRY, "fx_unknown", run_unknown)
        monkeypatch.setitem(base._REQUIRES, "fx_unknown", ("gshar",))
        monkeypatch.setitem(base._WINDOWS, "fx_unknown", ())
        spec = RunSpec(
            experiments=("fx_unknown",),
            workload=SyntheticSource(max_length=2000, seed=7),
        )
        with pytest.raises(PlanError) as excinfo:
            build_plan(spec)
        assert "'gshar'" in str(excinfo.value)
        assert "correlation" in str(excinfo.value)  # the selective hint

    def test_clean_runner_stays_silent(self, diagnostics):
        assert not any("fx_clean" in diag.message for diag in diagnostics)

    def test_locations_point_into_the_fixture(self, diagnostics):
        lines = {
            runner.__code__.co_firstlineno for runner, _, _ in PLANTED.values()
        }
        for diag in diagnostics:
            path, _, line = diag.location.rpartition(":")
            assert path == inspect.getsourcefile(run_undeclared)
            assert int(line) in lines


class TestSeededProjectionDefects:
    """Stale TASK_CONFIG_FIELDS entries produce DS004/DS005."""

    @pytest.fixture(scope="class")
    def diagnostics(self):
        with pytest.MonkeyPatch.context() as patch:
            plant_stale_projections(patch)
            return audit_projections()

    def test_exact_code_multiset(self, diagnostics):
        assert sorted(codes(diagnostics)) == ["DS004", "DS005"]

    def test_ds004_missing_read_field_is_error(self, diagnostics, traces, monkeypatch):
        (missing,) = by_code(diagnostics, "DS004")
        assert missing.severity == ERROR
        assert "'gshare'" in missing.message
        assert "gshare_pht_bits" in missing.message
        # Every run path fails on its first build, before any result is
        # computed or cached under the stale key.
        plant_stale_projections(monkeypatch)
        trace = traces["compress"]
        for build in (
            lambda: compute_task(trace, DEFAULT_CONFIG, "gshare"),
            lambda: Lab(trace).correct("gshare"),
            lambda: task_predictor(DEFAULT_CONFIG, "gshare"),
        ):
            with pytest.raises(AttributeError, match="gshare_pht_bits"):
                build()

    def test_ds004_selective_builds_from_the_projection(self, traces, monkeypatch):
        monkeypatch.setattr(config_module, "_SELECTIVE_FIELDS", ("collection_window",))
        lab = Lab(traces["compress"])
        with pytest.raises(AttributeError, match="selective_top_k"):
            lab.selections(3)
        with pytest.raises(AttributeError, match="selective_top_k"):
            lab.selective_correct(1, window=8)

    def test_ds005_unread_field_is_warning(self, diagnostics):
        (unread,) = by_code(diagnostics, "DS005")
        assert unread.severity == WARNING
        assert "'loop'" in unread.message
        assert "pas_history_bits" in unread.message


class TestMissingTaskTable:
    """A task without a factory is reported on its build, never skipped."""

    def test_projection_pass_reports_missing_factories_and_compute(self, traces):
        with pytest.raises(KeyError, match="mystery"):
            build_task("mystery", DEFAULT_CONFIG)
        with pytest.raises(KeyError, match="mystery"):
            compute_task(traces["compress"], DEFAULT_CONFIG, "mystery")

    def test_default_table_is_the_labs_module(self):
        import repro.analysis.runner as runner

        assert "DEFAULT_TASKS" in vars(runner)
        assert "compute_task" in vars(runner)
        assert Lab(None).available_predictors() == tuple(
            task for task in DEFAULT_TASKS if task != CORRELATION_TASK
        )

