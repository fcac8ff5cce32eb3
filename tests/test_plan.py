"""Tests for the task-graph planner (repro.plan)."""

import pytest

from repro.analysis.config import LabConfig
from repro.plan import Plan, PlanError, PlanTask, build_plan
from repro.spec import RunSpec, SweepSpec, SyntheticSource
from repro.workloads.suite import BENCHMARK_NAMES


def fig9_spec(**overrides) -> RunSpec:
    defaults = dict(
        experiments=("fig9",),
        workload=SyntheticSource(max_length=2000, seed=7),
    )
    defaults.update(overrides)
    return RunSpec(**defaults)


class TestPlainPlan:
    def test_one_trace_task_per_benchmark(self):
        plan = build_plan(fig9_spec())
        traces = [t for t in plan.tasks if t.kind == "trace"]
        assert [t.benchmark for t in traces] == BENCHMARK_NAMES
        assert all(t.point == 0 for t in traces)

    def test_only_declared_sims_are_planned(self):
        # fig9 declares requires=("gshare", "pas").
        plan = build_plan(fig9_spec())
        assert plan.sim_task_names(0) == ("gshare", "pas")
        sims = [t for t in plan.tasks if t.kind == "sim"]
        assert len(sims) == 2 * len(BENCHMARK_NAMES)

    def test_sim_depends_on_its_trace(self):
        plan = build_plan(fig9_spec())
        for task in plan.tasks:
            if task.kind == "sim":
                assert task.deps == (f"p0/trace/{task.benchmark}",)

    def test_experiment_depends_on_required_sims(self):
        plan = build_plan(fig9_spec())
        experiment = plan.task_by_id("p0/experiment/fig9")
        assert experiment.experiment_id == "fig9"
        assert len(experiment.deps) == 2 * len(BENCHMARK_NAMES)
        assert {plan.task_by_id(dep).task for dep in experiment.deps} == {
            "gshare",
            "pas",
        }

    def test_statistics_only_experiment_falls_back_to_traces(self):
        # table1 requires no simulations; its deps are the traces.
        plan = build_plan(fig9_spec(experiments=("table1",)))
        assert plan.sim_task_names(0) == ()
        experiment = plan.task_by_id("p0/experiment/table1")
        assert all("/trace/" in dep for dep in experiment.deps)

    def test_render_closes_the_graph(self):
        plan = build_plan(fig9_spec(experiments=("table1", "fig9")))
        render = plan.task_by_id("p0/render")
        assert render.deps == (
            "p0/experiment/table1",
            "p0/experiment/fig9",
        )

    def test_benchmark_subset_is_honoured(self):
        spec = fig9_spec(
            workload=SyntheticSource(
                max_length=2000, seed=7, benchmarks=("gcc", "compress")
            )
        )
        plan = build_plan(spec)
        traces = [t for t in plan.tasks if t.kind == "trace"]
        assert [t.benchmark for t in traces] == ["gcc", "compress"]

    def test_unknown_experiment_raises(self):
        from repro.errors import UnknownExperimentError

        with pytest.raises(UnknownExperimentError, match="fig99"):
            build_plan(fig9_spec(experiments=("fig99",)))

    def test_no_dedup_within_a_single_point(self):
        plan = build_plan(fig9_spec())
        assert plan.stats()["deduped"] == 0


class TestSweepPlan:
    def sweep_spec(self):
        return fig9_spec(
            sweep=SweepSpec(axes=(("gshare_history_bits", (8, 12)),))
        )

    def test_traces_dedupe_across_points(self):
        plan = build_plan(self.sweep_spec())
        point1_traces = [
            t for t in plan.tasks if t.kind == "trace" and t.point == 1
        ]
        assert point1_traces, "point 1 must still list its traces"
        for task in point1_traces:
            assert task.deduped_from == f"p0/trace/{task.benchmark}"

    def test_unaffected_sims_dedupe_affected_do_not(self):
        # The axis resizes gshare only; pas artefacts are shared.
        plan = build_plan(self.sweep_spec())
        for task in plan.tasks:
            if task.kind != "sim" or task.point != 1:
                continue
            if task.task == "pas":
                assert task.deduped_from == f"p0/sim/{task.benchmark}/pas"
            else:
                assert task.task == "gshare"
                assert task.deduped_from is None

    def test_experiments_rerun_per_point(self):
        plan = build_plan(self.sweep_spec())
        experiments = [t for t in plan.tasks if t.kind == "experiment"]
        assert len(experiments) == 2
        assert all(t.deduped_from is None for t in experiments)
        assert experiments[0].key != experiments[1].key

    def test_deduped_points_still_need_their_sims(self):
        plan = build_plan(self.sweep_spec())
        assert plan.sim_task_names(0) == ("gshare", "pas")
        assert plan.sim_task_names(1) == ("gshare", "pas")

    def test_stats_count_the_sharing(self):
        plan = build_plan(self.sweep_spec())
        stats = plan.stats()
        benchmarks = len(BENCHMARK_NAMES)
        assert stats["trace"] == 2 * benchmarks
        assert stats["sim"] == 4 * benchmarks
        assert stats["experiment"] == 2
        assert stats["render"] == 2
        # Point 1 shares every trace and every pas sim with point 0.
        assert stats["deduped"] == 2 * benchmarks
        assert stats["total"] == sum(
            stats[kind] for kind in ("trace", "sim", "experiment", "render")
        )

    def test_describe_shows_points_and_dedup(self):
        plan = build_plan(self.sweep_spec())
        text = plan.describe()
        assert "2 point(s)" in text
        assert "gshare_history_bits=8" in text
        assert "gshare_history_bits=12" in text
        assert "dedup ->" in text


class TestPlanLookup:
    def test_task_by_id(self):
        plan = build_plan(fig9_spec())
        task = plan.task_by_id("p0/sim/gcc/gshare")
        assert isinstance(task, PlanTask)
        assert task.benchmark == "gcc"
        assert task.task == "gshare"

    def test_point_tasks_partition_the_plan(self):
        plan = build_plan(
            fig9_spec(
                sweep=SweepSpec(axes=(("gshare_history_bits", (8, 12)),))
            )
        )
        assert isinstance(plan, Plan)
        both = plan.point_tasks(0) + plan.point_tasks(1)
        assert len(both) == len(plan.tasks)


class TestRequiresValidation:
    """build_plan fails fast on unplannable requires= declarations."""

    def test_unknown_required_task_raises_plan_error(self):
        from repro.experiments import base

        @base.register("test-bad-requires", requires=("gshar", "gshare"))
        def bad(labs):
            return None

        try:
            with pytest.raises(PlanError) as excinfo:
                build_plan(fig9_spec(experiments=("test-bad-requires",)))
            message = str(excinfo.value)
            assert "test-bad-requires" in message
            assert "'gshar'" in message
            assert "'gshare'" not in message.split("plannable set")[0]
            assert "correlation" in message  # the selective hint
        finally:
            base._REGISTRY.pop("test-bad-requires", None)
            base._REQUIRES.pop("test-bad-requires", None)

    def test_plan_error_is_a_value_error(self):
        assert issubclass(PlanError, ValueError)

    def test_sound_declarations_still_plan(self):
        assert isinstance(build_plan(fig9_spec()), Plan)

    def test_fig5_needs_a_collection_window_as_deep_as_its_sweep(self):
        config = LabConfig(collection_window=16)
        with pytest.raises(PlanError, match=r"config\.collection_window") as info:
            build_plan(fig9_spec(experiments=("fig5",), config=config))
        assert "fig5" in str(info.value)
        assert info.value.exit_code == 2
        assert isinstance(
            build_plan(fig9_spec(experiments=("fig9",), config=config)), Plan
        )

    def test_shallow_collection_on_one_sweep_point_fails_the_plan(self):
        spec = fig9_spec(
            experiments=("fig5",),
            sweep=SweepSpec(axes=(("collection_window", (32, 24)),)),
        )
        with pytest.raises(PlanError, match="collection_window: 24"):
            build_plan(spec)


class TestMixAxisPlan:
    """Workload-mix sweep axes: trace tasks key on the effective mix."""

    def test_mix_point_gets_its_own_trace_tasks(self):
        spec = fig9_spec(sweep=SweepSpec(axes=(("mix.noise", (1, 2)),)))
        plan = build_plan(spec)
        point0 = [t for t in plan.tasks if t.kind == "trace" and t.point == 0]
        point1 = [t for t in plan.tasks if t.kind == "trace" and t.point == 1]
        # Weight 1 is the identity: point 0 keeps the legacy keys.
        for task in point0:
            assert "mix=" not in task.key
            assert task.deduped_from is None
        # Weight 2 regenerates: distinct keys, no dedup against point 0.
        for task in point1:
            assert "mix=noise=2" in task.key
            assert task.deduped_from is None

    def test_identity_mix_point_keeps_legacy_keys(self):
        swept = build_plan(
            fig9_spec(sweep=SweepSpec(axes=(("mix.noise", (1,)),)))
        )
        plain = build_plan(fig9_spec())
        swept_keys = {t.key for t in swept.tasks if t.kind == "trace"}
        plain_keys = {t.key for t in plain.tasks if t.kind == "trace"}
        assert swept_keys == plain_keys

    def test_unchanged_traces_dedupe_across_config_points(self):
        # A config axis crossed with a fixed mix: the mixed traces are
        # identical at both config points, so point 1 reuses point 0's.
        spec = fig9_spec(
            sweep=SweepSpec(
                axes=(
                    ("gshare_history_bits", (8, 12)),
                    ("mix.noise", (2,)),
                )
            )
        )
        plan = build_plan(spec)
        point1 = [t for t in plan.tasks if t.kind == "trace" and t.point == 1]
        assert point1, "point 1 must still list its traces"
        for task in point1:
            assert task.deduped_from == f"p0/trace/{task.benchmark}"

    def test_mix_axis_splits_sim_tasks_too(self):
        spec = fig9_spec(sweep=SweepSpec(axes=(("mix.noise", (1, 2)),)))
        plan = build_plan(spec)
        point1_sims = [
            t for t in plan.tasks if t.kind == "sim" and t.point == 1
        ]
        assert point1_sims
        for task in point1_sims:
            assert "mix=noise=2" in task.key
            assert task.deduped_from is None

    def test_imported_source_plans_from_entries(self):
        from repro.spec import ImportedSource, TraceEntry

        spec = RunSpec(
            experiments=("fig9",),
            workload=ImportedSource(
                traces=(
                    TraceEntry(
                        name="toy",
                        digest="a" * 32,
                        path="toy.bpt",
                        format="bpt",
                        branches=4000,
                    ),
                )
            ),
        )
        plan = build_plan(spec)
        traces = [t for t in plan.tasks if t.kind == "trace"]
        assert [t.benchmark for t in traces] == ["toy"]
        assert "digest=" + "a" * 32 in traces[0].key
