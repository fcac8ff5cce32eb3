"""Tests for experiment infrastructure and the paper-reference data."""

from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.config import (
    LabConfig,
    TASK_CONFIG_FIELDS,
    task_config_fields,
    task_config_key,
)
from repro.analysis.parallel import DEFAULT_TASKS
from repro.experiments.base import (
    build_labs,
    experiment_ids,
    experiment_requires,
    register,
)
from repro.experiments.paper_reference import CLAIMS, TABLE2, TABLE3
from repro.workloads.suite import BENCHMARK_NAMES


class TestPaperReference:
    def test_tables_cover_all_benchmarks(self):
        assert set(TABLE2) == set(BENCHMARK_NAMES)
        assert set(TABLE3) == set(BENCHMARK_NAMES)

    def test_table2_combiners_never_lose(self):
        # Internal consistency of the transcribed numbers: "w/ Corr" >=
        # base in every row of the paper's table.
        for gshare, with_corr, if_gshare, if_with_corr in TABLE2.values():
            assert with_corr >= gshare
            assert if_with_corr >= if_gshare

    def test_table3_combiners_never_lose(self):
        for pas, with_loop, if_pas, if_with_loop in TABLE3.values():
            assert with_loop >= pas
            assert if_with_loop >= if_pas

    def test_paper_gcc_go_gain_most_in_table2(self):
        gains = {
            name: row[1] - row[0] for name, row in TABLE2.items()
        }
        ranked = sorted(gains, key=gains.get, reverse=True)
        assert set(ranked[:2]) == {"gcc", "go"}

    def test_every_figure_has_a_claim(self):
        assert set(CLAIMS) == {"fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}


_ALL_FIELDS = tuple(f.name for f in fields(LabConfig))


class TestProjectionConservatism:
    """Unknown tasks must project onto every field -- never alias."""

    @given(
        st.text(min_size=1, max_size=30).filter(
            lambda name: name not in TASK_CONFIG_FIELDS
            and not name.startswith("selective_")
        )
    )
    def test_unknown_names_project_onto_every_field(self, name):
        assert task_config_fields(name) == _ALL_FIELDS

    @given(st.integers(min_value=1, max_value=64))
    def test_selective_tasks_use_the_selective_projection(self, top_k):
        assert task_config_fields(f"selective_{top_k}_16") == (
            "selective_top_k", "collection_window",
        )

    def test_known_tasks_project_onto_declared_subsets(self):
        for task, declared in TASK_CONFIG_FIELDS.items():
            assert set(declared) <= set(_ALL_FIELDS), task

    def test_unknown_task_key_differs_whenever_any_field_does(self):
        base = LabConfig()
        for name in _ALL_FIELDS:
            changed = LabConfig(**{name: getattr(base, name) + 1})
            assert task_config_key("mystery", changed) != task_config_key(
                "mystery", base
            ), name


class TestRegistryRequiresArePlannable:
    """Registry-wide mirror of the plan's DS003 check."""

    def test_every_registered_requires_resolves(self):
        for experiment_id in experiment_ids():
            for task in experiment_requires(experiment_id):
                assert task in DEFAULT_TASKS, (
                    f"experiment {experiment_id!r} requires "
                    f"unplannable task {task!r}"
                )

    def test_every_default_task_has_a_projection(self):
        for task in DEFAULT_TASKS:
            assert task in TASK_CONFIG_FIELDS, task


class TestInfrastructure:
    def test_duplicate_registration_rejected(self):
        from repro.experiments import base

        @register("test-dummy-experiment", requires=())
        def dummy(labs):
            return None

        try:
            with pytest.raises(ValueError, match="duplicate"):
                register("test-dummy-experiment", requires=())(dummy)
        finally:
            base._REGISTRY.pop("test-dummy-experiment", None)
            base._REQUIRES.pop("test-dummy-experiment", None)
            base._WINDOWS.pop("test-dummy-experiment", None)
        assert "test-dummy-experiment" not in experiment_ids()

    def test_build_labs_propagates_config(self):
        config = LabConfig(gshare_history_bits=4, gshare_pht_bits=6)
        labs = build_labs(max_length=2000, config=config)
        assert labs["gcc"].config is config

    def test_build_labs_seed(self):
        a = build_labs(max_length=2000, run_seed=1)
        b = build_labs(max_length=2000, run_seed=2)
        assert a["gcc"].trace != b["gcc"].trace
