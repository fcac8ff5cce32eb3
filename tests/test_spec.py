"""Tests for the declarative run description (repro.spec)."""

import dataclasses

import pytest

from repro.analysis.config import DEFAULT_CONFIG, LabConfig
from repro.experiments.base import EXPERIMENT_IDS
from repro.spec import (
    CONFIG_FIELDS,
    SPEC_KIND,
    SPEC_SCHEMA_VERSION,
    EngineOptions,
    RunSpec,
    SpecError,
    SweepSpec,
    WorkloadSpec,
    spec_from_kwargs,
)


def small_spec(**overrides) -> RunSpec:
    defaults = dict(
        experiments=("fig9",),
        workload=WorkloadSpec(max_length=2000, seed=7),
    )
    defaults.update(overrides)
    return RunSpec(**defaults)


class TestRoundTrip:
    def test_json_round_trip_is_identical(self):
        spec = RunSpec(
            experiments=("table1", "fig9"),
            workload=WorkloadSpec(
                max_length=5000, seed=99, benchmarks=("gcc", "compress")
            ),
            config=dataclasses.replace(DEFAULT_CONFIG, gshare_history_bits=12),
            engine=EngineOptions(jobs=2, cache=False, retries=1),
            sweep=SweepSpec(axes=(("gshare_history_bits", (8, 12)),)),
        )
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.digest() == spec.digest()

    def test_file_round_trip(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "spec.json"
        spec.to_file(str(path))
        assert RunSpec.from_file(str(path)) == spec

    def test_document_carries_kind_and_schema(self):
        payload = small_spec().to_dict()
        assert payload["kind"] == SPEC_KIND
        assert payload["schema_version"] == SPEC_SCHEMA_VERSION

    def test_defaults_parse_from_minimal_document(self):
        spec = RunSpec.from_dict({"experiments": ["table1"]})
        assert spec.experiments == ("table1",)
        assert spec.workload == WorkloadSpec()
        assert spec.config == DEFAULT_CONFIG
        assert spec.engine == EngineOptions()
        assert spec.sweep is None


class TestStrictParsing:
    def test_unknown_top_level_field(self):
        with pytest.raises(SpecError, match="unknown field"):
            RunSpec.from_dict({"experiments": [], "colour": "red"})

    def test_unknown_workload_field(self):
        with pytest.raises(SpecError, match="workload.*unknown"):
            RunSpec.from_dict({"workload": {"length": 5}})

    def test_unknown_engine_field(self):
        with pytest.raises(SpecError, match="engine.*unknown"):
            RunSpec.from_dict({"engine": {"threads": 4}})

    def test_unknown_config_field(self):
        with pytest.raises(SpecError, match="config.*unknown"):
            RunSpec.from_dict({"config": {"ghr_bits": 12}})

    def test_unknown_sweep_field(self):
        with pytest.raises(SpecError, match="sweep.*unknown"):
            RunSpec.from_dict({"sweep": {"axes": {}, "order": "random"}})

    def test_wrong_kind_rejected(self):
        with pytest.raises(SpecError, match="kind"):
            RunSpec.from_dict({"kind": "repro.manifest"})

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(SpecError, match="schema_version"):
            RunSpec.from_dict({"schema_version": 999})

    def test_invalid_json_text(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            RunSpec.from_json("{nope")

    def test_mistyped_config_value(self):
        with pytest.raises(SpecError, match="expected an int"):
            RunSpec.from_dict({"config": {"gshare_history_bits": "12"}})

    def test_mistyped_max_length(self):
        with pytest.raises(SpecError, match="max_length"):
            RunSpec.from_dict({"workload": {"max_length": -3}})


class TestCorrelationWindows:
    @pytest.mark.parametrize("window", [0, 33, 40])
    def test_collection_window_outside_collector_range(self, window):
        with pytest.raises(SpecError, match=r"config\.collection_window") as info:
            RunSpec.from_dict({"config": {"collection_window": window}})
        assert info.value.exit_code == 2
        assert info.value.http_status == 400

    def test_selective_window_deeper_than_collection(self):
        with pytest.raises(SpecError, match=r"config\.selective_window"):
            RunSpec.from_dict(
                {"config": {"selective_window": 20, "collection_window": 16}}
            )

    def test_bad_window_on_a_sweep_point(self):
        spec = small_spec(sweep=SweepSpec(axes=(("collection_window", (16, 40)),)))
        with pytest.raises(SpecError, match=r"config\.collection_window"):
            spec.expand_points()

    def test_windows_in_range_accepted(self):
        spec = RunSpec.from_dict(
            {"config": {"selective_window": 8, "collection_window": 8}}
        )
        assert spec.config.collection_window == 8


class TestChunkBranches:
    def test_kwargs_surface_carries_it(self):
        spec = spec_from_kwargs(["fig9"], chunk_branches=4096)
        assert spec.engine.chunk_branches == 4096

    def test_round_trips_through_json(self):
        spec = small_spec(engine=EngineOptions(chunk_branches=4096))
        assert RunSpec.from_json(spec.to_json()).engine.chunk_branches == 4096

    def test_execution_knob_does_not_change_identity(self):
        base = small_spec()
        chunked = dataclasses.replace(
            base, engine=EngineOptions(chunk_branches=4096)
        )
        assert base.digest() == chunked.digest()
        assert base.input_digest() == chunked.input_digest()

    def test_resolved_normalizes_to_a_multiple_of_eight(self):
        assert EngineOptions(chunk_branches=100).resolved().chunk_branches == 104

    def test_resolved_reads_the_environment_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_BRANCHES", "1000")
        assert EngineOptions().resolved().chunk_branches == 1000
        monkeypatch.delenv("REPRO_CHUNK_BRANCHES")
        assert EngineOptions().resolved().chunk_branches is None

    def test_explicit_value_wins_over_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK_BRANCHES", "1000")
        assert EngineOptions(chunk_branches=64).resolved().chunk_branches == 64

    def test_invalid_value_is_a_spec_error(self):
        with pytest.raises(SpecError, match="engine.chunk_branches"):
            EngineOptions(chunk_branches=0).resolved()


class TestDigest:
    def test_engine_options_do_not_change_digest(self):
        base = small_spec()
        throttled = dataclasses.replace(
            base, engine=EngineOptions(jobs=8, cache=False, retries=5)
        )
        assert base.digest() == throttled.digest()

    def test_config_changes_digest(self):
        base = small_spec()
        resized = dataclasses.replace(
            base,
            config=dataclasses.replace(base.config, gshare_history_bits=8),
        )
        assert base.digest() != resized.digest()

    def test_experiments_change_digest(self):
        assert (
            small_spec().digest()
            != small_spec(experiments=("table1",)).digest()
        )

    def test_workload_changes_digest(self):
        longer = small_spec(workload=WorkloadSpec(max_length=4000, seed=7))
        assert small_spec().digest() != longer.digest()

    def test_input_digest_ignores_experiments_and_sweep(self):
        base = small_spec()
        other = small_spec(
            experiments=("table1", "fig5"),
            sweep=SweepSpec(axes=(("gshare_history_bits", (8, 12)),)),
        )
        assert base.input_digest() == other.input_digest()
        assert base.digest() != other.digest()

    def test_input_digest_tracks_config(self):
        resized = small_spec(
            config=dataclasses.replace(DEFAULT_CONFIG, pas_history_bits=4)
        )
        assert small_spec().input_digest() != resized.input_digest()


class TestSweepSpec:
    def test_unknown_axis_field(self):
        with pytest.raises(SpecError, match="not sweepable"):
            SweepSpec(axes=(("warp_factor", (1, 2)),))

    def test_empty_axis_values(self):
        with pytest.raises(SpecError, match="no values"):
            SweepSpec(axes=(("gshare_history_bits", ()),))

    def test_non_int_axis_value(self):
        with pytest.raises(SpecError, match="must be ints"):
            SweepSpec(axes=(("gshare_history_bits", ("8",)),))

    def test_no_axes(self):
        with pytest.raises(SpecError, match="at least one axis"):
            SweepSpec(axes=())

    def test_bad_mode(self):
        with pytest.raises(SpecError, match="mode"):
            SweepSpec(axes=(("gshare_history_bits", (8,)),), mode="spiral")

    def test_zip_requires_equal_lengths(self):
        with pytest.raises(SpecError, match="equal-length"):
            SweepSpec(
                axes=(
                    ("gshare_history_bits", (8, 12)),
                    ("gshare_pht_bits", (8, 12, 16)),
                ),
                mode="zip",
            )

    def test_grid_coordinates_are_cartesian(self):
        sweep = SweepSpec(
            axes=(
                ("gshare_history_bits", (8, 12)),
                ("gshare_pht_bits", (10, 14)),
            )
        )
        coords = sweep.coordinates()
        assert len(coords) == 4
        assert {"gshare_history_bits": 8, "gshare_pht_bits": 10} in coords
        assert {"gshare_history_bits": 12, "gshare_pht_bits": 14} in coords

    def test_zip_coordinates_pair_elementwise(self):
        sweep = SweepSpec(
            axes=(
                ("gshare_history_bits", (8, 12)),
                ("gshare_pht_bits", (10, 14)),
            ),
            mode="zip",
        )
        assert sweep.coordinates() == [
            {"gshare_history_bits": 8, "gshare_pht_bits": 10},
            {"gshare_history_bits": 12, "gshare_pht_bits": 14},
        ]

    def test_axes_normalise_to_sorted_tuples(self):
        sweep = SweepSpec(
            axes=(
                ("pas_history_bits", [4, 6]),
                ("gshare_history_bits", [8]),
            )
        )
        assert sweep.axes == (
            ("gshare_history_bits", (8,)),
            ("pas_history_bits", (4, 6)),
        )


class TestExpandPoints:
    def test_plain_spec_is_one_point(self):
        spec = small_spec()
        assert spec.expand_points() == [({}, spec)]

    def test_points_fold_coords_into_config(self):
        spec = small_spec(
            sweep=SweepSpec(axes=(("gshare_history_bits", (8, 12)),))
        )
        points = spec.expand_points()
        assert [coords for coords, _ in points] == [
            {"gshare_history_bits": 8},
            {"gshare_history_bits": 12},
        ]
        for coords, point in points:
            assert point.sweep is None
            assert point.config.gshare_history_bits == (
                coords["gshare_history_bits"]
            )

    def test_point_digests_differ_exactly_in_swept_field(self):
        spec = small_spec(
            sweep=SweepSpec(axes=(("gshare_history_bits", (8, 12)),))
        )
        (_, first), (_, second) = spec.expand_points()
        assert first.digest() != second.digest()
        first_id, second_id = first.identity(), second.identity()
        assert first_id["config"] != second_id["config"]
        differing = {
            name
            for name in first_id["config"]
            if first_id["config"][name] != second_id["config"][name]
        }
        assert differing == {"gshare_history_bits"}
        for section in ("experiments", "workload", "sweep"):
            assert first_id[section] == second_id[section]


class TestKwargShim:
    def test_shim_matches_explicit_spec_digest(self):
        shimmed = spec_from_kwargs(
            ["fig9"], max_length=2000, seed=7, jobs=4, use_cache=False
        )
        explicit = small_spec()
        assert shimmed.digest() == explicit.digest()

    def test_shim_defaults_to_all_experiments(self):
        assert spec_from_kwargs().experiments == tuple(EXPERIMENT_IDS)

    def test_shim_carries_engine_options(self):
        spec = spec_from_kwargs(
            ["table1"],
            jobs="3",
            use_cache=False,
            retries=0,
            task_timeout=1.5,
            fault_spec="loop:1:crash",
            journal_path="j.journal",
            resume=True,
        )
        assert spec.engine == EngineOptions(
            jobs=3,
            cache=False,
            retries=0,
            task_timeout=1.5,
            fault_spec="loop:1:crash",
            journal="j.journal",
            resume=True,
        )


class TestConfigFields:
    def test_config_fields_cover_labconfig(self):
        assert set(CONFIG_FIELDS) == {
            f.name for f in dataclasses.fields(LabConfig)
        }


class TestTraceSources:
    """The workload union: SyntheticSource + ImportedSource."""

    def entry(self, name="toy", **overrides):
        from repro.spec import TraceEntry

        defaults = dict(
            name=name,
            digest="a" * 32,
            path=f"{name}.bpt",
            format="bpt",
            branches=5000,
        )
        defaults.update(overrides)
        return TraceEntry(**defaults)

    def test_legacy_digest_is_pinned(self):
        # The seed's digest for this exact spec -- must never drift.
        assert small_spec().digest() == "0f0c54f0edd9c8ecac7bc02b3cff1601"

    def test_unmixed_workload_serialises_in_legacy_layout(self):
        payload = WorkloadSpec(max_length=2000, seed=7).to_dict()
        assert payload == {
            "max_length": 2000, "seed": 7, "benchmarks": None
        }

    def test_version_1_document_still_parses(self):
        spec = small_spec()
        payload = spec.to_dict()
        payload["schema_version"] = 1
        restored = RunSpec.from_dict(payload)
        assert restored == spec
        assert restored.digest() == spec.digest()

    def test_unknown_source_kind_rejected(self):
        payload = small_spec().to_dict()
        payload["workload"] = {"kind": "oracle"}
        with pytest.raises(SpecError, match="oracle"):
            RunSpec.from_dict(payload)

    def test_unknown_mix_class_rejected(self):
        with pytest.raises(SpecError, match="phase"):
            WorkloadSpec(max_length=2000, mix={"phase": 2.0})

    def test_negative_mix_weight_rejected(self):
        with pytest.raises(SpecError, match="non-negative"):
            WorkloadSpec(max_length=2000, mix={"noise": -1.0})

    def test_mixed_workload_round_trips_and_changes_digest(self):
        plain = small_spec()
        mixed = small_spec(
            workload=WorkloadSpec(max_length=2000, seed=7, mix={"noise": 2.0})
        )
        assert mixed.digest() != plain.digest()
        restored = RunSpec.from_json(mixed.to_json())
        assert restored == mixed
        assert restored.digest() == mixed.digest()

    def test_imported_source_round_trips(self):
        from repro.spec import ImportedSource

        spec = small_spec(
            workload=ImportedSource(traces=(self.entry(),))
        )
        restored = RunSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.digest() == spec.digest()

    def test_imported_identity_excludes_paths(self):
        from repro.spec import ImportedSource

        here = small_spec(
            workload=ImportedSource(traces=(self.entry(path="a/toy.bpt"),))
        )
        there = small_spec(
            workload=ImportedSource(traces=(self.entry(path="b/toy.bpt"),))
        )
        assert here.digest() == there.digest()

    def test_imported_source_needs_traces(self):
        from repro.spec import ImportedSource

        with pytest.raises(SpecError, match="at least one"):
            ImportedSource(traces=())

    def test_imported_source_rejects_duplicate_names(self):
        from repro.spec import ImportedSource

        with pytest.raises(SpecError, match="duplicate"):
            ImportedSource(traces=(self.entry(), self.entry()))


class TestWorkloadAxes:
    """Sweep axes over workload and mix fields."""

    def test_mix_axis_accepts_floats(self):
        sweep = SweepSpec(axes=(("mix.noise", (0, 0.5, 2.0)),))
        assert sweep.axes[0][1] == (0, 0.5, 2.0)

    def test_mix_axis_unknown_class_rejected(self):
        with pytest.raises(SpecError, match="behaviour class"):
            SweepSpec(axes=(("mix.phase", (1, 2)),))

    def test_mix_axis_negative_weight_rejected(self):
        with pytest.raises(SpecError, match="non-negative"):
            SweepSpec(axes=(("mix.noise", (-1,)),))

    def test_workload_axis_accepts_ints_only(self):
        SweepSpec(axes=(("workload.seed", (1, 2)),))
        with pytest.raises(SpecError, match="ints"):
            SweepSpec(axes=(("workload.seed", (1.5,)),))

    def test_point_folds_workload_coords(self):
        spec = small_spec(
            sweep=SweepSpec(axes=(("workload.seed", (1, 2)),))
        )
        points = [
            spec.point(coords) for coords in spec.sweep.coordinates()
        ]
        assert [p.workload.seed for p in points] == [1, 2]
        assert all(p.sweep is None for p in points)

    def test_point_folds_mix_coords(self):
        spec = small_spec(
            sweep=SweepSpec(axes=(("mix.noise", (0, 2.0)),))
        )
        points = [
            spec.point(coords) for coords in spec.sweep.coordinates()
        ]
        assert points[0].workload.mix_map() == {"noise": 0.0}
        assert points[1].workload.mix_map() == {"noise": 2.0}

    def test_mixed_config_and_mix_axes_grid(self):
        spec = small_spec(
            sweep=SweepSpec(
                axes=(
                    ("gshare_history_bits", (8, 12)),
                    ("mix.loop", (2.0,)),
                )
            )
        )
        points = [
            spec.point(coords) for coords in spec.sweep.coordinates()
        ]
        assert len(points) == 2
        assert {p.config.gshare_history_bits for p in points} == {8, 12}
        assert all(p.workload.mix_map() == {"loop": 2.0} for p in points)

    def test_workload_axis_on_imported_source_rejected(self):
        from repro.spec import ImportedSource, TraceEntry

        spec = small_spec(
            workload=ImportedSource(
                traces=(
                    TraceEntry(
                        name="toy",
                        digest="a" * 32,
                        path="toy.bpt",
                        branches=100,
                    ),
                )
            ),
            sweep=SweepSpec(axes=(("mix.noise", (1, 2)),)),
        )
        with pytest.raises(SpecError, match="synthetic"):
            spec.point(dict(next(iter(spec.sweep.coordinates())).items()))
