"""Tests for the declaration-soundness pass (repro.check.deps)."""

from pathlib import Path

import pytest

from repro.check.deps import (
    analyze_projections,
    analyze_requires,
    run_deps_pass,
)
from repro.check.diagnostics import ERROR, WARNING

FIXTURES = Path(__file__).parent / "fixtures" / "check_defects"


def codes(diagnostics):
    return [diag.code for diag in diagnostics]


def by_code(diagnostics, code):
    return [diag for diag in diagnostics if diag.code == code]


class TestRealTreeIsClean:
    """The shipped experiments and config must pass their own audit."""

    def test_requires_pass_clean(self):
        assert analyze_requires() == []

    def test_projection_pass_clean(self):
        assert analyze_projections() == []

    def test_combined_pass_clean(self):
        assert run_deps_pass() == []


class TestSeededRequiresDefects:
    """Each planted declaration defect produces its exact DS code."""

    @pytest.fixture(scope="class")
    def diagnostics(self):
        return analyze_requires(
            experiments_root=str(FIXTURES / "experiments")
        )

    def test_exact_code_multiset(self, diagnostics):
        assert sorted(codes(diagnostics)) == [
            "DS001", "DS001", "DS002", "DS003"
        ]

    def test_ds001_undeclared_helper_consumption(self, diagnostics):
        found = by_code(diagnostics, "DS001")
        tasks = {
            diag.message.split("'")[3] for diag in found
        }  # experiment '...' consumes task '<name>'
        assert tasks == {"pas", "correlation"}
        assert all(diag.severity == ERROR for diag in found)
        assert all("fx_undeclared" in diag.message for diag in found)

    def test_ds001_selective_access_maps_to_correlation(self, diagnostics):
        correlation = [
            diag for diag in by_code(diagnostics, "DS001")
            if "'correlation'" in diag.message
        ]
        assert len(correlation) == 1

    def test_ds002_phantom_declaration_is_warning(self, diagnostics):
        (phantom,) = by_code(diagnostics, "DS002")
        assert phantom.severity == WARNING
        assert "fx_phantom" in phantom.message
        assert "'loop'" in phantom.message

    def test_ds003_unknown_task_name(self, diagnostics):
        (unknown,) = by_code(diagnostics, "DS003")
        assert unknown.severity == ERROR
        assert "'gshar'" in unknown.message
        assert "correlation" in unknown.message  # the selective hint

    def test_clean_runner_stays_silent(self, diagnostics):
        assert not any("fx_clean" in diag.message for diag in diagnostics)

    def test_locations_point_into_the_fixture(self, diagnostics):
        for diag in diagnostics:
            path, _, line = diag.location.rpartition(":")
            assert path.endswith("defective.py")
            assert int(line) > 0


class TestSeededProjectionDefects:
    """Stale TASK_CONFIG_FIELDS copies produce DS004/DS005."""

    @pytest.fixture(scope="class")
    def diagnostics(self):
        return analyze_projections(
            config_path=str(FIXTURES / "bad_config.py")
        )

    def test_exact_code_multiset(self, diagnostics):
        assert sorted(codes(diagnostics)) == ["DS004", "DS005"]

    def test_ds004_missing_read_field_is_error(self, diagnostics):
        (missing,) = by_code(diagnostics, "DS004")
        assert missing.severity == ERROR
        assert "'gshare'" in missing.message
        assert "gshare_pht_bits" in missing.message
        # The constructor note makes the finding actionable.
        assert "GsharePredictor" in missing.message

    def test_ds005_unread_field_is_warning(self, diagnostics):
        (unread,) = by_code(diagnostics, "DS005")
        assert unread.severity == WARNING
        assert "'loop'" in unread.message
        assert "pas_history_bits" in unread.message


class TestSuppression:
    def test_check_ignore_comment_silences_a_finding(self, tmp_path):
        fixture = (FIXTURES / "bad_config.py").read_text(encoding="utf-8")
        patched = fixture.replace(
            '"gshare": ("gshare_history_bits",),',
            '"gshare": ("gshare_history_bits",),  # check: ignore',
        )
        assert patched != fixture
        target = tmp_path / "suppressed_config.py"
        target.write_text(patched, encoding="utf-8")
        diagnostics = analyze_projections(config_path=str(target))
        assert codes(diagnostics) == ["DS005"]


class TestMissingTaskTable:
    """A table module without the table is reported, never skipped."""

    TABLE = FIXTURES / "no_task_table.py"

    def test_requires_pass_reports_missing_default_tasks(self):
        diagnostics = analyze_requires(
            experiments_root=str(FIXTURES / "experiments"),
            parallel_path=str(self.TABLE),
        )
        (missing,) = by_code(diagnostics, "DS000")
        assert missing.severity == ERROR
        assert "DEFAULT_TASKS" in missing.message
        assert str(self.TABLE) in missing.message
        assert missing.location == f"{self.TABLE}:0"

    def test_projection_pass_reports_missing_factories_and_compute(self):
        diagnostics = analyze_projections(parallel_path=str(self.TABLE))
        assert codes(diagnostics) == ["DS000", "DS000"]
        messages = " ".join(diag.message for diag in diagnostics)
        assert "_FACTORY_ATTRS" in messages and "compute_task" in messages
        assert all(str(self.TABLE) in diag.location for diag in diagnostics)

    def test_default_table_is_the_labs_module(self):
        import repro.analysis.runner as runner
        from repro.check.deps import TASK_TABLE, _default_package_root

        table = _default_package_root() / TASK_TABLE
        assert table.resolve() == Path(runner.__file__).resolve()
        assert "DEFAULT_TASKS" in vars(runner)
        assert "compute_task" in vars(runner)
