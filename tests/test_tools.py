"""Tests for the trace toolkit: ``repro trace`` and the predictor registry."""

import pytest

from repro.cli import main as repro_main
from repro.errors import SpecError
from repro.predictors import PREDICTOR_REGISTRY, parse_predictor_spec
from repro.trace.stream import read_trace


def main(argv):
    """Run ``repro trace ARGV`` through the one ``repro`` entry point."""
    return repro_main(["trace", *argv])


class TestParsePredictorSpec:
    def test_bare_name(self):
        predictor = parse_predictor_spec("loop")
        assert predictor.name == "loop"

    def test_with_arguments(self):
        predictor = parse_predictor_spec("gshare:history_bits=10,pht_bits=12")
        assert predictor.name == "gshare-10h-12p"

    def test_unknown_name(self):
        with pytest.raises(SpecError, match="unknown predictor 'tage' in spec 'tage'"):
            parse_predictor_spec("tage")

    def test_malformed_argument(self):
        with pytest.raises(
            SpecError, match="malformed predictor argument 'history_bits'"
        ):
            parse_predictor_spec("gshare:history_bits")

    def test_non_integer_argument(self):
        with pytest.raises(SpecError, match="is not an integer"):
            parse_predictor_spec("gshare:history_bits=ten")

    def test_unknown_keyword_argument(self):
        with pytest.raises(
            SpecError, match="bad arguments for predictor 'gshare'"
        ):
            parse_predictor_spec("gshare:nonsense=3")

    def test_every_registry_entry_constructs(self):
        for name in PREDICTOR_REGISTRY:
            predictor = parse_predictor_spec(name)
            assert predictor.name


class TestCommands:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "t.bpt"
        assert main(["generate", "compress", "-o", str(path), "--length", "3000"]) == 0
        return path

    def test_generate_writes_readable_trace(self, trace_file):
        assert trace_file.read_bytes()[:4] == b"BPT2"
        trace = read_trace(trace_file)
        assert len(trace) == 3000

    def test_stats(self, trace_file, capsys):
        assert main(["stats", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "dynamic branches:        3000" in out
        assert "taken rate" in out

    def test_simulate_default_predictors(self, trace_file, capsys):
        assert main(["simulate", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "gshare" in out and "pas" in out

    def test_simulate_explicit_predictors(self, trace_file, capsys):
        assert (
            main(
                [
                    "simulate",
                    str(trace_file),
                    "--predictor",
                    "loop",
                    "--predictor",
                    "bimodal:table_bits=8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "loop" in out and "bimodal-8b" in out

    def test_simulate_jobs_2_prints_what_jobs_1_prints(self, trace_file, capsys):
        # --jobs runs the specs on a process pool of their own; map()
        # keeps their order, and each worker re-reads the trace file.
        args = ["simulate", str(trace_file)]
        for spec in ("gshare:history_bits=6", "pas", "loop"):
            args += ["--predictor", spec]
        assert main(args + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert len(serial.splitlines()) == 4

    def test_simulate_bad_predictor_exits_2(self, trace_file, capsys):
        assert main(["simulate", str(trace_file), "--predictor", "nope"]) == 2
        captured = capsys.readouterr()
        assert "unknown predictor 'nope'" in captured.err
        assert captured.out == ""

    def test_interference(self, trace_file, capsys):
        assert (
            main(
                [
                    "interference",
                    str(trace_file),
                    "--history-bits",
                    "8",
                    "--pht-bits",
                    "10",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "conflict access rate" in out

    def test_missing_file_exits_2(self, capsys):
        assert main(["stats", "/nonexistent/file.bpt"]) == 2


class TestBadTraceInputs:
    """Bad trace files end in a located error and exit 2, not a traceback."""

    def test_directory(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path)]) == 2
        assert "cannot read trace file" in capsys.readouterr().err

    @pytest.mark.parametrize("address", ["0x1ffffffffffffffff", "-4"])
    def test_out_of_range_address_names_the_line(
        self, tmp_path, capsys, address
    ):
        path = tmp_path / "bad.txt"
        path.write_text(f"{address} 0x20 T\n")
        assert main(["stats", str(path)]) == 2
        assert f"{path}:1:" in capsys.readouterr().err
