"""Self-test of the benchmark harness at a small scale.

Run from the repository root with ``python3 -m pytest perfbench``.  One
scaled run of every workload (``--scale 0.02 --passes 1``, about a minute)
backs three checks: every declared metric is reported with its unit, every
layer emits spans whose self times fit in the traced wall, and a planted
wrong pin fails the run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench  # noqa: E402
import layers  # noqa: E402

SCALE = "0.02"


def _bench(*args):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "bench.py"), "--scale", SCALE,
         *args],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def scaled_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "bench.json"
    completed = _bench("--passes", "1", "--out", str(out))
    assert completed.returncode == 0, completed.stdout + completed.stderr
    with open(out) as fh:
        return json.load(fh), completed.stdout


def test_every_metric_is_reported_with_its_unit(declared, scaled_run):
    result, stdout = scaled_run
    assert result["comparable"] is False
    workloads = [entry["name"] for entry in declared["workloads"]]
    assert sorted(result["workloads"]) == sorted(workloads)
    for name, entry in result["workloads"].items():
        assert entry["failed_fraction"] == 0, entry["problems"]
        for section in ("end_to_end", "per_layer"):
            for metric in declared[section]:
                if (section == "end_to_end" and name != "serve_warm"
                        and metric["name"] in bench.REQUEST_METRICS):
                    assert metric["name"] not in entry[section]
                    continue
                reported = entry[section][metric["name"]]
                assert reported["unit"] == metric["unit"]
                assert isinstance(reported["value"], (int, float))
                assert f"{metric['name']} " in stdout


def test_every_layer_emits_spans_within_the_traced_wall(scaled_run):
    result, _ = scaled_run
    seen = set()
    for name, entry in result["workloads"].items():
        with open(os.path.join(ROOT, entry["trace"])) as fh:
            events = json.load(fh)["traceEvents"]
        seen.update(layers.LAYER_OF.get(event["name"]) for event in events)
        coverage = entry["per_layer"]["bench.self_coverage"]["value"]
        assert 0 < coverage <= 1.0, (name, coverage)
    assert seen >= set(layers.LAYERS)


def test_self_time_subtracts_nested_spans():
    def event(name, ts, dur, parent=None):
        args = {} if parent is None else {"parent": parent}
        return {"name": name, "ts": ts, "dur": dur, "pid": 1, "args": args}

    # Two trees in pre-order: report(experiment(simulate), render), job.
    events = [
        event("report", 0, 100), event("experiment", 10, 50, "report"),
        event("simulate", 20, 30, "experiment"), event("render", 70, 5, "report"),
        event("job", 0, 40),
    ]
    own = [round(seconds * 1e6) for _, seconds, _ in layers.self_times(events)]
    assert own == [45, 20, 30, 5, 40]


def test_a_wrong_pin_fails_the_run(tmp_path):
    length = round(800_000 * float(SCALE))
    wrong = {
        task: [0, 1]
        for task in ("gshare", "if_gshare", "pas", "if_pas", "loop", "block",
                     "ideal_static", "fixed_best")
    }
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps(
        {"12345": {"stream_long": {"length": length, "digests": wrong}}}
    ))
    completed = _bench("--workload", "stream_long", "--seconds", "1",
                       "--pins", str(pins))
    assert completed.returncode != 0
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
