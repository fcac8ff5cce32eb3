"""The paper's nine results, pinned across commits.

Every other equality gate compares two runs of the same commit (cold
against warm, ``jobs=1`` against ``jobs=N``, direct against served).
This one compares against digests recorded by an earlier commit: the
repository benchmark's seed-12345 ``report_cold`` pins.  A change that
moves any experiment's result by one bit fails here.
"""

import json
from pathlib import Path

from repro.api import run_spec, spec_from_kwargs
from repro.experiments.base import EXPERIMENT_IDS

PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"
SEED = "12345"


def _pinned():
    with PINS.open("r") as fh:
        return json.load(fh)[SEED]["report_cold"]


def test_paper_results_match_the_benchmark_pins():
    pinned = _pinned()
    assert set(pinned["digests"]) == set(EXPERIMENT_IDS)
    run = run_spec(
        spec_from_kwargs(
            EXPERIMENT_IDS,
            max_length=pinned["length"],
            seed=int(SEED),
            jobs=1,
            use_cache=False,
        )
    )
    assert not run.failures
    digests = {
        entry["id"]: entry["result_digest"] for entry in run.manifest["experiments"]
    }
    for experiment_id, digest in pinned["digests"].items():
        assert digests[experiment_id] == digest, experiment_id
