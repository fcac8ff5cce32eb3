"""Quickstart: simulate branch predictors on a synthetic benchmark.

Run:
    python examples/quickstart.py
"""

import os

from repro.analysis.config import DEFAULT_CONFIG, build_task
from repro.predictors import (
    BimodalPredictor,
    GsharePredictor,
    IdealStaticPredictor,
    LoopPredictor,
    PAsPredictor,
)
from repro.trace import compute_statistics
from repro.workloads import load_benchmark


def main() -> None:
    # Generate the gcc analogue (a synthetic SPECint95-like workload).
    length = int(os.environ.get("REPRO_EXAMPLE_LENGTH", 40_000))
    trace = load_benchmark("gcc", length=length)
    stats = compute_statistics(trace)
    print(f"trace: {len(trace)} dynamic branches, {stats.num_static} static")
    print(f"taken rate: {stats.taken_rate:.3f}")
    print(f">99%-biased dynamic fraction: {stats.biased_99_dynamic_fraction:.3f}")
    print()

    # Every predictor shares one interface: predict / update, or the
    # whole-trace simulate() returning a per-branch correctness bitmap.
    predictors = [
        IdealStaticPredictor(),
        BimodalPredictor(table_bits=12),
        GsharePredictor(history_bits=16, pht_bits=16),
        PAsPredictor(history_bits=6, bht_bits=12),
        LoopPredictor(),
        build_task("if_gshare", DEFAULT_CONFIG),
        build_task("if_pas", DEFAULT_CONFIG),
    ]
    print(f"{'predictor':24s} accuracy")
    for predictor in predictors:
        accuracy = predictor.accuracy(trace)
        print(f"{predictor.name:24s} {accuracy * 100:6.2f}%")


if __name__ == "__main__":
    main()
