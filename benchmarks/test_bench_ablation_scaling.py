"""Ablation: how trace length moves the headline numbers.

The reproduction runs at ~1% of the paper's trace scale; this bench
measures gshare and interference-free gshare on the gcc analogue at
several lengths, showing the training-density effect DESIGN.md documents
(both rise with length; the gap persists).
"""

from repro.analysis.config import DEFAULT_CONFIG, build_task
from repro.workloads.suite import load_benchmark

from conftest import save_result

LENGTHS = (5_000, 10_000, 20_000, 40_000)


def test_bench_ablation_scaling(benchmark, results_dir):
    def sweep():
        results = {}
        for length in LENGTHS:
            trace = load_benchmark("gcc", length=length, run_seed=12345)
            gshare = float(build_task("gshare", DEFAULT_CONFIG).simulate(trace).mean())
            if_gshare = float(build_task("if_gshare", DEFAULT_CONFIG).simulate(trace).mean())
            results[length] = (gshare, if_gshare)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = ["trace-length scaling (gcc analogue):"]
    for length, (gshare, if_gshare) in results.items():
        lines.append(
            f"  n={length:6d}  gshare={gshare * 100:.2f}%  "
            f"IF-gshare={if_gshare * 100:.2f}%  gap={(if_gshare - gshare) * 100:.2f}"
        )
    save_result(results_dir, "ablation_scaling", "\n".join(lines))
    # Training density rises with length: both predictors improve from
    # the shortest to the longest run.
    assert results[LENGTHS[-1]][0] > results[LENGTHS[0]][0]
    assert results[LENGTHS[-1]][1] > results[LENGTHS[0]][1]
    # The interference-free instrument stays ahead at every scale.
    for gshare, if_gshare in results.values():
        assert if_gshare > gshare
