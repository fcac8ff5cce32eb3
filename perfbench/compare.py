"""Compare two benchmark results metric by metric, using the declared bounds.

Usage, from the repository root::

    python3 perfbench/compare.py BENCHMARK.json A.json B.json

``A.json`` and ``B.json`` are results of ``python3 perfbench/bench.py``
(every workload).  For each workload and each end-to-end metric the script
prints both sides' reported value (the run's mean pass time, mean latency
and rates, its median set-up time and peak memory, its 90th-percentile
latency over every request), the quartiles of their passes and their best
pass, and a verdict for B against A:

* ``worse`` / ``better``: the values differ by more than the metric's
  bound, in the metric's ``better`` direction;
* ``same``: they differ by no more than the bound;
* ``unresolved``: a side's spread over passes (quartile distance over
  median) is wider than the bound, so a difference within it cannot be
  told from noise -- unless each side has at least five passes and every
  pass of one side beats every pass of the other, which decides it.

The best pass is printed for reading only; no verdict rests on it.  Exit
status is 1 when any metric is ``worse``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List


def _spread(samples: List[float]) -> float:
    median = statistics.median(samples)
    if len(samples) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(median)


#: Fewest passes a side needs before "every pass beats every pass" counts:
#: with three a side it happens by chance one time in ten, with five one
#: time in 126.
MIN_DOMINANCE_PASSES = 5


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """B against A for one metric; see the module docstring.

    ``a`` and ``b`` are a result's metric entries: ``value`` (what the
    benchmark reports) and the per-pass ``samples``.
    """
    def beats(x, y):
        return x < y if better == "lower" else x > y

    dominance = None
    if min(len(a["samples"]), len(b["samples"])) >= MIN_DOMINANCE_PASSES:
        if all(beats(y, x) for y in b["samples"] for x in a["samples"]):
            dominance = "better"
        elif all(beats(x, y) for y in b["samples"] for x in a["samples"]):
            dominance = "worse"
    change = (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    worsening = change if better == "lower" else -change
    if max(_spread(a["samples"]), _spread(b["samples"])) > bound:
        return dominance or "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def _describe(entry) -> str:
    return (f"{entry['value']:.5g} [{entry['q1']:.5g}, {entry['q3']:.5g}]"
            f" best {entry['best']:.5g}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as fh:
            documents.append(json.load(fh))
    benchmark, first, second = documents
    for side, document in (("A", first), ("B", second)):
        if not document.get("comparable", False):
            print(f"note: {side} is a scaled run and not comparable to the "
                  "benchmark's bounds")
    worse = 0
    print(f"{'workload':<14} {'metric':<16} {'A value [q1, q3] best':<44} "
          f"{'B value [q1, q3] best':<44} verdict")
    for workload in first["workloads"]:
        if workload not in second["workloads"]:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = first["workloads"][workload]["end_to_end"].get(name)
            b = second["workloads"][workload]["end_to_end"].get(name)
            if a is None or b is None:
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            worse += result == "worse"
            print(f"{workload:<14} {name:<16} {_describe(a):<44} "
                  f"{_describe(b):<44} {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
