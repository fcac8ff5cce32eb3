"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Every pass of a workload runs in a fresh process (``passes.py``) with
tracing off; the end-to-end metrics summarise those passes (see
``end_to_end``).  A separate traced pass gives the per-layer metrics from
the program's own span trace (``layers.py``).  Outputs are checked against
``pins.json`` for the pinned seed, and against each other and an internal
check otherwise; a mismatch counts as a failed operation and the command
exits nonzero.  ``BENCHMARK.json`` at the repository root names every
metric and its unit.

Two ways to run it, both from the repository root::

    # every workload: interleaved passes, then one traced pass each;
    # prints every metric, writes results/bench.json and one Chrome trace
    # per workload
    python3 perfbench/bench.py [--seed 12345] [--passes 3] [--out PATH]

    # one workload for a fixed time; the last line of output is one JSON
    # object with the end-to-end (--trace 0) or per-layer (--trace 1) metrics
    python3 perfbench/bench.py --workload report_cold --seed 7 \\
        --seconds 30 --trace 0

``--scale`` multiplies every trace length (a scaled result is marked
non-comparable); ``--pins`` points at another pins file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
PASSES = os.path.join(HERE, "passes.py")
PINS = os.path.join(HERE, "pins.json")

sys.path.insert(0, HERE)
import layers  # noqa: E402

#: Trace length of each workload at ``--scale 1``: the longest suite
#: benchmark's length (``max_length``) for the suite workloads, the whole
#: trace for ``stream_long``.  On a 2-vCPU host one pass takes about 5–7 s
#: (report_cold), 7–10 s (serve_warm), 3–5 s (sweep_kernels) and 1.5–2.5 s
#: (stream_long), so a 30 s run holds three passes or more of each.
#: ``report_cold`` is the cold report that primes ``serve_warm``'s cache,
#: so work moved from serving into the cache prime shows in its wall time.
LENGTHS = {
    "report_cold": 2_000,
    "serve_warm": 2_000,
    "sweep_kernels": 100_000,
    "stream_long": 800_000,
}

MIN_PASSES = 3
CHILD_TIMEOUT_S = 120
#: End-to-end metrics of serve requests; only ``serve_warm`` sends more
#: than one request a pass.
REQUEST_METRICS = ("request_mean_s", "request_p90_s", "requests_per_s")


class PassError(RuntimeError):
    """A pass process failed, timed out or printed no record."""


# -- running passes -------------------------------------------------------------


def _child_env(work_dir: str) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Keep every temporary file of the program inside the checkout.
    env["TMPDIR"] = os.path.join(work_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def spawn(kind: str, seed: int, length: int, work_dir: str, **options) -> dict:
    """Run one pass process and return its record.

    ``options``: ``cache_dir``, ``trace_out`` (str), ``pass_index`` (int),
    ``verify`` (bool).
    """
    command = [
        sys.executable, PASSES, kind, "--seed", str(seed),
        "--length", str(length), "--work-dir", work_dir,
        "--pass-index", str(options.get("pass_index", 0)),
    ]
    for name in ("cache_dir", "trace_out"):
        if options.get(name):
            command += [f"--{name.replace('_', '-')}", options[name]]
    if options.get("verify"):
        command.append("--verify")
    env = _child_env(work_dir)
    command += ["--spawned-at", repr(time.monotonic())]
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise PassError(f"{kind} pass timed out after {CHILD_TIMEOUT_S}s")
    if process.returncode != 0:
        raise PassError(
            f"{kind} pass exited {process.returncode}: {err.strip()[-2000:]}"
        )
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise PassError(f"{kind} pass printed no record: {err.strip()[-2000:]}")


class WorkloadRunner:
    """One workload's passes at one seed, with their shared work directory."""

    def __init__(self, workload: str, seed: int, scale: float, tag: str):
        self.workload = workload
        self.seed = seed
        self.length = max(1, round(LENGTHS[workload] * scale))
        self.work_dir = os.path.join(RESULTS, f"work-{tag}-{workload}-{os.getpid()}")
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)
        self.records: List[dict] = []
        self.problems: List[str] = []
        self.started = 0
        #: Passes that crashed; each counts as one failed operation.
        self.crashed = 0
        self.prime: Optional[dict] = None
        self.cache_dir: Optional[str] = None
        if workload == "serve_warm":
            # The server reads a cache that a cold report filled.
            self.cache_dir = os.path.join(self.work_dir, "primed-cache")
            try:
                self.prime = spawn(
                    "report_cold", seed, self.length, self.work_dir,
                    cache_dir=self.cache_dir,
                )
            except PassError as error:
                self.problems.append(f"cache prime failed: {error}")

    def run_pass(self, **options) -> Optional[dict]:
        self.started += 1
        try:
            record = spawn(
                self.workload, self.seed, self.length, self.work_dir,
                cache_dir=self.cache_dir, pass_index=self.started - 1,
                **options,
            )
        except PassError as error:
            self.problems.append(str(error))
            self.crashed += 1
            return None
        if not options.get("trace_out"):
            self.records.append(record)
        return record

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


# -- correctness ----------------------------------------------------------------


def load_pins(path: str) -> Dict[str, Any]:
    with open(path) as fh:
        return json.load(fh)


def _pinned(pins, workload: str, seed: int, length: int) -> Optional[dict]:
    entry = pins.get(str(seed), {}).get(workload)
    if entry is not None and entry.get("length") == length:
        return entry["digests"]
    return None


def check(runner: WorkloadRunner, pins, traced: Optional[dict] = None) -> Dict[str, int]:
    """Count attempted and failed operations; record what went wrong.

    With a pin for this seed and length the outputs must equal it.  Without
    one, every pass must equal the first, the first pass's internal check
    must hold, and each served response must equal the cold report that
    primed the server's cache.
    """
    workload, problems = runner.workload, runner.problems
    records = runner.records + ([traced] if traced is not None else [])
    attempted = failed = runner.crashed
    serving = workload == "serve_warm"
    expected = _pinned(pins, workload, runner.seed, runner.length)
    if serving and runner.prime is not None:
        expected = runner.prime["digests"]
        pin = _pinned(pins, "report_cold", runner.seed, runner.length)
        attempted += 1
        if pin is not None and pin != expected:
            problems.append("the cold report priming the cache differs from its pin")
            failed += 1
    mismatched = set()
    for record in records:
        operations = record["operations"]
        bad = record["failed"]
        if serving:
            for sample in record["serve"]:
                wanted = {k: (expected or {}).get(k) for k in sample["experiments"]}
                if sample["ok"] and sample.get("digests") != wanted:
                    mismatched.add("+".join(sample["experiments"]))
                    bad += 1
        else:
            if expected is None:
                expected = record["digests"]
            for key, value in expected.items():
                if record["digests"].get(key) != value:
                    mismatched.add(key)
                    bad += 1
        if record.get("verify_failed"):
            # The pass's outputs disagree with a recomputation: none count.
            problems.extend(record["verify_failed"])
            bad = operations
        attempted += operations
        failed += min(bad, operations)
    for key in sorted(mismatched):
        problems.append(f"{workload} output {key} differs from the "
                        + ("cold report" if serving else "pin or the first pass"))
    return {"attempted": max(attempted, 1), "failed": failed}


# -- metrics --------------------------------------------------------------------


def _summary(value: float, samples: List[float], unit: str, better: str,
             n: int) -> Dict[str, Any]:
    """``value`` as reported, with the per-pass samples behind it."""
    if len(samples) < 2:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"value": value, "unit": unit, "q1": q1, "q3": q3, "n": n,
            "best": min(samples) if better == "lower" else max(samples),
            "samples": samples}


def end_to_end(runner: WorkloadRunner, declared: List[dict]) -> Dict[str, Dict[str, Any]]:
    """Every end-to-end metric, with its per-pass samples and quartiles.

    ``setup_s`` and ``peak_rss_mib`` report the median over the run's
    passes.  The timings report means over the whole run: ``wall_s`` is
    the mean pass time, ``request_mean_s`` the mean latency of every
    request of every pass, and the two rates divide the work of every pass
    by the time all of them took.  A shared host runs at a fast or a slow
    speed for seconds at a time; a median of pass times or of latencies
    jumps between the two, while a mean follows the share of the run spent
    at each.  ``request_p90_s`` pools every request of every pass.  A
    batch workload's pass is one request, so there its ``request_*``
    values restate ``wall_s``.
    """
    records = runner.records
    latencies = [r.get("latencies", [r["wall_s"]]) for r in records]
    pooled = [latency for per_pass in latencies for latency in per_pass]
    per_pass = {
        "setup_s": [r["setup_s"] for r in records],
        "wall_s": [r["wall_s"] for r in records],
        "branches_per_s": [r["branches"] / r["wall_s"] for r in records],
        "peak_rss_mib": [r["peak_rss_bytes"] / 2**20 for r in records],
        "request_mean_s": [statistics.mean(x) for x in latencies],
        "request_p90_s": [layers.percentile(x, 90) for x in latencies],
        "requests_per_s": [len(x) / r["wall_s"] for x, r in zip(latencies, records)],
    }
    total_wall = sum(per_pass["wall_s"])
    value = {
        "setup_s": statistics.median(per_pass["setup_s"]),
        "wall_s": total_wall / len(records),
        "branches_per_s": sum(r["branches"] for r in records) / total_wall,
        "peak_rss_mib": statistics.median(per_pass["peak_rss_mib"]),
        "request_mean_s": statistics.mean(pooled),
        "request_p90_s": total_wall / len(records),
        "requests_per_s": len(pooled) / total_wall,
    }
    if runner.workload == "serve_warm":
        value["request_p90_s"] = layers.percentile(pooled, 90)
    summaries = {}
    for metric in declared:
        name, samples = metric["name"], per_pass[metric["name"]]
        n = len(pooled) if name in ("request_mean_s", "request_p90_s") else len(samples)
        summaries[name] = _summary(value[name], samples, metric["unit"],
                                   metric["better"], n)
    return summaries


def traced_metrics(runner: WorkloadRunner, traced: dict, trace_out: str) -> Dict[str, float]:
    with open(trace_out) as fh:
        events = json.load(fh)["traceEvents"]
    untraced = statistics.median(r["wall_s"] for r in runner.records)
    return layers.layer_metrics(
        events, traced["main_pid"], traced["wall_s"], untraced,
        traced["cache_write_bytes"], traced.get("serve"),
    )


def trace_path(workload: str) -> str:
    return os.path.join(RESULTS, f"trace_{workload}.json")


# -- the two modes --------------------------------------------------------------


def declared_units(benchmark: dict, section: str) -> Dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in benchmark[section]}


def run_one(args, benchmark, pins) -> int:
    """One workload for ``--seconds``; the last line printed is one JSON object.

    ``--seconds`` counts from the start, so it includes ``serve_warm``'s
    cache prime.
    """
    start = time.monotonic()
    runner = WorkloadRunner(args.workload, args.seed, args.scale, "run")
    try:
        if args.trace:
            runner.run_pass(verify=True)
            traced = runner.run_pass(trace_out=trace_path(args.workload))
            counts = check(runner, pins, traced)
            values: Dict[str, float] = {}
            if traced is not None and runner.records:
                values = traced_metrics(runner, traced, trace_path(args.workload))
            units = declared_units(benchmark, "per_layer")
        else:
            # Start another pass only while it is expected to end within
            # --seconds, but always take MIN_PASSES.
            while runner.run_pass(verify=not runner.records) is not None:
                costs = [r["setup_s"] + r["wall_s"] for r in runner.records]
                elapsed = time.monotonic() - start
                if (len(runner.records) >= MIN_PASSES
                        and elapsed + statistics.median(costs) > args.seconds):
                    break
            counts = check(runner, pins)
            units = declared_units(benchmark, "end_to_end")
            values = {}
            if runner.records:
                summaries = end_to_end(runner, benchmark["end_to_end"])
                values = {name: entry["value"] for name, entry in summaries.items()}
    finally:
        runner.close()
    for problem in runner.problems:
        print(f"problem: {problem}", file=sys.stderr)
    correct = (counts["failed"] == 0 and not runner.problems
               and all(name in values for name in units))
    print(json.dumps({
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values
        },
    }))
    return 0 if correct else 1


def host_facts() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def run_all(args, benchmark, pins) -> int:
    """Every workload: interleaved passes, then one traced pass each."""
    names = [entry["name"] for entry in benchmark["workloads"]]
    runners = {name: WorkloadRunner(name, args.seed, args.scale, "all") for name in names}
    layer_units = declared_units(benchmark, "per_layer")
    report: Dict[str, Any] = {
        "schema": "perfbench/v2",
        "comparable": args.scale == 1.0,
        "scale": args.scale,
        "seed": args.seed,
        "passes": args.passes,
        "host": host_facts(),
        "workloads": {},
    }
    try:
        for index in range(args.passes):
            for name in names:
                print(f"pass {index + 1}/{args.passes}: {name}", flush=True)
                runners[name].run_pass(verify=index == 0)
        for name in names:
            runner = runners[name]
            print(f"traced pass: {name}", flush=True)
            traced = runner.run_pass(trace_out=trace_path(name))
            counts = check(runner, pins, traced)
            entry: Dict[str, Any] = {
                "length": runner.length,
                "attempted": counts["attempted"],
                "failed": counts["failed"],
                "failed_fraction": counts["failed"] / counts["attempted"],
                "problems": runner.problems,
                "end_to_end": {},
                "per_layer": {},
            }
            if runner.records:
                entry["end_to_end"] = {
                    metric: summary
                    for metric, summary in end_to_end(
                        runner, benchmark["end_to_end"]
                    ).items()
                    if name == "serve_warm" or metric not in REQUEST_METRICS
                }
            if traced is not None and runner.records:
                values = traced_metrics(runner, traced, trace_path(name))
                entry["per_layer"] = {
                    metric: {"value": values[metric], "unit": unit}
                    for metric, unit in layer_units.items()
                }
                entry["trace"] = os.path.relpath(trace_path(name), ROOT)
            entry["correct"] = (
                counts["failed"] == 0 and not runner.problems
                and bool(entry["end_to_end"]) and bool(entry["per_layer"])
            )
            report["workloads"][name] = entry
    finally:
        for runner in runners.values():
            runner.close()
    print_report(report)
    out = args.out or os.path.join(RESULTS, "bench.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"results written to {out}")
    ok = all(entry["correct"] for entry in report["workloads"].values())
    return 0 if ok else 1


def print_report(report: Dict[str, Any]) -> None:
    for name, entry in report["workloads"].items():
        print(f"\n== {name} (length {entry['length']}, "
              f"failed_fraction {entry['failed_fraction']:.3f} ratio) ==")
        for problem in entry["problems"]:
            print(f"  problem: {problem}")
        for metric, value in entry["end_to_end"].items():
            print(f"  {metric:<22} {value['value']:>14.6g} {value['unit']:<9}"
                  f" q1 {value['q1']:.6g}  q3 {value['q3']:.6g}"
                  f"  best {value['best']:.6g}  n {value['n']}")
        for metric, value in entry["per_layer"].items():
            print(f"  {metric:<34} {value['value']:>14.6g} {value['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="run one workload for --seconds and print one JSON line")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--pins", default=PINS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    if args.workload is not None and args.workload not in LENGTHS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(LENGTHS)}", file=sys.stderr)
        return 2
    pins = load_pins(args.pins)
    os.makedirs(RESULTS, exist_ok=True)
    if args.workload is not None:
        return run_one(args, benchmark, pins)
    return run_all(args, benchmark, pins)


if __name__ == "__main__":
    sys.exit(main())
