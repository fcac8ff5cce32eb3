"""One pass of one benchmark workload, run in a fresh process.

``bench.py`` starts this script once per pass, so every pass pays its own
imports and starts with empty in-process memos (``load_benchmark`` keeps an
LRU of generated traces), and ``ru_maxrss`` measures that pass alone.  The
script prints one JSON record as the last line of its standard output:

* ``setup_s``: time from the parent's spawn timestamp (``--spawned-at``,
  ``time.monotonic()``, one clock for every process on Linux) until the
  workload is ready to run -- interpreter start, imports, fresh directories,
  server start;
* ``wall_s``: the timed region;
* ``branches``, ``operations``, ``failed``, ``digests``: work done and the
  outputs ``bench.py`` checks against the pins or against each other;
* ``peak_rss_bytes`` and ``cache_write_bytes``;
* for ``serve_warm``, ``latencies`` and the client-side ``serve`` samples;
* for the traced pass (``--trace-out``), ``main_pid``.

Usage (normally only ``bench.py`` calls it)::

    PYTHONPATH=src python3 perfbench/passes.py report_cold --seed 12345 \\
        --length 2000 --work-dir perfbench/results/work
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import random
import resource
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from layers import PAPER_IDS, install

#: Kernel-only experiments: they need no correlation collection.
SWEEP_EXPERIMENTS = ("fig7", "fig9", "table3")
SWEEP_AXES = (
    ("gshare_history_bits", (8, 10, 12, 14, 16)),
    ("pas_history_bits", (8, 12)),
)

STREAM_BENCHMARK = "compress"
STREAM_CHUNK_BRANCHES = 65536

#: Serve traffic per pass: closed-loop clients, and the twelve distinct
#: requests they share.  Each paper experiment is asked for two or three
#: times, in requests of one to three experiments.  All but one read
#: correlation data (fig4, fig5, table2 and fig8 do), which costs most of
#: a request, so every pass does the same work whatever the seed.  With
#: uniform random subsets per seed, a pass's work, and so ``wall_s``,
#: spread by 38% over ten seeds, where a fixed mix run alternately with
#: them spread by 14%.
SERVE_CLIENTS = 2
SERVE_MIX = (
    ("fig4",), ("fig5",), ("table2",), ("fig8",),
    ("table1", "fig4"), ("fig5", "fig6"), ("table2", "table3"),
    ("fig7", "fig8"), ("fig4", "fig6", "fig9"), ("fig5", "table2", "fig9"),
    ("table1", "table3", "fig7"), ("table1", "fig8", "fig9"),
)
#: Sent once more, last, by the client that sent it first, so the server's
#: dedup answers it from the finished run at once.  Sent by the other
#: client it could join the run still in flight, and its latency would
#: depend on the timing of the two clients.
SERVE_REPEAT = ("fig4",)


def peak_rss_bytes() -> int:
    """Peak RSS of this process or any child it has reaped, in bytes.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS.  Children count so
    that the sweep's pool workers are included once they are joined.
    """
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _experiment_digests(manifest: Dict[str, Any]) -> Dict[str, str]:
    return {
        entry["id"]: entry["result_digest"] for entry in manifest["experiments"]
    }


def _suite_branches(manifest: Dict[str, Any]) -> int:
    return sum(entry["length"] for entry in manifest["traces"].values())


def serve_requests(seed: int, pass_index: int) -> List[List[Tuple[str, ...]]]:
    """Each client's request sequence for one pass.

    Every pass sends the requests of ``SERVE_MIX`` and then
    ``SERVE_REPEAT``.  The seed and the pass's index shuffle the mix and
    deal it out to the clients, so which requests run side by side changes
    from pass to pass, while the work a pass does stays the same.
    """
    rng = random.Random(f"serve-{seed}-{pass_index}")
    requests = list(SERVE_MIX)
    rng.shuffle(requests)
    sequences = [requests[client::SERVE_CLIENTS] for client in range(SERVE_CLIENTS)]
    for sequence in sequences:
        if SERVE_REPEAT in sequence:
            sequence.append(SERVE_REPEAT)
    return sequences


# -- workloads ----------------------------------------------------------------
#
# Each workload is split into ``setup`` (returns a state object; its cost is
# part of ``setup_s``) and ``run`` (the timed region; returns the record
# fields).  ``verify`` runs after the timed region when asked and returns
# one message per check that failed.


def _fresh_dir(work_dir: str, name: str) -> str:
    path = os.path.join(work_dir, f"{name}-{os.getpid()}")
    os.makedirs(path)
    return path


def _report_spec(length: int, seed: int, cache_dir: str):
    from repro.api import spec_from_kwargs

    return spec_from_kwargs(
        None, max_length=length, seed=seed, jobs=1, cache_dir=cache_dir
    )


def report_setup(args) -> Dict[str, Any]:
    import repro.api  # noqa: F401  (imports are part of set-up)

    cache_dir = args.cache_dir or _fresh_dir(args.work_dir, "cache")
    return {"cache_dir": cache_dir}


def report_run(args, state) -> Dict[str, Any]:
    from repro.api import run_spec

    run = run_spec(_report_spec(args.length, args.seed, state["cache_dir"]))
    state["digests"] = _experiment_digests(run.manifest)
    return {
        "digests": state["digests"],
        "operations": len(PAPER_IDS),
        "failed": len(run.failures) + len(set(PAPER_IDS) - set(state["digests"])),
        "branches": _suite_branches(run.manifest),
    }


def report_verify(args, state) -> List[str]:
    """A warm rerun over the now-filled cache must equal the cold run."""
    from repro.api import run_spec

    warm = run_spec(_report_spec(args.length, args.seed, state["cache_dir"]))
    if _experiment_digests(warm.manifest) != state["digests"]:
        return ["warm rerun differs from the cold run"]
    return []


def sweep_setup(args) -> Dict[str, Any]:
    import repro.api  # noqa: F401

    return {"cache_dir": _fresh_dir(args.work_dir, "cache")}


def _sweep(args, cache_dir: str):
    from repro.api import SweepSpec, run_sweep, spec_from_kwargs

    spec = spec_from_kwargs(
        SWEEP_EXPERIMENTS, max_length=args.length, seed=args.seed, jobs=2,
        cache_dir=cache_dir,
    )
    run = run_sweep(dataclasses.replace(spec, sweep=SweepSpec(axes=SWEEP_AXES)))
    digests = {
        "_".join(f"{k}-{v}" for k, v in sorted(point.coords.items())):
            _digest(_experiment_digests(point.report.manifest))
        for point in run.points
    }
    return run, digests


def sweep_run(args, state) -> Dict[str, Any]:
    run, state["digests"] = _sweep(args, state["cache_dir"])
    # Reap the pool's workers so their peak RSS reaches RUSAGE_CHILDREN.
    for child in multiprocessing.active_children():
        child.join()
    return {
        "digests": state["digests"],
        "operations": len(run.points),
        "failed": sum(1 for point in run.points if not point.report.ok),
        "branches": sum(
            _suite_branches(point.report.manifest) for point in run.points
        ),
    }


def sweep_verify(args, state) -> List[str]:
    _, warm = _sweep(args, state["cache_dir"])
    return [] if warm == state["digests"] else ["warm sweep differs from cold"]


def stream_setup(args) -> Dict[str, Any]:
    import repro.analysis.streamed  # noqa: F401
    import repro.workloads.suite  # noqa: F401

    directory = _fresh_dir(args.work_dir, "stream")
    return {"path": os.path.join(directory, f"{STREAM_BENCHMARK}.bpt")}


def stream_run(args, state) -> Dict[str, Any]:
    from repro.analysis.config import DEFAULT_CONFIG
    from repro.analysis.streamed import stream_report
    from repro.trace.stream import TraceStream
    from repro.workloads.suite import stream_benchmark

    written = stream_benchmark(
        STREAM_BENCHMARK, state["path"], length=args.length,
        run_seed=args.seed, chunk_branches=STREAM_CHUNK_BRANCHES,
    )
    report = stream_report(TraceStream.open(state["path"]), DEFAULT_CONFIG)
    state["report"] = report
    digests = {
        task: [int(entry["correct"]), int(entry["total"])]
        for task, entry in report.items()
    }
    return {
        "digests": digests,
        "operations": len(report),
        "failed": sum(1 for c, t in digests.values() if t != written or c > t),
        "branches": written,
    }


def stream_verify(args, state) -> List[str]:
    """The streamed gshare/PAs folds must equal whole-trace simulation."""
    import numpy as np

    from repro.analysis.config import DEFAULT_CONFIG
    from repro.analysis.streamed import task_predictor
    from repro.trace.stream import TraceStream

    whole = TraceStream.open(state["path"]).whole()
    failed = []
    for task in ("gshare", "pas"):
        correct = int(np.count_nonzero(
            task_predictor(DEFAULT_CONFIG, task).simulate(whole)
        ))
        if correct != state["report"][task]["correct"]:
            failed.append(f"streamed {task} differs from whole-trace run")
    return failed


def serve_setup(args) -> Dict[str, Any]:
    from repro.api import spec_from_kwargs
    from repro.serve import AnalysisServer, ServerThread
    from repro.spec import EngineOptions

    server = AnalysisServer(
        EngineOptions(jobs=1, cache=True, cache_dir=args.cache_dir),
        drain_grace=0.0,
    )
    thread = ServerThread(server)
    url = thread.start()
    specs = [
        [spec_from_kwargs(ids, max_length=args.length, seed=args.seed)
         for ids in sequence]
        for sequence in serve_requests(args.seed, args.pass_index)
    ]
    return {"close": thread.stop, "url": url, "specs": specs}


def _serve_client(url: str, index: int, specs, out: List[Dict[str, Any]]):
    """Closed loop: submit, follow the event stream, then submit the next."""
    from repro.client import ServeClient
    from repro.errors import ReproError

    client = ServeClient(url, client_id=f"bench-{index}")
    for spec in specs:
        sample: Dict[str, Any] = {"experiments": list(spec.experiments)}
        submitted = time.monotonic()
        try:
            run_id, created = client.submit(spec)
            seen: Dict[str, float] = {}
            for event in client.events(run_id):
                seen.setdefault(event["type"], time.monotonic())
                if event["type"] == "manifest":
                    sample["digests"] = _experiment_digests(event["manifest"])
                if event["type"] in ("done", "failed"):
                    sample["ok"] = event["type"] == "done" and bool(event.get("ok"))
                    break
        except (ReproError, OSError) as error:
            sample.update(ok=False, rejected=True, error=str(error))
            out.append(sample)
            continue
        finished = time.monotonic()
        started = seen.get("started", finished)
        sample.update(
            deduped=not created,
            latency_s=finished - submitted,
            queue_wait_s=started - submitted,
            run_s=finished - started,
        )
        sample.setdefault("ok", False)
        out.append(sample)


def serve_run(args, state) -> Dict[str, Any]:
    outputs: List[List[Dict[str, Any]]] = [[] for _ in state["specs"]]
    threads = [
        threading.Thread(
            target=_serve_client, args=(state["url"], index, specs, outputs[index])
        )
        for index, specs in enumerate(state["specs"])
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    samples = [sample for out in outputs for sample in out]
    completed = sum(1 for sample in samples if sample["ok"])
    return {
        "operations": len(samples),
        "failed": len(samples) - completed,
        "latencies": [s["latency_s"] for s in samples if "latency_s" in s],
        "serve": samples,
        "branches": completed * _suite_branches_at(args.length),
    }


def _suite_branches_at(length: int) -> int:
    """Branches in the suite at ``length``: what each served request covers."""
    from repro.workloads.suite import BENCHMARK_NAMES, scaled_length

    return sum(scaled_length(name, length) for name in BENCHMARK_NAMES)


WORKLOADS: Dict[str, Tuple[Callable, Callable, Optional[Callable]]] = {
    "report_cold": (report_setup, report_run, report_verify),
    "serve_warm": (serve_setup, serve_run, None),
    "sweep_kernels": (sweep_setup, sweep_run, sweep_verify),
    "stream_long": (stream_setup, stream_run, stream_verify),
}


def _cache_bytes(cache_dir: Optional[str]) -> int:
    if cache_dir is None:
        return 0
    from repro.analysis.cache import ResultCache

    return ResultCache(cache_dir).total_bytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--length", type=int, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--pass-index", type=int, default=0,
                        help="which pass of the run this is (picks serve requests)")
    parser.add_argument("--trace-out", default=None,
                        help="write the pass's Chrome trace here (the traced pass)")
    parser.add_argument("--verify", action="store_true",
                        help="run the workload's internal consistency check")
    args = parser.parse_args(argv)
    spawned = args.spawned_at if args.spawned_at is not None else time.monotonic()

    # Wrappers go in before set-up, so a pool forked later inherits them.
    trace = install() if args.trace_out else None

    setup, run, verify = WORKLOADS[args.workload]
    state = setup(args)
    record: Dict[str, Any] = {"setup_s": time.monotonic() - spawned}
    cache_dir = state.get("cache_dir", args.cache_dir)
    bytes_before = _cache_bytes(cache_dir)
    start = time.monotonic()
    record.update(run(args, state))
    record["wall_s"] = time.monotonic() - start
    record["cache_write_bytes"] = _cache_bytes(cache_dir) - bytes_before
    # Before the check, which may hold a whole trace the pass never did.
    record["peak_rss_bytes"] = peak_rss_bytes()
    if trace is not None:
        trace.finish(args.trace_out)
        record["main_pid"] = os.getpid()
    if args.verify and verify is not None:
        record["verify_failed"] = verify(args, state)
    if "close" in state:
        state["close"]()
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
