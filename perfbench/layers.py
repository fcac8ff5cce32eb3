"""Per-layer metrics of the traced pass, from the program's own span trace.

The engine records spans on ``repro.obs.TRACER`` at most layer boundaries
already: trace generation (``generate_trace``, ``stream_trace``),
simulation (``simulate``, and ``job`` / ``chunk`` in pool workers, whose
spans it ships back), ``collect_correlation``, ``select_oracle``,
``prime_labs``, ``build_labs`` and ``experiment``.  :func:`install` adds
spans, from the benchmark's side, only around the entry points it leaves
untraced: ``ResultCache`` loads and stores, ``build_plan``,
``ExperimentResult.render``, ``SelectiveHistoryPredictor.fit``, and the
folds of ``stream_report`` with the windows they read.  No file of the
program changes.

Two adjustments make one trace per pass out of the tracer:

* ``run_spec`` and ``run_sweep`` reset the tracer when they start (a
  server runs one per request), so each reset first hands the spans
  recorded so far to the :class:`PassTrace`;
* a process's span times are relative to its own last reset, so
  ``chrome_events`` adds the ``perf_counter()`` reading of that reset.
  ``perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, one clock for the pass
  process and the pool workers it forks, so their spans line up.

A layer's self time is its span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional

#: The paper's nine experiments, in paper order.
PAPER_IDS = (
    "table1", "fig4", "fig5", "table2", "fig6", "table3", "fig7", "fig8",
    "fig9",
)
#: Simulation tasks with their own ``sim.kernel.<task>.s`` metric.
KERNEL_TASKS = (
    "gshare", "if_gshare", "pas", "if_pas", "loop", "block", "ideal_static",
    "fixed_best", "selective",
)

#: The layer each span name belongs to.  Other spans (``report``,
#: ``point``, ``sweep``, ``build_labs``, ``job``) only group their
#: children; their own time is what no layer accounts for.
LAYER_OF = {
    "generate_trace": "trace.source",
    "stream_trace": "trace.source",
    "read_window": "trace.source",
    "simulate": "sim.kernel",
    "chunk": "sim.kernel",
    "collect_correlation": "correlation.collect",
    "select_oracle": "oracle.select",
    "fit_selective": "oracle.fit",
    "cache_load": "cache.read",
    "cache_store": "cache.write",
    "prime_labs": "sched.prime",
    "prime_chunked": "sched.prime",
    "build_plan": "plan.build",
    "experiment": "experiment",
    "render": "render",
}
#: Every layer; the four workloads' traced passes emit spans of each.
LAYERS = tuple(sorted(set(LAYER_OF.values())))


class PassTrace:
    """Every span of one pass, gathered across tracer resets."""

    def __init__(self) -> None:
        self.events: List[Dict[str, Any]] = []

    def finish(self, path: str) -> None:
        """Gather the spans still in the tracer and write the pass's trace.

        The Chrome-trace file keeps the tracer's event order (each span
        tree in pre-order), which :func:`self_times` relies on; times are
        shifted to start at 0.
        """
        from repro.obs import TRACER

        events = self.events + TRACER.chrome_events()
        origin = min((event["ts"] for event in events), default=0.0)
        for event in events:
            event["ts"] -= origin
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def install() -> PassTrace:
    """Trace the untraced layer entry points; return the pass's trace.

    Must run before the workload creates its worker pool (the pool forks
    lazily on first submit), so workers inherit the wrappers.
    """
    from repro.obs import TRACER

    trace = PassTrace()
    main_pid = os.getpid()
    reset, chrome_events = TRACER.reset, TRACER.chrome_events
    origin = [0.0]  # perf_counter() at this process's last reset

    def absolute_events():
        pid = os.getpid()
        events = chrome_events()
        for event in events:
            if event["pid"] == pid:
                event["ts"] += origin[0] * 1e6
        return events

    def gathering_reset():
        if os.getpid() == main_pid:
            trace.events.extend(absolute_events())
        reset()
        origin[0] = time.perf_counter()

    TRACER.reset()
    origin[0] = time.perf_counter()
    TRACER.reset = gathering_reset
    TRACER.chrome_events = absolute_events
    _wrap_entry_points()
    return trace


# -- the untraced entry points --------------------------------------------------


def _traced(name: str, fn: Callable, attrs=None, after=None) -> Callable:
    """``fn`` inside a span; ``attrs(args)`` at entry, ``after(result)`` at exit."""
    from repro.obs import span

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name, **(attrs(args) if attrs else {})) as node:
            result = fn(*args, **kwargs)
            if after is not None:
                node.attrs.update(after(result))
            return result

    return wrapper


def _windows(fn: Callable) -> Callable:
    """Each window a ``chunks`` generator yields becomes one span."""
    from repro.obs import span

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            with span("read_window") as node:
                window = next(iterator, None)
                if window is None:
                    return
                node.attrs["length"] = len(window)
            yield window

    return wrapper


def _rebind(original, wrapped) -> None:
    """Replace ``original`` on every ``repro`` module that bound it by name."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _wrap_function(module_name: str, attr: str, name: str, **hooks) -> None:
    original = getattr(importlib.import_module(module_name), attr)
    _rebind(original, _traced(name, original, **hooks))


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _wrap_entry_points() -> None:
    import repro.api  # noqa: F401  (binds the names _rebind must reach)
    import repro.analysis.streamed  # noqa: F401
    from repro.analysis.cache import ResultCache
    from repro.experiments.base import ExperimentResult, experiment_ids
    from repro.predictors.selective import SelectiveHistoryPredictor
    from repro.trace.stream import TraceStream

    experiment_ids()  # imports every experiment module and result class

    for kind, label in (("bitmap", "bitmap"), ("correlation", "corr"),
                        ("trace", "trace")):
        load, store = f"load_{kind}", f"store_{kind}"
        setattr(ResultCache, load, _traced(
            "cache_load", ResultCache.__dict__[load],
            attrs=lambda args, label=label: {"kind": label},
            after=lambda result: {"hit": result is not None},
        ))
        setattr(ResultCache, store, _traced(
            "cache_store", ResultCache.__dict__[store],
            attrs=lambda args, label=label: {"kind": label},
        ))
    _wrap_function(
        "repro.plan", "build_plan", "build_plan",
        after=lambda plan: {
            "tasks": len(plan.tasks), "deduped": plan.stats()["deduped"],
        },
    )
    for cls in _subclasses(ExperimentResult):
        if "render" in cls.__dict__:
            cls.render = _traced("render", cls.__dict__["render"])
    SelectiveHistoryPredictor.fit = _traced(
        "fit_selective", SelectiveHistoryPredictor.__dict__["fit"]
    )

    # stream_report: one kernel span per task fold, one span per window.
    from repro.analysis.config import DEFAULT_CONFIG
    from repro.analysis.streamed import CHUNKABLE_TASKS, task_predictor

    task_of = {
        type(task_predictor(DEFAULT_CONFIG, task)): task
        for task in CHUNKABLE_TASKS
    }
    TraceStream.chunks = _windows(TraceStream.__dict__["chunks"])
    _wrap_function(
        "repro.sim.fold", "fold_correct_count", "simulate",
        attrs=lambda args: {"predictor": task_of.get(type(args[0]), "other")},
        after=lambda result: {"length": result[1]},
    )
    for task in ("ideal_static", "fixed_best"):
        _wrap_function(
            "repro.analysis.streamed", f"{task}_count", "simulate",
            attrs=lambda args, task=task: {"predictor": task},
            after=lambda result: {"length": result[1]},
        )


# -- from spans to metrics --------------------------------------------------------


def self_times(events: List[Dict[str, Any]]) -> List[tuple]:
    """``(event, self seconds, parent event or None)`` for every span.

    The tracer emits each span tree in pre-order, a root being an event
    without a ``parent`` argument, so a span's parent is the innermost
    open span of its tree that has not ended before it starts.
    """
    out: List[list] = []
    stack: List[list] = []
    for event in events:
        if "parent" not in event["args"]:
            stack = []
        while stack and stack[-1][0]["ts"] + stack[-1][0]["dur"] <= event["ts"]:
            stack.pop()
        parent = stack[-1] if stack else None
        entry = [event, event["dur"] / 1e6, parent[0] if parent else None]
        if parent is not None:
            parent[1] -= entry[1]
        out.append(entry)
        stack.append(entry)
    return [(event, max(own, 0.0), parent) for event, own, parent in out]


def percentile(values: List[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _kernel_task(event) -> Optional[str]:
    args = event["args"]
    task = args.get("predictor", args.get("task"))
    if task is not None and str(task).startswith("selective"):
        return "selective"
    return task


def layer_metrics(
    events: List[Dict[str, Any]],
    main_pid: int,
    traced_wall_s: float,
    untraced_wall_s: float,
    cache_write_bytes: int,
    serve_samples: Optional[List[Dict[str, Any]]] = None,
) -> Dict[str, float]:
    """Every per-layer metric of one traced pass, by name."""
    spans = self_times(events)

    def of(layer, where=lambda event: True):
        return [entry for entry in spans
                if LAYER_OF.get(entry[0]["name"]) == layer and where(entry[0])]

    def seconds(selected):
        return sum(own for _, own, _ in selected)

    def total(selected, key):
        return sum(event["args"].get(key, 0) for event, _, _ in selected)

    metrics: Dict[str, float] = {}
    for layer in ("trace.source", "sim.kernel", "correlation.collect"):
        selected = of(layer)
        metrics[f"{layer}.s"] = seconds(selected)
        metrics[f"{layer}.branches"] = total(selected, "length")
        metrics[f"{layer}.branches_per_s"] = _ratio(
            metrics[f"{layer}.branches"], metrics[f"{layer}.s"]
        )
        if layer != "trace.source":
            metrics[f"{layer}.calls"] = len(selected)
    for task in KERNEL_TASKS:
        metrics[f"sim.kernel.{task}.s"] = seconds(
            of("sim.kernel", lambda event: _kernel_task(event) == task)
        )

    metrics["oracle.select.s"] = seconds(of("oracle.select"))
    metrics["oracle.select.calls"] = len(of("oracle.select"))
    metrics["oracle.fit.s"] = seconds(of("oracle.fit"))

    reads, writes = of("cache.read"), of("cache.write")
    metrics["cache.read.s"] = seconds(reads)
    metrics["cache.write.s"] = seconds(writes)
    metrics["cache.read.calls"] = len(reads)
    metrics["cache.write.calls"] = len(writes)
    metrics["cache.corr.read.s"] = seconds(
        of("cache.read", lambda event: event["args"]["kind"] == "corr")
    )
    metrics["cache.corr.write.s"] = seconds(
        of("cache.write", lambda event: event["args"]["kind"] == "corr")
    )
    metrics["cache.write.bytes"] = cache_write_bytes
    metrics["cache.hit_ratio"] = _ratio(total(reads, "hit"), len(reads))

    # The scheduler: its priming spans in the pass process, and the work
    # it ran -- their in-process children for jobs=1 (tasks and their
    # cache writes), the pool workers' root spans (one per task) otherwise.
    primes = of("sched.prime", lambda event: event["pid"] == main_pid)
    worker_roots = [
        event for event, _, parent in spans
        if event["pid"] != main_pid and parent is None
    ]
    in_process = [
        event for event, _, parent in spans
        if parent is not None and parent["pid"] == main_pid
        and LAYER_OF.get(parent["name"]) == "sched.prime"
    ]
    busy_s = sum(event["dur"] for event in worker_roots + in_process) / 1e6
    metrics["sched.prime.s"] = sum(event["dur"] for event, _, _ in primes) / 1e6
    metrics["sched.executed"] = len(worker_roots) + sum(
        1 for event in in_process
        if LAYER_OF.get(event["name"]) in ("sim.kernel", "correlation.collect")
    )
    metrics["sched.worker_busy.s"] = busy_s
    metrics["sched.utilization"] = _ratio(busy_s, sum(
        event["dur"] / 1e6 * event["args"].get("jobs", 1) for event, _, _ in primes
    ))

    plans = of("plan.build")
    metrics["plan.build.s"] = seconds(plans)
    metrics["plan.tasks"] = total(plans, "tasks")
    metrics["plan.deduped"] = total(plans, "deduped")

    metrics["experiment.self_s"] = seconds(of("experiment"))
    for experiment_id in PAPER_IDS:
        metrics[f"experiment.{experiment_id}.self_s"] = seconds(of(
            "experiment",
            lambda event: event["args"].get("experiment") == experiment_id,
        ))
    metrics["render.s"] = seconds(of("render"))

    samples = [s for s in (serve_samples or []) if "latency_s" in s]
    waits = [s["queue_wait_s"] for s in samples]
    metrics["serve.queue_wait.p50_s"] = percentile(waits, 50)
    metrics["serve.queue_wait.p90_s"] = percentile(waits, 90)
    metrics["serve.run.p50_s"] = percentile([s["run_s"] for s in samples], 50)
    metrics["serve.dedup_ratio"] = _ratio(
        sum(1 for s in samples if s["deduped"]), len(samples)
    )
    metrics["serve.rejected"] = sum(
        1 for s in (serve_samples or []) if s.get("rejected")
    )

    main_layer_s = sum(
        own for event, own, _ in spans
        if event["pid"] == main_pid and event["name"] in LAYER_OF
    )
    metrics["bench.traced_wall_s"] = traced_wall_s
    metrics["bench.self_coverage"] = _ratio(main_layer_s, traced_wall_s)
    metrics["bench.trace_overhead"] = _ratio(traced_wall_s, untraced_wall_s) - 1
    return metrics
