"""Parallel simulation scheduler with fault-tolerant supervision.

A full report simulates seven predictors plus the best-of-32 fixed
pattern sweep and the tagged-correlation collection over eight benchmark
traces -- 72 independent ``(benchmark, task)`` jobs with no shared
state.  This module runs them as *lanes* -- one lane per job, each an
ordered list of windows -- over a :class:`~concurrent.futures.\
ProcessPoolExecutor` (or in-process for ``jobs <= 1``) and folds the
results back into each :class:`~repro.analysis.runner.Lab`'s memo dict,
so downstream experiments see exactly the state a serial run would have
produced.

Lanes: a whole-trace job is a one-window lane.  With
``chunk_branches`` set, the causal tasks
(:data:`~repro.analysis.streamed.CHUNKABLE_TASKS`) become many-window
lanes: window ``k`` resumes from the pickled predictor state window
``k-1`` returned, so a lane is sequential, but lanes run side by side.
Pool workers read chunk windows from the benchmark's columns, published
once into :mod:`multiprocessing.shared_memory`, so nothing
trace-length-proportional is pickled into a submission.  The folded
bitmaps are bit-identical to the unchunked run (the PC011 contract
check and the split-point property tests enforce it).

Determinism: every job is a pure function of ``(benchmark name, length,
run seed, config, task)``; pool workers regenerate a whole-trace lane's
trace from those inputs (a per-process LRU plus the shared disk cache
make this cheap) and the parent verifies the returned trace digest
before folding, so completion order and worker scheduling cannot change
any result.  In-process lanes run on the lab's own trace.

Resilience: one loop owns submission, retries, deadlines and pool
rebuilds for every lane, chunked or not, pooled or in-process.  A
failing attempt (worker exception, injected crash, lost worker,
wall-clock timeout) is retried with deterministic capped backoff up to
the :class:`~repro.resilience.RetryPolicy`'s attempt budget, from the
state carried into the failed window; a lane's attempt number counts
its failures across all its windows.  A timed-out or broken pool is
killed and rebuilt, with innocent in-flight lanes resubmitted at their
*current* attempt number.  A lane that exhausts its budget becomes a
structured :class:`~repro.resilience.TaskFailure` -- the run continues
and the lab computes that task lazily in-process if an experiment needs
it.  ``KeyboardInterrupt``/``SIGTERM`` tear the pool down cleanly
(cancel pending futures, terminate workers) instead of leaking it.  The
:class:`~repro.resilience.FaultInjector` is consulted once per lane
attempt, on the window where the attempt starts, so crashes, hangs and
cache corruption are reproducible: the same fault spec yields the same
attempt sequence -- and identical folded results and resilience
counters -- for ``--jobs 1`` and ``--jobs 4``, chunked or not.

Observability crosses the process boundary the same way the results do:
each worker resets its per-process :data:`repro.obs.METRICS` registry
and :data:`repro.obs.TRACER` per window, and ships the metric delta plus
its span events back alongside the result; the parent folds both in the
same deterministic (sorted-benchmark, task-order) sequence it folds
bitmaps, so aggregated counters are independent of completion order and
``sum(worker deltas) == single-process counters`` for every work-unit
counter.  (A crashed attempt's delta dies with it; only successful
attempts are folded, identically in serial and parallel runs.)

Worker count comes from ``--jobs``, the :data:`ENV_JOBS` environment
variable, or ``os.cpu_count()``; ``jobs <= 1`` runs the same loop with
each window executed in-process at submission -- no executor, no
pickling of results, no subprocesses.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.cache import ResultCache, result_key
from repro.analysis.config import LabConfig
from repro.analysis.runner import Lab
from repro.analysis.streamed import CHUNKABLE_TASKS, task_predictor
from repro.correlation.tagging import collect_correlation_data
from repro.obs.metrics import METRICS
from repro.obs.tracing import TRACER, span
from repro.predictors.pattern import best_fixed_length_correct
from repro.resilience.faults import (
    HANG_SECONDS,
    FaultInjector,
    FaultSpecError,
    InjectedCrash,
)
from repro.resilience.retry import RetryPolicy, TaskFailure, TaskTimeout
from repro.trace.stream import chunk_spans, normalize_chunk_branches
from repro.trace.trace import Trace

#: Environment variable overriding the worker count.
ENV_JOBS = "REPRO_JOBS"

#: Pseudo-task name for the tagged-correlation collection.
CORRELATION_TASK = "correlation"

#: Scheduler poll interval while futures are in flight (seconds).
_TICK = 0.05

#: Tasks a full report needs, in deterministic fold order.
DEFAULT_TASKS: Tuple[str, ...] = (
    "gshare",
    "if_gshare",
    "pas",
    "if_pas",
    "loop",
    "block",
    "ideal_static",
    "fixed_best",
    CORRELATION_TASK,
)

#: Map task name -> LabConfig factory attribute (mirrors Lab._factories).
_FACTORY_ATTRS: Dict[str, str] = {
    "gshare": "gshare",
    "if_gshare": "if_gshare",
    "pas": "pas",
    "if_pas": "if_pas",
    "loop": "loop",
    "block": "block_pattern",
    "ideal_static": "ideal_static",
}


def default_jobs() -> int:
    """Worker count: ``$REPRO_JOBS`` if set and valid, else CPU count."""
    override = os.environ.get(ENV_JOBS)
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value (None -> environment/CPU default)."""
    if jobs is None:
        return default_jobs()
    return max(1, int(jobs))


def compute_task(trace: Trace, config: LabConfig, task: str):
    """Compute one task's result on a trace (the single source of truth).

    Used for every whole-trace window, in-process and inside workers, so
    both paths produce bit-identical results and identical work-unit
    metrics (``sim.simulations`` / ``sim.correlation_collections``).
    """
    if task == CORRELATION_TASK:
        METRICS.inc("sim.correlation_collections")
        with span(
            "collect_correlation", length=len(trace)
        ), METRICS.timer("sim.seconds"):
            return collect_correlation_data(
                trace, window=config.collection_window
            )
    METRICS.inc("sim.simulations")
    with span(
        "simulate", predictor=task, length=len(trace)
    ), METRICS.timer("sim.seconds"):
        if task == "fixed_best":
            return best_fixed_length_correct(trace)
        factory = getattr(config, _FACTORY_ATTRS[task])
        return factory().simulate(trace)


def _simulate_window(
    trace: Trace,
    config: LabConfig,
    task: str,
    window: Optional[Tuple[int, int]],
    state: Optional[bytes],
) -> tuple:
    """One lane window on ``trace``: ``(result, carried state)``.

    A whole-trace window (``None``) computes the task outright.  A chunk
    window ``(start, stop)`` resumes the predictor from ``state`` (the
    pickle the previous window returned; None for the first) and
    returns the window's bitmap with the predictor's new pickled state.
    ``state`` itself is never mutated, so a retried window restarts
    from exactly the state carried into it.
    """
    if window is None:
        return compute_task(trace, config, task), None
    start, stop = window
    predictor = (
        pickle.loads(state)
        if state is not None
        else task_predictor(config, task)
    )
    with span("chunk", task=task, start=start, stop=stop):
        METRICS.inc("sim.chunk_simulations")
        bitmap = np.asarray(predictor.simulate(trace[start:stop]), dtype=bool)
        state = pickle.dumps(predictor, protocol=pickle.HIGHEST_PROTOCOL)
    return bitmap, state


def _act_out_faults(
    kinds: Sequence[str], name: str, task: str, in_process: bool
) -> None:
    """Stage an attempt's injected crash or hang before it runs.

    A worker-side hang sleeps until the parent's deadline kills the
    pool.  An in-process hang cannot be preempted, so it fails at once
    as the timeout it would become.
    """
    if "crash" in kinds:
        raise InjectedCrash(f"injected crash: {name}/{task}")
    if "hang" in kinds:
        if in_process:
            raise TaskTimeout(f"injected hang: {name}/{task}")
        time.sleep(HANG_SECONDS)


def _corrupt_result_entry(
    cache: ResultCache, digest: str, task: str, config: LabConfig
) -> None:
    """Truncate the cache entry a task just wrote (injected 'corrupt').

    The in-memory result is untouched -- the fault surfaces only on a
    later run's cache load, which the quarantine path must turn into a
    clean recompute.
    """
    if task == CORRELATION_TASK:
        key = cache.correlation_key(digest, config.collection_window)
        kind = "corr"
    else:
        key = cache.bitmap_key(digest, result_key(task, config))
        kind = "bitmap"
    path = cache.entry_path(kind, key)
    try:
        with open(path, "r+b") as fh:
            fh.truncate(8)
    except OSError:
        pass


def _run_window(job: tuple):
    """Execute one window attempt of a lane in a worker process.

    Module-level so it pickles.  A whole-trace window regenerates the
    trace from the lane's origin (per-process LRU in ``load_benchmark``
    plus the shared disk cache keep this a one-time cost per worker per
    benchmark) and writes its result through to the shared cache.  A
    chunk window reads the parent's shared-memory segment -- no column
    pickling, no regeneration.  Returns the window's metric delta and
    span events alongside the result so the parent can fold telemetry
    deterministically.

    ``fault_kinds`` is the pre-matched tuple of injected faults for
    exactly this window (the parent does the matching and counting, so
    an attempt that dies cannot lose the accounting).
    """
    name, task, config, origin, window, state, fault_kinds = job
    _act_out_faults(fault_kinds, name, task, in_process=False)

    METRICS.reset()
    TRACER.reset()
    begin = time.perf_counter()
    digest = None
    if window is None:
        length, run_seed, source, cache_root = origin
        with span("job", benchmark=name, task=task):
            cache = ResultCache(cache_root) if cache_root is not None else None
            trace = _worker_trace(name, length, run_seed, source, cache)
            digest = trace.digest()
            result = compute_task(trace, config, task)
            if cache is not None:
                if task == CORRELATION_TASK:
                    cache.store_correlation(digest, result)
                else:
                    cache.store_bitmap(digest, result_key(task, config), result)
    else:
        from repro.analysis.shm import attach_trace

        segment, length = origin
        columns, handle = attach_trace(segment, length)
        try:
            result, state = _simulate_window(
                columns, config, task, window, state
            )
        finally:
            del columns
            try:
                handle.close()
            except BufferError:
                pass
    return (
        result, state, digest,
        METRICS.snapshot(), TRACER.chrome_events(),
        time.perf_counter() - begin,
    )


def _worker_trace(
    name: str,
    length: int,
    run_seed: int,
    source: Optional[tuple],
    cache: Optional[ResultCache],
) -> Trace:
    """Materialise one job's trace from its source descriptor.

    ``source`` is the picklable per-benchmark descriptor
    :func:`prime_labs` ships: ``None`` (the legacy suite trace),
    ``("synthetic", mix_items)`` (a mix-scaled suite trace, cached under
    its mix-signature variant key), or ``("imported", path, format,
    digest)`` (a foreign file, digest-verified on load).
    """
    if source is not None and source[0] == "imported":
        from repro.trace.ingest import load_imported_trace

        _, path, fmt, expected = source
        return load_imported_trace(
            path, format=fmt, expected_digest=expected
        )
    from repro.workloads.suite import load_benchmark, mix_items_signature

    mix_items = source[1] if source is not None else ()
    variant = mix_items_signature(mix_items)
    trace = (
        cache.load_trace(name, length, run_seed, variant=variant)
        if cache
        else None
    )
    if trace is None:
        trace = load_benchmark(name, length, run_seed, mix=dict(mix_items))
        if cache is not None:
            cache.store_trace(name, length, run_seed, trace, variant=variant)
    return trace


def _count_injected(kinds: Sequence[str]) -> None:
    """Parent-side accounting of faults scheduled for an attempt."""
    for kind in kinds:
        METRICS.inc(f"resilience.faults.{kind}")
        METRICS.inc("resilience.faults_injected")


def _shutdown_pool(pool: ProcessPoolExecutor, kill: bool = False) -> None:
    """Shut a pool down without waiting on stuck workers.

    ``kill`` additionally terminates the worker processes -- the only
    way to reclaim a hung worker.  Reaches into the executor's process
    table (CPython 3.9-3.13 keep it at ``_processes``); absent that
    attribute the shutdown still cancels everything queued.
    """
    if kill:
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass
    pool.shutdown(wait=False, cancel_futures=True)


def _init_worker() -> None:
    """Pool-worker start-up: drop the parent's signal handlers.

    A forked worker would otherwise inherit the parent's
    SIGTERM-to-``KeyboardInterrupt`` handler and die mid-task with a
    traceback.  SIGTERM gets its default action back, so the parent's
    ``terminate()`` simply ends the worker; SIGINT (a terminal Ctrl-C
    reaches the whole process group) is ignored, so only the parent
    reacts to it and reaps its workers.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class WorkerPool:
    """A reusable worker pool with an explicit lifecycle.

    One priming pass historically meant one ``ProcessPoolExecutor``:
    built at the start, torn down at the end, its warm workers (and
    their per-process trace LRUs) discarded with it.  A long-lived
    engine session -- a sweep, or the :mod:`repro.serve` daemon
    fielding many runs -- passes a ``WorkerPool`` into
    :func:`prime_labs` instead, so every run schedules onto the *same*
    warm workers and cold-start is paid once per session, not once per
    request.

    The pool is lazy (no subprocesses until the first submit), rebuilds
    itself when the scheduler kills a broken or hung executor, and
    drains on demand: :meth:`drain` is what a SIGTERM-initiated
    graceful shutdown calls -- cancel everything queued, reap the
    workers, leave the journal/cache state to the owning session.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, int(jobs))
        self._pool: Optional[ProcessPoolExecutor] = None

    def handle(self) -> ProcessPoolExecutor:
        """The live executor, created on first use."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs, initializer=_init_worker
            )
        return self._pool

    def rebuild(self) -> None:
        """Kill the current executor; the next :meth:`handle` starts fresh."""
        if self._pool is not None:
            _shutdown_pool(self._pool, kill=True)
            self._pool = None

    def drain(self, kill: bool = False) -> None:
        """Shut the pool down (idempotent).

        ``kill=False`` is the graceful path: nothing new is accepted
        and queued futures are cancelled, but running workers finish
        their current attempt.  ``kill=True`` terminates them.
        """
        if self._pool is not None:
            _shutdown_pool(self._pool, kill=kill)
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.drain(kill=exc_info[0] is not None)


class _Lane:
    """One ``(benchmark, task)`` folded over an ordered list of windows.

    ``windows`` is ``[None]`` for a whole-trace lane, else the
    ``(start, stop)`` chunk spans.  ``attempt`` counts failures across
    every window; ``kinds`` holds the injected faults of the current
    attempt (None until the attempt's first window is submitted) and
    ``first`` the window that attempt started on.
    """

    def __init__(self, name: str, task: str, windows: list) -> None:
        self.name = name
        self.task = task
        self.windows = windows
        self.origin: Optional[tuple] = None  # worker-side trace source
        self.next = 0
        self.state: Optional[bytes] = None
        self.attempt = 1
        self.kinds: Optional[Tuple[str, ...]] = None
        self.first = 0
        self.parts: list = []
        self.digest: Optional[str] = None
        self.deltas: List[dict] = []
        self.events: list = []
        self.seconds = 0.0

    @property
    def done(self) -> bool:
        return self.next == len(self.windows)


class _Scheduler:
    """The priming loop: submit, retry, expire, rebuild -- for every lane.

    ``jobs <= 1`` runs each window in-process at submission and hands
    the loop an already-completed future, so the serial path is this
    same loop with one slot.
    """

    def __init__(
        self,
        lanes: Sequence[_Lane],
        labs: Dict[str, Lab],
        jobs: int,
        policy: RetryPolicy,
        injector: Optional[FaultInjector],
        pool: Optional[WorkerPool] = None,
    ) -> None:
        self.labs = labs
        self.jobs = jobs
        self.policy = policy
        self.injector = injector
        self.ready = deque(lanes)
        self.waiting: List[Tuple[float, int, _Lane]] = []
        self.active: Dict[Future, Tuple[_Lane, Optional[float]]] = {}
        self.failures: List[TaskFailure] = []
        self._seq = 0
        # A shared pool outlives this pass (the owning session drains
        # it); a private one is built on demand and reaped at the end.
        self._shared = pool is not None
        self._pool = pool if pool is not None else WorkerPool(jobs)

    def _rebuild_pool(self) -> None:
        self._pool.rebuild()
        METRICS.inc("parallel.pool_rebuilds")

    def _shutdown(self, kill: bool = False) -> None:
        # A clean end of pass leaves a shared pool warm for the next
        # run; an interrupt (kill=True) reaps it either way -- the pool
        # recreates its workers lazily if the session continues.
        if self._shared and not kill:
            return
        self._pool.drain(kill=kill)

    # -- scheduling --------------------------------------------------------

    def _submit(self, lane: _Lane) -> None:
        if lane.kinds is None:
            # A new attempt starts on this window: consult the injector
            # once, and count what it schedules before anything can die.
            lane.kinds = (
                self.injector.kinds(lane.name, lane.task, lane.attempt)
                if self.injector is not None
                else ()
            )
            _count_injected(lane.kinds)
            lane.first = lane.next
        kinds = lane.kinds if lane.next == lane.first else ()
        window = lane.windows[lane.next]
        if self.jobs <= 1:
            future: Future = Future()
            lab = self.labs[lane.name]
            try:
                _act_out_faults(kinds, lane.name, lane.task, in_process=True)
                result, state = _simulate_window(
                    lab.trace, lab.config, lane.task, window, lane.state
                )
            except Exception as error:
                future.set_exception(error)
            else:
                future.set_result((result, state, None, None, None, 0.0))
        else:
            job = (
                lane.name, lane.task, self.labs[lane.name].config,
                lane.origin, window, lane.state, kinds,
            )
            try:
                future = self._pool.handle().submit(_run_window, job)
            except BrokenProcessPool:
                # The pool broke between loops; rebuild once and resubmit.
                self._rebuild_pool()
                future = self._pool.handle().submit(_run_window, job)
        deadline = (
            time.monotonic() + self.policy.timeout
            if self.policy.timeout is not None
            else None
        )
        self.active[future] = (lane, deadline)

    def _fail(self, lane: _Lane, kind: str, message: str) -> None:
        """Charge the lane's current attempt; retry or record a failure."""
        if kind == "timeout":
            METRICS.inc("resilience.timeouts")
        if lane.attempt >= self.policy.max_attempts:
            METRICS.inc("resilience.task_failures")
            self.failures.append(
                TaskFailure(
                    benchmark=lane.name,
                    task=lane.task,
                    attempts=lane.attempt,
                    kind=kind,
                    message=message,
                )
            )
            return
        # Queue the next attempt after its deterministic backoff; it
        # resumes at the failed window from the state carried into it.
        backoff = self.policy.backoff(lane.attempt)
        METRICS.inc("resilience.retries")
        METRICS.add_time("resilience.backoff_seconds", backoff)
        lane.attempt += 1
        lane.kinds = None
        self._seq += 1
        self.waiting.append((time.monotonic() + backoff, self._seq, lane))

    def _timeout_message(self) -> str:
        return f"attempt exceeded {self.policy.timeout:.3f}s wall clock"

    # -- main loop ---------------------------------------------------------

    def run(self) -> None:
        try:
            while self.ready or self.waiting or self.active:
                self._promote_waiting()
                while self.ready and len(self.active) < self.jobs:
                    self._submit(self.ready.popleft())
                if not self.active:
                    # Everything left is backing off; sleep to the next
                    # ready time instead of spinning.
                    if self.waiting:
                        next_at = min(entry[0] for entry in self.waiting)
                        time.sleep(max(0.0, next_at - time.monotonic()))
                    continue
                done, _ = wait(
                    list(self.active), timeout=_TICK,
                    return_when=FIRST_COMPLETED,
                )
                if self._collect(done):
                    self._expire_deadlines()
        except BaseException:
            # Interrupt/SIGTERM/unexpected error: reap workers, cancel
            # queued futures, and let the caller decide what to keep.
            self._shutdown(kill=True)
            raise
        else:
            self._shutdown()

    def _promote_waiting(self) -> None:
        if not self.waiting:
            return
        now = time.monotonic()
        self.waiting.sort()
        while self.waiting and self.waiting[0][0] <= now:
            self.ready.append(self.waiting.pop(0)[2])

    def _collect(self, done) -> bool:
        """Harvest finished futures; False if the pool broke mid-batch."""
        for future in done:
            lane, _ = self.active.pop(future)
            try:
                payload = future.result()
            except BrokenProcessPool as error:
                self._on_pool_broken(lane, error)
                return False
            except TaskTimeout:
                self._fail(lane, "timeout", self._timeout_message())
            except Exception as error:
                self._fail(lane, "error", f"{type(error).__name__}: {error}")
            else:
                self._advance(lane, payload)
        return True

    def _advance(self, lane: _Lane, payload: tuple) -> None:
        result, lane.state, lane.digest, delta, events, seconds = payload
        lane.parts.append(result)
        if delta is not None:
            lane.deltas.append(delta)
            lane.events.extend(events)
            lane.seconds += seconds
        lane.next += 1
        if not lane.done:
            # Keep the lane's chain moving before starting new lanes.
            self.ready.appendleft(lane)

    def _on_pool_broken(self, lane: _Lane, error: BaseException) -> None:
        """A worker died hard; every in-flight window went down with it.

        The culprit is unknowable from the parent, so every in-flight
        lane (the reporting one included) is charged one attempt -- each
        still gets its full retry budget, and a persistent hard-crasher
        cannot rebuild the pool forever.
        """
        victims = [lane]
        for future, (other, _) in self.active.items():
            future.cancel()
            victims.append(other)
        self.active.clear()
        self._rebuild_pool()
        for victim in victims:
            self._fail(victim, "worker-lost", f"worker pool broke: {error}")

    def _expire_deadlines(self) -> None:
        now = time.monotonic()
        expired = [
            lane
            for lane, deadline in self.active.values()
            if deadline is not None and now >= deadline
        ]
        if not expired:
            return
        # A hung worker can only be reclaimed by killing the pool, which
        # takes every in-flight window with it: timed-out attempts are
        # charged and retried, innocents resubmitted at the same attempt.
        innocents = [
            lane for lane, _ in self.active.values() if lane not in expired
        ]
        self.active.clear()
        self._rebuild_pool()
        for lane in expired:
            self._fail(lane, "timeout", self._timeout_message())
        for lane in reversed(innocents):
            self.ready.appendleft(lane)


def prime_labs(
    labs: Dict[str, Lab],
    run_seed: int = 12345,
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    tasks: Sequence[str] = DEFAULT_TASKS,
    policy: Optional[RetryPolicy] = None,
    injector: Optional[FaultInjector] = None,
    failures: Optional[list] = None,
    pool: Optional[WorkerPool] = None,
    chunk_branches: Optional[int] = None,
    sources: Optional[Dict[str, tuple]] = None,
) -> int:
    """Populate every lab's memos for ``tasks``, in parallel.

    Cached results are folded in directly; only misses are scheduled.
    After this returns, ``lab.correct(task)`` / ``lab.correlation_data()``
    are pure memo lookups for every requested task.

    Args:
        labs: Benchmark name -> Lab, as built by ``build_labs``.  The
            benchmark name must regenerate the lab's trace (standard
            suite labs; ad-hoc labs should skip priming).
        run_seed: The seed the labs' traces were generated with.
        jobs: Worker processes (None -> :func:`default_jobs`).
        cache: Shared result cache; workers write through to it.
        tasks: Task names to prime (subset of :data:`DEFAULT_TASKS`).
        policy: Retry/timeout policy (None -> environment defaults via
            :meth:`RetryPolicy.resolve`).
        injector: Deterministic fault injector (None -> no faults; the
            :data:`REPRO_FAULT_SPEC` environment variable is resolved
            by the API layer, not here).
        failures: If given, a task that exhausts its attempt budget is
            appended here as a structured dict and the pass continues;
            if None, exhausted tasks are simply left unprimed (the lab
            computes them lazily on demand).
        pool: A session-owned :class:`WorkerPool` to schedule onto.
            When given it overrides ``jobs``, stays warm after the pass
            (the owner drains it), and is shared with every other run
            of the same session.
        chunk_branches: If set, fold every chunkable task
            (:data:`~repro.analysis.streamed.CHUNKABLE_TASKS`) as a
            lane of fixed windows of this many branches instead of one
            whole-trace window.  Results, retries and injected faults
            are the same either way.  Ignored for traces no longer than
            one chunk.
        sources: Per-benchmark trace-source descriptors workers use to
            rematerialise job traces (see :func:`_worker_trace`); None
            (or an absent name) means the legacy suite trace.  Chunk
            lanes ignore this -- their windows ship from the parent's
            columns over shared memory.

    Returns:
        The number of jobs that executed successfully (0 means
        everything was cached).

    Raises:
        FaultSpecError: If the fault spec injects hangs but the policy
            has no timeout to detect them with.
    """
    jobs = pool.jobs if pool is not None else resolve_jobs(jobs)
    if policy is None:
        policy = RetryPolicy.resolve()
    if injector is not None and injector.wants_timeout() and policy.timeout is None:
        raise FaultSpecError(
            "fault spec injects 'hang' faults but no task timeout is set; "
            "pass --task-timeout (or REPRO_TASK_TIMEOUT)"
        )
    METRICS.gauge("parallel.workers", jobs)
    chunk_size = (
        normalize_chunk_branches(chunk_branches)
        if chunk_branches is not None
        else 0
    )
    lanes: List[_Lane] = []
    for name in sorted(labs):
        lab = labs[name]
        if cache is not None and lab.cache is None:
            lab.cache = cache
        length = len(lab.trace)
        for task in tasks:
            if lab.is_primed(task) or _fold_cached(lab, task):
                continue
            chunked = (
                chunk_size and task in CHUNKABLE_TASKS and length > chunk_size
            )
            windows = chunk_spans(length, chunk_size) if chunked else [None]
            lanes.append(_Lane(name, task, windows))

    if not lanes:
        return 0

    with span("prime_labs", jobs=jobs, pending=len(lanes)):
        segments: dict = {}
        try:
            if jobs > 1:
                _set_origins(lanes, labs, run_seed, cache, sources, segments)
            scheduler = _Scheduler(lanes, labs, jobs, policy, injector, pool)
            scheduler.run()
        finally:
            for segment in segments.values():
                segment.unlink()
        executed = _fold_lanes(lanes, labs, cache)
    METRICS.inc("parallel.jobs_executed", executed)
    _report_failures(scheduler.failures, failures)
    return executed


def _set_origins(
    lanes: Sequence[_Lane],
    labs: Dict[str, Lab],
    run_seed: int,
    cache: Optional[ResultCache],
    sources: Optional[Dict[str, tuple]],
    segments: dict,
) -> None:
    """Give each lane the picklable trace source its workers read.

    A whole-trace lane ships what regenerates the trace; chunk lanes
    share one shared-memory segment per benchmark, published here into
    ``segments`` (the caller unlinks them).
    """
    from repro.analysis.shm import SharedTrace

    cache_root = str(cache.root) if cache is not None else None
    for lane in lanes:
        trace = labs[lane.name].trace
        if lane.windows[0] is None:
            source = sources.get(lane.name) if sources is not None else None
            lane.origin = (len(trace), run_seed, source, cache_root)
            continue
        if lane.name not in segments:
            segments[lane.name] = SharedTrace.create(trace)
        lane.origin = (segments[lane.name].name, len(trace))


def _fold_lanes(
    lanes: Sequence[_Lane], labs: Dict[str, Lab], cache: Optional[ResultCache]
) -> int:
    """Fold finished lanes into their labs; returns how many landed.

    Lanes fold in deterministic (sorted-name, task-order) order, and
    so do their workers' metric deltas and span events, so aggregate
    telemetry is independent of worker scheduling.  A lane whose worker
    regenerated a different trace than the lab holds (an ad-hoc lab) is
    discarded; the lab computes it lazily.
    """
    executed = 0
    for lane in lanes:
        if not lane.done:
            continue  # failed after retries; recorded by the scheduler
        for delta in lane.deltas:
            METRICS.merge(delta)
        if lane.deltas:
            METRICS.add_time("parallel.job_seconds", lane.seconds)
        TRACER.add_events(lane.events)
        lab = labs[lane.name]
        if lane.digest is not None and lane.digest != lab.trace.digest():
            continue
        if len(lane.parts) == 1:
            result = lane.parts[0]
        else:
            result = np.concatenate(lane.parts)
        if lane.windows[0] is not None:
            METRICS.inc("sim.chunked_simulations")
        # A worker that regenerated the trace already wrote the shared
        # cache; skip the second write.
        write_through = lane.digest is None or cache is None
        if lane.task == CORRELATION_TASK:
            lab.store_correlation(result, write_through=write_through)
        else:
            lab.store_correct(lane.task, result, write_through=write_through)
        # An injected 'corrupt' lands when the lane's final window does.
        if "corrupt" in lane.kinds and lab.cache is not None:
            _corrupt_result_entry(
                lab.cache, lab.trace.digest(), lane.task, lab.config
            )
        executed += 1
    return executed


def _report_failures(
    task_failures: List[TaskFailure], sink: Optional[list]
) -> None:
    """Deliver structured failures in a schedule-independent order."""
    if sink is None:
        return
    for failure in sorted(task_failures, key=lambda f: (f.benchmark, f.task)):
        sink.append(failure.to_dict())


def _fold_cached(lab: Lab, task: str) -> bool:
    """Fold a disk-cached result into the lab's memo; True on a hit."""
    if lab.cache is None:
        return False
    if task == CORRELATION_TASK:
        data = lab.cache.load_correlation(
            lab.trace.digest(), lab.config.collection_window
        )
        if data is None:
            return False
        lab.store_correlation(data, write_through=False)
        return True
    bitmap = lab.cache.load_bitmap(
        lab.trace.digest(), result_key(task, lab.config)
    )
    if bitmap is None:
        return False
    lab.store_correct(task, bitmap, write_through=False)
    return True
