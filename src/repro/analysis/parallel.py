"""Parallel simulation scheduler with fault-tolerant supervision.

A full report simulates seven predictors plus the best-of-32 fixed
pattern sweep and the tagged-correlation collection over eight benchmark
traces -- 72 independent ``(benchmark, task)`` jobs with no shared
state.  This module runs them as *lanes* -- one lane per job, each one
whole-trace computation -- over a :class:`~concurrent.futures.\
ProcessPoolExecutor` (or in-process for ``jobs <= 1``) and folds the
results back into each :class:`~repro.analysis.runner.Lab`'s memo dict,
so downstream experiments see exactly the state a serial run would have
produced.  A lab holds its whole trace: the paper's baselines (ideal
static, best-of-32, the selective-history oracle) are defined over the
whole run.  Bounded-memory runs go through
:func:`~repro.analysis.streamed.stream_report` instead.

Determinism: every job is a pure function of ``(benchmark name, trace
source, config, task)``, computed by the task table's
:func:`~repro.analysis.runner.compute_task`.  A pooled lane ships the
run's frozen :data:`~repro.spec.TraceSource`, and its worker loads the
trace through :func:`~repro.workloads.suite.load_source_trace`, the
loader every path uses (a per-process LRU plus the shared disk cache
make this cheap).  The parent verifies the returned trace digest before
folding, so completion order and worker scheduling cannot change any
result.  In-process lanes run on the lab's own trace.  Cache hits fold
through :meth:`~repro.analysis.runner.Lab.fold_cached`, the method a
lab's lazy lookup uses too.

Resilience: one loop owns submission, retries, deadlines and pool
rebuilds for every lane, pooled or in-process.  A failing attempt
(worker exception, injected crash, lost worker, wall-clock timeout) is
retried with deterministic capped backoff up to the
:class:`~repro.resilience.RetryPolicy`'s attempt budget.  A timed-out or
broken pool is killed and rebuilt, with innocent in-flight lanes
resubmitted at their *current* attempt number.  A lane that exhausts its
budget becomes a structured :class:`~repro.resilience.TaskFailure` --
the run continues and the lab computes that task lazily in-process if an
experiment needs it.  ``KeyboardInterrupt``/``SIGTERM`` tear the pool
down cleanly (cancel pending futures, terminate workers) instead of
leaking it.  Both signals are held pending while a lane is submitted
(which may fork the workers) and registered, and while the loop waits on
and harvests futures, so an interrupt cannot leave a worker unregistered
or an executor lock held.  The :class:`~repro.resilience.FaultInjector`
is consulted once per lane attempt, so crashes, hangs and cache
corruption are reproducible: the same fault spec yields the same attempt
sequence -- and identical folded results and resilience counters -- for
``--jobs 1`` and ``--jobs 4``.

Observability crosses the process boundary the same way the results do:
each worker resets its per-process :data:`repro.obs.METRICS` registry
and :data:`repro.obs.TRACER` per job, and ships the metric delta plus
its span events back alongside the result; the parent folds both in the
same deterministic (sorted-benchmark, task-order) sequence it folds
bitmaps, so aggregated counters are independent of completion order and
``sum(worker deltas) == single-process counters`` for every work-unit
counter.  (A crashed attempt's delta dies with it; only successful
attempts are folded, identically in serial and parallel runs.)

Worker count comes from ``--jobs``, the :data:`ENV_JOBS` environment
variable, or ``os.cpu_count()``; ``jobs <= 1`` runs the same loop with
each lane executed in-process at submission -- no executor, no
pickling of results, no subprocesses.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.cache import ResultCache, result_key
from repro.analysis.config import LabConfig
from repro.analysis.runner import CORRELATION_TASK, DEFAULT_TASKS, Lab, compute_task
from repro.obs.metrics import METRICS
from repro.obs.tracing import TRACER, span
from repro.resilience.faults import (
    HANG_SECONDS,
    FaultInjector,
    FaultSpecError,
    InjectedCrash,
)
from repro.resilience.retry import RetryPolicy, TaskFailure, TaskTimeout
from repro.workloads.suite import load_source_trace

#: Environment variable overriding the worker count.
ENV_JOBS = "REPRO_JOBS"

#: Scheduler poll interval while futures are in flight (seconds).
_TICK = 0.05

#: Signals the scheduler holds pending around executor calls.
_DEFERRED_SIGNALS = (signal.SIGTERM, signal.SIGINT)


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


def _run_job(job: tuple):
    """Execute one lane attempt in a worker process.

    Module-level so it pickles.  The worker loads the trace from the
    lane's :data:`~repro.spec.TraceSource` through
    :func:`~repro.workloads.suite.load_source_trace` (per-process LRU in
    ``load_benchmark`` plus the shared disk cache keep this a one-time
    cost per worker per benchmark) and writes its result through to the
    shared cache.  Returns the job's metric delta and span events
    alongside the result so the parent can fold telemetry
    deterministically.

    ``fault_kinds`` is the pre-matched tuple of injected faults for
    exactly this attempt (the parent does the matching and counting, so
    an attempt that dies cannot lose the accounting).
    """
    name, task, config, (source, length, cache_root), fault_kinds = job
    _act_out_faults(fault_kinds, name, task, in_process=False)

    METRICS.reset()
    TRACER.reset()
    begin = time.perf_counter()
    with span("job", benchmark=name, task=task):
        cache = ResultCache(cache_root) if cache_root is not None else None
        trace = load_source_trace(name, source, cache, length=length)
        digest = trace.digest()
        result = compute_task(trace, config, task)
        Lab(trace, config, cache).store(task, result)
    return (
        result, digest,
        METRICS.snapshot(), TRACER.chrome_events(),
        time.perf_counter() - begin,
    )


def _count_injected(kinds: Sequence[str]) -> None:
    """Parent-side accounting of faults scheduled for an attempt."""
    for kind in kinds:
        METRICS.inc(f"resilience.faults.{kind}")
        METRICS.inc("resilience.faults_injected")


def _shutdown_pool(pool: ProcessPoolExecutor, kill: bool = False) -> None:
    """Shut a pool down without waiting on stuck workers.

    ``kill`` additionally terminates the worker processes -- the only
    way to reclaim a hung worker.  Reaches into the executor's process
    table and result queue (CPython 3.9-3.13 keep them at ``_processes``
    and ``_result_queue``); absent those attributes the shutdown still
    cancels everything queued.
    """
    results = getattr(pool, "_result_queue", None)
    if kill:
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass
    pool.shutdown(wait=False, cancel_futures=True)
    if kill and results is not None:
        # A worker killed mid-write leaves part of a result in the pipe,
        # and the parent's copy of the write end keeps the pipe open, so
        # the executor's thread -- and the interpreter's exit, which
        # joins it -- would wait for the rest forever.  Closing that
        # copy turns the partial read into EOF: a broken pool, which the
        # thread handles and exits on.
        results._writer.close()


@contextlib.contextmanager
def _interrupts_deferred():
    """Hold SIGTERM and SIGINT pending for the block's duration.

    A signal that arrives inside the block is delivered when the old
    mask returns, so its ``KeyboardInterrupt`` surfaces at the block's
    end, never between a lock's acquire and release inside it.
    """
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, _DEFERRED_SIGNALS)
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, blocked)


def _init_worker() -> None:
    """Pool-worker start-up: drop the parent's signal handlers.

    A forked worker would otherwise inherit the parent's
    SIGTERM-to-``KeyboardInterrupt`` handler and die mid-task with a
    traceback.  SIGTERM gets its default action back, so the parent's
    ``terminate()`` simply ends the worker; SIGINT (a terminal Ctrl-C
    reaches the whole process group) is ignored, so only the parent
    reacts to it and reaps its workers.  A worker forked inside the
    parent's deferred submit starts with both signals blocked; they are
    unblocked only once the dispositions are reset.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _DEFERRED_SIGNALS)


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

    def drain(self, kill: bool = False) -> None:
        """Shut the pool down (idempotent); the next :meth:`handle`
        starts a fresh executor.

        ``kill=False`` is the graceful path: nothing new is accepted
        and queued futures are cancelled, but running workers finish
        their current attempt.  ``kill=True`` terminates them, which is
        how the scheduler rebuilds a broken or hung pool.
        """
        if self._pool is not None:
            _shutdown_pool(self._pool, kill=kill)
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.drain(kill=exc_info[0] is not None)


class _Lane:
    """One ``(benchmark, task)`` job and its attempts.

    ``origin`` is what a pool worker loads the trace from: the frozen
    source, the trace's length and the cache root.  ``kinds`` holds
    the injected faults of the current attempt (None until the attempt
    is first submitted); ``payload`` is the successful attempt's result
    tuple, None until then.
    """

    def __init__(self, name: str, task: str, origin: tuple) -> None:
        self.name = name
        self.task = task
        self.origin = origin
        self.attempt = 1
        self.kinds: Optional[Tuple[str, ...]] = None
        self.payload: Optional[tuple] = None


class _Scheduler:
    """The priming loop: submit, retry, expire, rebuild -- for every lane.

    ``jobs <= 1`` runs each lane in-process at submission and hands
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
        self._pool.drain(kill=True)
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
            # A new attempt: consult the injector once, and count what
            # it schedules before anything can die.  A resubmitted
            # innocent keeps its attempt's faults.
            lane.kinds = (
                self.injector.kinds(lane.name, lane.task, lane.attempt)
                if self.injector is not None
                else ()
            )
            _count_injected(lane.kinds)
        if self.jobs <= 1:
            future: Future = Future()
            lab = self.labs[lane.name]
            try:
                _act_out_faults(lane.kinds, lane.name, lane.task, in_process=True)
                result = compute_task(lab.trace, lab.config, lane.task)
            except Exception as error:
                future.set_exception(error)
            else:
                future.set_result((result, None, None, None, 0.0))
            self._register(lane, future)
            return
        job = (
            lane.name, lane.task, self.labs[lane.name].config,
            lane.origin, lane.kinds,
        )
        # An interrupt inside submit -- which may fork the workers -- could
        # leave a worker unregistered or a lock held.  Hold it pending
        # until the future is registered; it then surfaces here as
        # KeyboardInterrupt, and run()'s cleanup reaps the pool.
        with _interrupts_deferred():
            try:
                future = self._pool.handle().submit(_run_job, job)
            except BrokenProcessPool:
                # The pool broke between loops; rebuild once and resubmit.
                self._rebuild_pool()
                future = self._pool.handle().submit(_run_job, job)
            self._register(lane, future)

    def _register(self, lane: _Lane, future: Future) -> None:
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
        # Queue the next attempt after its deterministic backoff.
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
                # wait() and the harvest take futures' locks, which the
                # executor's thread needs too; an interrupt inside them
                # could leave one held and hang the exit.  At most one
                # tick later it surfaces here instead.
                with _interrupts_deferred():
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
                lane.payload = payload
        return True

    def _on_pool_broken(self, lane: _Lane, error: BaseException) -> None:
        """A worker died hard; every in-flight lane went down with it.

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
        # takes every in-flight lane with it: timed-out attempts are
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
    source=None,
) -> int:
    """Populate every lab's memos for ``tasks``, in parallel.

    Cached results are folded in directly; only misses are scheduled.
    After this returns, ``lab.correct(task)`` / ``lab.correlation_data()``
    are pure memo lookups for every requested task.

    Args:
        labs: Benchmark name -> Lab, as built by ``build_labs``.  The
            benchmark name must load the lab's trace from ``source``
            (ad-hoc labs should skip priming).
        run_seed: The seed the labs' traces were generated with (used
            only when ``source`` is None).
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
        source: The frozen :data:`~repro.spec.TraceSource` the labs
            were loaded from; pool workers load their traces from it.
            None means the unmixed suite at ``run_seed``.

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
    if source is None:
        from repro.spec import SyntheticSource

        source = SyntheticSource(seed=run_seed)
    cache_root = str(cache.root) if cache is not None else None
    lanes: List[_Lane] = []
    for name in sorted(labs):
        lab = labs[name]
        if cache is not None and lab.cache is None:
            lab.cache = cache
        origin = (source, len(lab.trace), cache_root)
        for task in tasks:
            if lab.is_primed(task) or lab.fold_cached(task):
                continue
            lanes.append(_Lane(name, task, origin))

    if not lanes:
        return 0

    with span("prime_labs", jobs=jobs, pending=len(lanes)):
        scheduler = _Scheduler(lanes, labs, jobs, policy, injector, pool)
        scheduler.run()
        executed = _fold_lanes(lanes, labs, cache)
    METRICS.inc("parallel.jobs_executed", executed)
    _report_failures(scheduler.failures, failures)
    return executed


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
        if lane.payload is None:
            continue  # failed after retries; recorded by the scheduler
        result, digest, delta, events, seconds = lane.payload
        if delta is not None:
            METRICS.merge(delta)
            METRICS.add_time("parallel.job_seconds", seconds)
            TRACER.add_events(events)
        lab = labs[lane.name]
        if digest is not None and digest != lab.trace.digest():
            continue
        # A worker that loaded the trace already wrote the shared
        # cache; skip the second write.
        write_through = digest is None or cache is None
        lab.store(lane.task, result, write_through=write_through)
        # An injected 'corrupt' lands when the lane's result does.
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

