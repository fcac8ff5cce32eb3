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

:func:`prime_plan` feeds the loop from a :class:`~repro.plan.Plan`'s
graph, every sweep point at once: a trace the cache lacks is a *trace
lane* too, made in a worker and shipped back, and the sims planned on it
become lanes once it is in.  Ready lanes leave trace lanes first, then
longest trace first.  Each later point takes a deduped task's result in
memory from the point that planned it first.  :func:`prime_labs` runs
the same loop over labs a caller built.

Determinism: every job is a pure function of ``(benchmark name, trace
source, config, task)``, computed by the task table's
:func:`~repro.analysis.runner.compute_task`.  A pooled lane ships the
run's frozen :data:`~repro.spec.TraceSource`, and its worker loads the
trace through :func:`~repro.workloads.suite.load_source_trace`, the
loader every path uses; one cache handle per worker keeps each trace in
its session memo after the worker's first read.  The parent verifies
the returned trace digest before folding, so completion order and
worker scheduling cannot change any result.  In-process lanes run on
the lab's own trace.  Cache hits fold through
:meth:`~repro.analysis.runner.Lab.fold_cached`, the method a lab's lazy
lookup uses too.

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
or an executor lock held; an interrupt that surfaces from the wait says
so in its arguments.  The :class:`~repro.resilience.FaultInjector` is
consulted once per sim-lane attempt (trace lanes are no fault target: a
failed one is made in the parent), so crashes, hangs and cache
corruption are reproducible: the same fault spec yields the same attempt
sequence -- and identical folded results and resilience counters -- for
``--jobs 1`` and ``--jobs 4``.

Observability crosses the process boundary the same way the results do:
each worker resets its per-process :data:`repro.obs.METRICS` registry
and :data:`repro.obs.TRACER` per job, and ships the metric delta plus
its span events back alongside the result; the parent folds both in the
same deterministic (plan, or sorted-benchmark and task, order) sequence
it folds bitmaps, charging each lane to the sweep point that planned it,
so aggregated counters are independent of completion order and
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
import functools
import heapq
import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.cache import ResultCache, result_key
from repro.analysis.config import LabConfig
from repro.analysis.runner import CORRELATION_TASK, DEFAULT_TASKS, Lab, compute_task
from repro.obs.metrics import METRICS, Metrics
from repro.obs.tracing import TRACER, span
from repro.resilience.faults import (
    HANG_SECONDS,
    FaultInjector,
    FaultSpecError,
    InjectedCrash,
)
from repro.resilience.retry import RetryPolicy, TaskFailure, TaskTimeout
from repro.workloads.suite import (
    build_source_trace,
    cached_source_trace,
    load_source_trace,
    scaled_length,
)

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


#: The lane task name of a trace: it makes the trace its sims run on.
TRACE_TASK = "trace"


@functools.lru_cache(maxsize=4)
def _worker_cache(root: Optional[str]) -> Optional[ResultCache]:
    """This process's handle on the cache at ``root`` (None: no cache).

    One handle per worker process, not per job, so its session memo
    serves every trace read after a worker's first of each benchmark.
    Entries are keyed by content, so a memoised one never goes stale.
    """
    return ResultCache(root) if root is not None else None


def _run_job(job: tuple):
    """Execute one lane attempt in a worker process.

    Module-level so it pickles.  A trace lane makes its trace from the
    lane's :data:`~repro.spec.TraceSource` (generated and stored to the
    shared cache, or read from its imported file) and ships it back.  A
    sim lane loads its trace the way every path does
    (:func:`~repro.workloads.suite.load_source_trace`): through this
    worker's cache handle, whose memo keeps each trace after its first
    disk read, or without a cache through ``load_benchmark``'s
    per-process LRU; it writes its result through to the shared cache.
    Returns the job's metric delta and span events alongside the result
    so the parent can fold telemetry deterministically.

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
        cache = _worker_cache(cache_root)
        if task == TRACE_TASK:
            result = build_source_trace(name, source, cache, length=length)
            digest = None
        else:
            trace = load_source_trace(name, source, cache, length=length)
            digest = trace.digest()
            result = compute_task(trace, config, task, name)
            Lab(trace, config, cache, name).store(task, result)
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
    """One trace or ``(benchmark, task)`` sim job and its attempts.

    ``origin`` is what a pool worker makes or loads the trace from: the
    frozen source, the trace's length (None: the source's scaled
    length) and the cache root.  A sim lane runs on its ``lab``'s trace
    and config; a trace lane has no lab until its trace is in.
    ``point`` is the plan point its telemetry is charged to, ``rank``
    its place in the deterministic fold, ``priority`` its place in the
    ready queue, and ``key`` its plan task's content key.  ``kinds``
    holds the injected faults of the current attempt (None until the
    attempt is first submitted); ``payload`` is the successful
    attempt's result tuple, None until then.
    """

    def __init__(
        self,
        name: str,
        task: str,
        origin: tuple,
        *,
        lab: Optional[Lab] = None,
        point: int = 0,
        rank: int = 0,
        priority: tuple = (),
        key: Optional[str] = None,
    ) -> None:
        self.name = name
        self.task = task
        self.origin = origin
        self.lab = lab
        self.point = point
        self.rank = rank
        self.priority = priority
        self.key = key
        self.attempt = 1
        self.kinds: Optional[Tuple[str, ...]] = None
        self.payload: Optional[tuple] = None

    @property
    def is_trace(self) -> bool:
        return self.task == TRACE_TASK


def _no_charge(point: int):
    return contextlib.nullcontext()


class _Scheduler:
    """The priming loop: submit, retry, expire, rebuild -- for every lane.

    ``jobs <= 1`` runs each lane in-process at submission and hands
    the loop an already-completed future, so the serial path is this
    same loop with one slot.  Ready lanes leave in ``priority`` order.
    ``on_done(lane)`` is called for each lane that lands and returns
    the lanes it makes ready (a trace's sims); ``charge(point)`` scopes
    each lane's parent-side work to the point it is accounted to;
    ``announce()`` runs once, when the first lanes are in flight.
    """

    def __init__(
        self,
        lanes: Sequence[_Lane],
        jobs: int,
        policy: RetryPolicy,
        injector: Optional[FaultInjector],
        pool: Optional[WorkerPool] = None,
        cache: Optional[ResultCache] = None,
        on_done: Optional[Callable[[_Lane], Sequence[_Lane]]] = None,
        charge: Callable[[int], contextlib.AbstractContextManager] = _no_charge,
        announce: Optional[Callable[[], None]] = None,
    ) -> None:
        self.jobs = jobs
        self.policy = policy
        self.injector = injector
        self.cache = cache
        self.on_done = on_done
        self.charge = charge
        self.announce = announce
        self.lanes: List[_Lane] = []
        self.ready: List[Tuple[tuple, int, _Lane]] = []
        self.waiting: List[Tuple[float, int, _Lane]] = []
        self.active: Dict[Future, Tuple[_Lane, Optional[float]]] = {}
        self.failures: List[Tuple[int, TaskFailure]] = []
        self._landed: List[_Lane] = []
        self._in_wait = 0
        self._seq = 0
        # A shared pool outlives this pass (the owning session drains
        # it); a private one is built on demand and reaped at the end.
        self._shared = pool is not None
        self._pool = pool if pool is not None else WorkerPool(jobs)
        for lane in lanes:
            self._queue(lane)

    def _queue(self, lane: _Lane) -> None:
        self.lanes.append(lane)
        self._push(lane)

    def _push(self, lane: _Lane) -> None:
        self._seq += 1
        heapq.heappush(self.ready, (lane.priority, self._seq, lane))

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

    def _compute(self, lane: _Lane):
        """A lane's result, computed in this process."""
        if lane.is_trace:
            source, length, _ = lane.origin
            return build_source_trace(lane.name, source, self.cache, length=length)
        lab = lane.lab
        return compute_task(lab.trace, lab.config, lane.task, lane.name)

    def _submit(self, lane: _Lane) -> None:
        if lane.kinds is None:
            # A new attempt: consult the injector once, and count what
            # it schedules before anything can die.  A resubmitted
            # innocent keeps its attempt's faults.  Trace lanes are no
            # fault target.
            lane.kinds = (
                self.injector.kinds(lane.name, lane.task, lane.attempt)
                if self.injector is not None and not lane.is_trace
                else ()
            )
            _count_injected(lane.kinds)
        if self.jobs <= 1:
            future: Future = Future()
            try:
                _act_out_faults(lane.kinds, lane.name, lane.task, in_process=True)
                result = self._compute(lane)
            except Exception as error:
                future.set_exception(error)
            else:
                future.set_result((result, None, None, None, 0.0))
            self._register(lane, future)
            return
        job = (
            lane.name, lane.task, None if lane.is_trace else lane.lab.config,
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
        # Trace lanes are no fault target, so no deadline stops them.
        deadline = (
            time.monotonic() + self.policy.timeout
            if self.policy.timeout is not None and not lane.is_trace
            else None
        )
        self.active[future] = (lane, deadline)

    def _fail(self, lane: _Lane, kind: str, message: str) -> None:
        """Charge the lane's current attempt; retry or record a failure.

        A failed trace lane is charged nothing: the parent makes the
        trace itself once the harvest is over (see :meth:`_release`).
        """
        if lane.is_trace:
            self._landed.append(lane)
            return
        with self.charge(lane.point):
            if kind == "timeout":
                METRICS.inc("resilience.timeouts")
            if lane.attempt >= self.policy.max_attempts:
                METRICS.inc("resilience.task_failures")
                self.failures.append((lane.point, TaskFailure(
                    benchmark=lane.name,
                    task=lane.task,
                    attempts=lane.attempt,
                    kind=kind,
                    message=message,
                )))
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
                    lane = heapq.heappop(self.ready)[2]
                    with self.charge(lane.point):
                        self._submit(lane)
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
                # Futures this wait is on (pooled lanes only), for an
                # interrupt's report of where it landed.
                self._in_wait = len(self.active) if self.jobs > 1 else 0
                with _interrupts_deferred():
                    if self.announce is not None:
                        # Said with signals held: a SIGTERM sent on this
                        # line surfaces at the end of this wait.
                        self.announce()
                        self.announce = None
                    done, _ = wait(
                        list(self.active), timeout=_TICK,
                        return_when=FIRST_COMPLETED,
                    )
                    if self._collect(done):
                        self._expire_deadlines()
                self._in_wait = 0
                self._release()
        except BaseException as error:
            # Interrupt/SIGTERM/unexpected error: reap workers, cancel
            # queued futures, and let the caller decide what to keep.
            if isinstance(error, KeyboardInterrupt) and self._in_wait:
                error.args += (
                    f"landed in the wait on {self._in_wait} pool future(s)",
                )
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
            self._push(self.waiting.pop(0)[2])

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
                self._landed.append(lane)
        return True

    def _release(self) -> None:
        """Queue what the harvest's landed lanes made ready.

        Runs outside the deferred-signal block: a trace that landed has
        its sims' cache entries probed here, and a trace lane that
        failed has its trace made in this process, whose error (an
        unreadable imported file, say) ends the pass as loading the
        trace would have.
        """
        landed, self._landed = self._landed, []
        for lane in landed:
            if lane.payload is None:
                with self.charge(lane.point):
                    lane.payload = (self._compute(lane), None, None, None, 0.0)
            if self.on_done is not None:
                for ready in self.on_done(lane):
                    self._queue(ready)

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
        with self.charge(lane.point):
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
        with self.charge(expired[0].point):
            self._rebuild_pool()
        for lane in expired:
            self._fail(lane, "timeout", self._timeout_message())
        for lane in innocents:
            self._push(lane)


def _resolve_policy(
    policy: Optional[RetryPolicy], injector: Optional[FaultInjector]
) -> RetryPolicy:
    """The pass's retry policy (None -> environment defaults).

    Raises:
        FaultSpecError: If the fault spec injects hangs but the policy
            has no timeout to detect them with.
    """
    if policy is None:
        policy = RetryPolicy.resolve()
    if injector is not None and injector.wants_timeout() and policy.timeout is None:
        raise FaultSpecError(
            "fault spec injects 'hang' faults but no task timeout is set; "
            "pass --task-timeout (or REPRO_TASK_TIMEOUT)"
        )
    return policy


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
    are pure memo lookups for every requested task.  This is the
    scheduler pass of :func:`prime_plan` over labs the caller built.

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
    policy = _resolve_policy(policy, injector)
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
            lanes.append(_Lane(
                name, task, origin, lab=lab, rank=len(lanes),
                priority=(1, -len(lab.trace)),
            ))

    if not lanes:
        return 0

    with span("prime_labs", jobs=jobs, pending=len(lanes)):
        scheduler = _Scheduler(lanes, jobs, policy, injector, pool, cache)
        scheduler.run()
        executed = _fold_lanes(scheduler.lanes, cache)
    _report_failures(scheduler.failures, failures)
    return executed


@dataclass
class PrimedPlan:
    """What one priming pass over a plan leaves each of its points.

    Attributes:
        labs: Per point, benchmark name -> :class:`Lab` holding every
            result the point planned; a deduped task's result is the
            one its first planner computed, taken in memory.
        metrics: Per point, the pass's metric delta charged to it: the
            work of the lanes it planned first, and what it took.
        failures: Per point, the structured failures of its lanes.
        seconds: Wall time of the pass.
    """

    labs: List[Dict[str, Lab]]
    metrics: List[dict]
    failures: List[List[dict]]
    seconds: float


class _Ledger:
    """Charges a pass's metrics to the plan points that caused them.

    Each charge snapshots the registry around the work it scopes.  A
    one-point plan needs no split, so it charges everything to its one
    point without snapshots.
    """

    def __init__(self, points: int) -> None:
        self._baseline = METRICS.snapshot()
        self._points = [Metrics() for _ in range(points)] if points > 1 else None

    def charge(self, point: int):
        if self._points is None:
            return contextlib.nullcontext()
        return self._charging(point)

    @contextlib.contextmanager
    def _charging(self, point: int):
        before = METRICS.snapshot()
        try:
            yield
        finally:
            self._points[point].merge(METRICS.delta_since(before))

    def deltas(self) -> List[dict]:
        if self._points is None:
            return [METRICS.delta_since(self._baseline)]
        return [metrics.snapshot() for metrics in self._points]


def _planned_length(name: str, source) -> int:
    """A trace's length before it exists (0 when unknown)."""
    if source.kind == "imported":
        return source.traces[source.trace_names().index(name)].branches or 0
    return scaled_length(name, source.max_length)


def prime_plan(
    plan,
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    policy: Optional[RetryPolicy] = None,
    injector: Optional[FaultInjector] = None,
    pool: Optional[WorkerPool] = None,
    say: Callable[[str], None] = lambda message: None,
) -> PrimedPlan:
    """Run a plan's trace and sim tasks in one scheduler pass.

    The lanes are the plan's non-deduped ``trace`` and ``sim`` tasks,
    across every point.  A trace the cache holds is read here; any
    other is a trace lane, made in a worker (or in-process at
    ``jobs <= 1``), longest first.  Once a trace is in, each sim task
    planned on it is folded from the cache or becomes a sim lane.
    Every lane's telemetry is charged to the point that planned it
    first, and each later point takes a deduped task's result from that
    point's lab -- counted as the session-memo hit a cache read would
    have been.  A one-point plan is the same pass with one point.

    Args mirror :func:`prime_labs`; a sim lane that exhausts its
    attempts is reported in its point's ``failures``.  ``say`` gets one
    progress line once the first lanes are in flight.

    Raises:
        FaultSpecError: If the fault spec injects hangs but the policy
            has no timeout to detect them with.
    """
    begin = time.perf_counter()
    jobs = pool.jobs if pool is not None else resolve_jobs(jobs)
    policy = _resolve_policy(policy, injector)
    ledger = _Ledger(len(plan.points))
    METRICS.gauge("parallel.workers", jobs)
    cache_root = str(cache.root) if cache is not None else None
    rank = {task.id: index for index, task in enumerate(plan.tasks)}
    trace_key: Dict[Tuple[int, str], str] = {}
    waiting: Dict[str, list] = {}
    for task in plan.tasks:
        if task.kind == "trace":
            trace_key[task.point, task.benchmark] = task.key
        elif task.kind == "sim" and task.deduped_from is None:
            key = trace_key[task.point, task.benchmark]
            waiting.setdefault(key, []).append(task)
    traces: Dict[str, object] = {}
    held: Dict[Tuple[int, str], Lab] = {}

    def lab(point: int, name: str) -> Lab:
        if (point, name) not in held:
            held[point, name] = Lab(
                traces[trace_key[point, name]],
                plan.points[point][1].config, cache, name,
            )
        return held[point, name]

    def trace_ready(key: str, trace) -> List[_Lane]:
        traces[key] = trace
        lanes = []
        for task in waiting.pop(key, ()):
            owner = lab(task.point, task.benchmark)
            with ledger.charge(task.point):
                if owner.fold_cached(task.task):
                    continue
            lanes.append(_Lane(
                task.benchmark, task.task,
                (plan.points[task.point][1].workload, len(trace), cache_root),
                lab=owner, point=task.point, rank=rank[task.id],
                priority=(1, -len(trace)),
            ))
        return lanes

    with span("prime_labs", jobs=jobs) as node:
        lanes: List[_Lane] = []
        for task in plan.tasks:
            if task.kind != "trace" or task.deduped_from is not None:
                continue
            source = plan.points[task.point][1].workload
            with ledger.charge(task.point):
                trace = cached_source_trace(task.benchmark, source, cache)
            if trace is not None:
                lanes += trace_ready(task.key, trace)
                continue
            lanes.append(_Lane(
                task.benchmark, TRACE_TASK, (source, None, cache_root),
                point=task.point, rank=rank[task.id], key=task.key,
                priority=(0, -_planned_length(task.benchmark, source)),
            ))
        scheduler = _Scheduler(
            lanes, jobs, policy, injector, pool, cache,
            on_done=lambda lane: (
                trace_ready(lane.key, lane.payload[0]) if lane.is_trace else ()
            ),
            charge=ledger.charge,
            announce=lambda: say(f"priming on {jobs} worker(s)..."),
        )
        scheduler.run()
        node.attrs["pending"] = len(scheduler.lanes)
        _fold_lanes(scheduler.lanes, cache, ledger.charge)

    # Each point's labs, in its benchmark order; deduped tasks are taken
    # from the point that planned them first.
    labs: List[Dict[str, Lab]] = []
    for index in range(len(plan.points)):
        labs.append({})
        with ledger.charge(index):
            for task in plan.point_tasks(index):
                if task.kind == "trace":
                    labs[index][task.benchmark] = lab(index, task.benchmark)
                    if task.deduped_from is not None and cache is not None:
                        cache.record_memo_hit("trace")
                elif task.kind == "sim" and task.deduped_from is not None:
                    owner = plan.task_by_id(task.deduped_from)
                    labs[index][task.benchmark].take(
                        task.task, lab(owner.point, owner.benchmark)
                    )
    failures: List[List[dict]] = [[] for _ in plan.points]
    for point, failure in sorted(
        scheduler.failures, key=lambda f: (f[1].benchmark, f[1].task)
    ):
        failures[point].append(failure.to_dict())
    return PrimedPlan(
        labs=labs,
        metrics=ledger.deltas(),
        failures=failures,
        seconds=time.perf_counter() - begin,
    )


def _fold_lanes(
    lanes: Sequence[_Lane],
    cache: Optional[ResultCache],
    charge: Callable[[int], contextlib.AbstractContextManager] = _no_charge,
) -> int:
    """Fold finished lanes into their labs; returns how many sims landed.

    Lanes fold in deterministic ``rank`` order, and so do their
    workers' metric deltas and span events, so aggregate telemetry is
    independent of worker scheduling.  A trace lane's trace was used
    when it landed; only its telemetry folds here.  A sim lane whose
    worker regenerated a different trace than the lab holds (an ad-hoc
    lab) is discarded; the lab computes it lazily.
    """
    executed = 0
    for lane in sorted(lanes, key=lambda lane: lane.rank):
        if lane.payload is None:
            continue  # failed after retries; recorded by the scheduler
        result, digest, delta, events, seconds = lane.payload
        with charge(lane.point):
            if delta is not None:
                METRICS.merge(delta)
                METRICS.add_time("parallel.job_seconds", seconds)
                TRACER.add_events(events)
            if lane.is_trace:
                continue
            lab = lane.lab
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
            METRICS.inc("parallel.jobs_executed")
            executed += 1
    return executed


def _report_failures(
    task_failures: List[Tuple[int, TaskFailure]], sink: Optional[list]
) -> None:
    """Deliver structured failures in a schedule-independent order."""
    if sink is None:
        return
    for _point, failure in sorted(
        task_failures, key=lambda f: (f[1].benchmark, f[1].task)
    ):
        sink.append(failure.to_dict())
