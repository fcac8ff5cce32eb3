"""Worker safety by construction: the pool job, its one submit site, and
the purity of ``_run_job``.

Each hazard class the retired WS codes named is owned by code that runs:

- WS001, a worker that keeps state across jobs: ``_run_job`` run on
  several jobs in one process must equal a fresh ``compute_task`` each
  time.  A module global that is written but never read changes no
  result, and is accepted.
- WS002, a closure handed to the pool: :meth:`WorkerPool.submit` is the
  only call into the executor, and it always sends ``_run_job``.
- WS003, set iteration: lint rule DH004, over the whole tree.
- WS004, a whole trace pickled into every job: :class:`PoolJob` rejects
  a ``Trace``, an ndarray or a callable in any field.
"""

import ast
import pickle
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import repro.analysis.parallel as parallel
from repro.analysis import runner
from repro.analysis.config import DEFAULT_CONFIG
from repro.analysis.parallel import PoolJob, WorkerPool, prime_plan
from repro.check.lint import lint_source
from repro.experiments.base import experiment_requires
from repro.plan import build_plan
from repro.resilience.retry import RetryPolicy
from repro.spec import RunSpec, SyntheticSource
from repro.workloads.suite import load_source_trace

SOURCE = SyntheticSource(max_length=2000)

PARALLEL_SOURCE = Path(parallel.__file__).read_text(encoding="utf-8")


def make_job(**fields):
    """A compress gshare job on the 2,000-branch suite, with ``fields``."""
    return PoolJob(**{
        "name": "compress", "task": "gshare", "config": DEFAULT_CONFIG,
        "source": SOURCE, "length": None, "cache_root": None,
        "fault_kinds": (), **fields,
    })


#: A benchmark, another, then the first again, in one process.
SEQUENCE = [make_job(), make_job(name="gcc"), make_job()]


def mismatches(jobs):
    """The jobs whose ``_run_job`` result is not a fresh ``compute_task``."""
    found = []
    for job in jobs:
        try:
            result, digest, *_ = parallel._run_job(job)
        except ValueError as error:  # the lab refuses a foreign bitmap
            found.append((job.name, job.task, str(error)))
            continue
        trace = load_source_trace(job.name, job.source)
        assert digest == trace.digest()
        fresh = runner.compute_task(trace, job.config, job.task, job.name)
        if not np.array_equal(result, fresh):
            found.append((job.name, job.task))
    return found


def submit_sites():
    """``(function, receiver, args)`` of every ``.submit(...)`` call in
    the scheduler module."""
    sites = []
    for node in ast.walk(ast.parse(PARALLEL_SOURCE)):
        if not isinstance(node, ast.FunctionDef):
            continue
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) \
                    and call.func.attr == "submit":
                sites.append((
                    node.name, ast.unparse(call.func.value),
                    [ast.unparse(arg) for arg in call.args],
                ))
    return sites


def codes(diagnostics):
    return [diag.code for diag in diagnostics]


#: A fold that iterates a set through a local name.
SET_FOLD = """\
def fold(tasks):
    pending = set(tasks)
    total = 0
    for task in pending:
        total = total * 31 + len(task)
    return total
"""


class TestRealTreeIsClean:
    def test_shipped_scheduler_passes(self, monkeypatch):
        # A real jobs-2 pass: every lane reaches the pool as a PoolJob.
        submitted = []
        real_submit = WorkerPool.submit

        def recording(pool, job):
            submitted.append(job)
            return real_submit(pool, job)

        monkeypatch.setattr(WorkerPool, "submit", recording)
        spec = RunSpec(experiments=("fig6",), workload=SyntheticSource(
            max_length=2000, benchmarks=("compress", "gcc")))
        with WorkerPool(2) as pool:
            primed = prime_plan(build_plan(spec), pool=pool, policy=RetryPolicy())
        labs = primed.labs[0]
        sims = [job for job in submitted if job.task != parallel.TRACE_TASK]
        assert primed.metrics[0].counter("parallel.jobs_executed") == len(sims)
        assert sorted((job.name, job.task) for job in sims) == sorted(
            (name, task)
            for name in ("compress", "gcc")
            for task in experiment_requires("fig6")
        )
        assert all(isinstance(job, PoolJob) for job in submitted)
        for job in sims:
            lab = labs[job.name]
            assert np.array_equal(
                lab.correct(job.task),
                runner.compute_task(lab.trace, lab.config, job.task, job.name),
            )

    def test_every_submitted_function_is_an_entry(self):
        # One call into the executor, and it sends _run_job; everything
        # else goes through WorkerPool.submit with a job.
        sites = submit_sites()
        executor_sites = [site for site in sites if site[1] != "self._pool"]
        assert executor_sites == [("submit", "self.handle()", ["_run_job", "job"])]
        assert [site[2] for site in sites if site[1] == "self._pool"] == [
            ["job"], ["job"],
        ]
        calls = []

        class Executor:
            def submit(self, fn, *args):
                calls.append((fn, args))
                return Future()

        pool = WorkerPool(2)
        pool._pool = Executor()
        job = make_job()
        pool.submit(job)
        assert calls == [(parallel._run_job, (job,))]

    def test_task_table_compute_is_an_entry(self):
        # WS001: a worker runs job after job; none may see another's
        # state.  Each result equals a fresh compute_task on its trace.
        assert mismatches(SEQUENCE) == []

    def test_telemetry_singletons_are_allowlisted(self):
        # Telemetry is the one state a worker writes: _run_job counts
        # each job in a fresh metrics registry and resets TRACER, so
        # each job ships only its own work.
        payloads = [parallel._run_job(job) for job in SEQUENCE]
        first, _, last = [payload[2]["counters"] for payload in payloads]
        assert first == last
        assert first["sim.simulations"] == 1
        for payload in payloads:
            assert [event["name"] for event in payload[3]
                    if event.get("ph") == "X"].count("job") == 1


class TestSeededWorkerDefects:
    def test_all_findings_are_errors(self):
        # Every planted hazard fails at construction, naming its field.
        trace = load_source_trace("compress", SOURCE)
        planted = {
            "source": trace, "config": np.zeros(4), "cache_root": len,
            "name": lambda: "compress", "length": trace.taken,
        }
        for field, value in planted.items():
            with pytest.raises(TypeError, match=f"PoolJob.{field} is a"):
                make_job(**{field: value})

    def test_ws001_sees_through_reachable_helpers(self, monkeypatch):
        # A helper _run_job calls memoises by task alone: the second
        # benchmark gets the first one's bitmap, and the run fails.
        memo = {}
        real = parallel.compute_task

        def memoised(trace, config, task, name=None):
            if task not in memo:
                memo[task] = real(trace, config, task, name)
            return memo[task]

        monkeypatch.setattr(parallel, "compute_task", memoised)
        assert [found[0] for found in mismatches(SEQUENCE)] == ["gcc"]

    def test_ws002_flags_lambda_and_nested_function(self):
        def local_job():
            return None

        for closure in (lambda: None, local_job):
            with pytest.raises(TypeError, match="PoolJob.config is a function"):
                make_job(config=closure)
            with pytest.raises(TypeError, match="takes a PoolJob"):
                WorkerPool(2).submit(closure)

    def test_ws003_flags_set_iteration_in_fold(self):
        (finding,) = lint_source(SET_FOLD, "fold.py")
        assert finding.code == "DH004"
        assert finding.location == "fold.py:4"
        # The same loop planted in the real _run_job is a finding too.
        anchor = "    name, task, config = job.name, job.task, job.config\n"
        assert anchor in PARALLEL_SOURCE
        planted = PARALLEL_SOURCE.replace(anchor, anchor + (
            "    kinds = set(job.fault_kinds)\n"
            "    for kind in kinds:\n"
            "        pass\n"
        ))
        assert codes(lint_source(planted, "parallel.py")) == ["DH004"]

    def test_ws004_flags_whole_trace_submissions(self):
        trace = load_source_trace("compress", SOURCE)
        with pytest.raises(TypeError, match="PoolJob.source is a Trace"):
            make_job(source=trace)
        with pytest.raises(TypeError, match="PoolJob.config is a ndarray"):
            make_job(config=trace.taken)
        with pytest.raises(TypeError, match="takes a PoolJob"):
            WorkerPool(2).submit(("compress", "gshare", None, trace, ()))

    def test_clean_fold_stays_silent(self):
        assert lint_source(PARALLEL_SOURCE, "parallel.py") == []
        sorted_fold = SET_FOLD.replace("in pending", "in sorted(pending)")
        assert lint_source(sorted_fold, "fold.py") == []
        job = make_job(fault_kinds=("crash",))
        assert pickle.loads(pickle.dumps(job)) == job


class TestEntryResolution:
    def test_suppression_comment_silences_a_finding(self):
        suppressed = SET_FOLD.replace(
            "in pending:", "in pending:  # check: ignore"
        )
        assert lint_source(suppressed, "fold.py") == []
        hazard = suppressed + "\nimport random\nx = random.random()\n"
        assert codes(lint_source(hazard, "fold.py")) == ["DH002"]
