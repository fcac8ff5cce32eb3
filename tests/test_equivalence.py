"""One equivalence matrix: every way of running the paper gives one answer.

Each cell of :data:`CELLS` runs one pinned spec (the nine paper
experiments at 2,000 branches, seed 12345, or over two ingested
profiles) another way; its manifests must ``diff_manifests``-equal its
source's reference (jobs 1, cold cache, direct, uninterrupted), and
:func:`run_cell` checks its path's own promises.  Kills are timed to
progress lines and events, not seconds.  :data:`SWEEP_CELLS` run the
spec as a 2x2 sweep, whose every point must equal a plain run of that
point's spec.  Cells without ``tier1`` carry the ``matrix`` marker,
deselected by default; ``-m ""`` runs them all.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple, Optional

import pytest
from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st

from repro.analysis.cache import ResultCache
from repro.analysis.runner import DEFAULT_TASKS
from repro.api import run_spec
from repro.cli import main as repro_main
from repro.client import ServeClient
from repro.experiments.base import EXPERIMENT_IDS
from repro.obs.manifest import diff_manifests, read_manifest, validate_manifest
from repro.plan import build_plan
from repro.resilience.journal import RunJournal
from repro.serve import AnalysisServer, ServerThread
from repro.spec import EngineOptions, RunSpec, SweepSpec, spec_from_kwargs
from repro.workloads.suite import BENCHMARK_NAMES

REPO_DIR = Path(__file__).resolve().parents[1]
FLAGS = ["--max-length", "2000", "--seed", "12345"]
PROFILES = [REPO_DIR / "benchmarks" / "profiles" / f"{name}.txt"
            for name in ("p3_pattern", "p4_correlated")]
#: 8 gshare crashes + 8 torn pas entries + the gcc loop crash + the torn
#: gcc correlation entry: 18 faults, 9 retries, 9 entries to quarantine.
CHAOS = "gshare:1:crash,gcc/loop:1:crash,pas:1:corrupt,gcc/correlation:1:corrupt"
RETRIES = 2
FAULT_SEED = 20260
#: The priming kill waits for the pass's line that its first lanes are in
#: flight, so SIGTERM lands in the pool's futures wait.
KILL_LINES = {"priming": "priming on 2 worker(s)...", "fig5": "running fig5..."}
TIMEOUT = 600


@dataclasses.dataclass(frozen=True)
class Cell:
    """One way to run the pinned spec.  ``kill`` names where SIGTERM
    lands: after a direct run's ``priming`` or ``fig5`` line, or on a
    served run's ``first-event``."""

    jobs: int
    cache: str  # cold | warm | poisoned
    launch: str  # flags | spec | served
    kill: Optional[str] = None
    faults: str = "none"  # none | drawn
    source: str = "synthetic"  # synthetic | ingested
    tier1: bool = False

    @property
    def interruption(self) -> str:
        return "sigterm" if self.kill else "none"

    @property
    def id(self) -> str:
        return "-".join(filter(None, (
            f"jobs{self.jobs}", self.cache, self.launch, self.kill and f"kill@{self.kill}",
            self.faults != "none" and f"faults-{self.faults}",
            self.source != "synthetic" and self.source)))


CELLS = [
    #    jobs cache       launch    kill           faults   source
    Cell(1, "cold",     "spec",   None,          "none",  "synthetic"),
    Cell(2, "cold",     "flags",  None,          "none",  "synthetic", tier1=True),
    Cell(2, "warm",     "spec",   None,          "none",  "synthetic", tier1=True),
    Cell(1, "warm",     "flags",  None,          "none",  "synthetic"),
    Cell(2, "poisoned", "flags",  None,          "none",  "synthetic", tier1=True),
    Cell(1, "poisoned", "spec",   None,          "none",  "synthetic"),
    Cell(1, "cold",     "served", None,          "none",  "synthetic", tier1=True),
    Cell(2, "warm",     "served", None,          "none",  "ingested",  tier1=True),
    Cell(2, "cold",     "spec",   None,          "none",  "ingested"),
    Cell(1, "cold",     "flags",  None,          "drawn", "synthetic"),
    Cell(2, "cold",     "spec",   None,          "drawn", "synthetic"),
    Cell(2, "cold",     "flags",  "priming",     "none",  "synthetic"),
    Cell(1, "cold",     "spec",   "fig5",        "none",  "synthetic", tier1=True),
    Cell(2, "warm",     "served", "first-event", "none",  "synthetic"),
    Cell(1, "poisoned", "served", "first-event", "none",  "synthetic"),
]

AXES = {"jobs": (1, 2), "cache": ("cold", "warm", "poisoned"), "faults": ("none", "drawn"),
        "launch": ("flags", "spec", "served"), "interruption": ("none", "sigterm"),
        "source": ("synthetic", "ingested")}


def _digests(manifest):
    return {e["id"]: e["result_digest"] for e in manifest["experiments"]}


def _resilience(manifest):
    """The resilience record and counters, minus what a path may vary."""
    record = {**manifest["resilience"], **manifest["metrics"]["counters"]}
    return {key: value for key, value in record.items() if key.startswith(
        ("resilience.", "faults", "retries", "task_failures", "timeouts", "failures"))}


def _direct(spec, cache, jobs=1, **engine):
    """``run_spec`` of ``spec`` at ``jobs`` workers on ``cache``."""
    return run_spec(dataclasses.replace(
        spec, engine=EngineOptions(jobs=jobs, cache_dir=str(cache), **engine)))


def drawn_fault_spec() -> str:
    """Ten fault specs hypothesis draws under :data:`FAULT_SEED`, joined.
    Every fault fires on an attempt the retry budget covers."""
    entry = st.builds(
        "{}{}:{}:{}".format,
        st.sampled_from(["", "*/"] + [f"{name}/" for name in BENCHMARK_NAMES]),
        st.sampled_from(DEFAULT_TASKS),
        st.integers(min_value=1, max_value=RETRIES),
        st.sampled_from(["crash", "corrupt"]),
    )
    drawn = []
    seed(FAULT_SEED)(settings(
        max_examples=10, database=None, phases=[Phase.generate], deadline=None,
    )(given(st.lists(entry, min_size=1, max_size=6, unique=True))(
        lambda entries: drawn.extend(entries))))()
    return ",".join(dict.fromkeys(drawn))


class Reference(NamedTuple):
    manifest: dict
    cache: Path
    renders: dict


class References:
    """Each source's spec and reference runs, made once per session."""

    def __init__(self, root: Path):
        self.root, self.runs = root, {}
        spec_path = root / "ingest_spec.json"
        assert repro_main(["ingest", *map(str, PROFILES), "--out-dir",
                           str(root / "ingested"), "--emit-spec", str(spec_path)]) == 0
        self.specs = {
            "synthetic": spec_from_kwargs(EXPERIMENT_IDS, max_length=2000, seed=12345),
            "ingested": RunSpec.from_file(str(spec_path)),
        }

    def get(self, source: str, fault_spec: Optional[str] = None) -> Reference:
        if (source, fault_spec) not in self.runs:
            cache = self.root / f"cache-{len(self.runs)}"
            run = _direct(self.specs[source], cache, fault_spec=fault_spec,
                          retries=RETRIES if fault_spec else None)
            assert run.ok
            renders = {key: result.render() for key, result in run.results.items()}
            self.runs[source, fault_spec] = Reference(run.manifest, cache, renders)
        return self.runs[source, fault_spec]


@pytest.fixture(scope="session")
def references(tmp_path_factory):
    return References(tmp_path_factory.mktemp("references"))


class Watched:
    """``python -m repro ARGV`` in its own session, stderr into stdout; a
    thread reads each line and sends SIGTERM once ``kill_after`` prints."""

    def __init__(self, argv, cwd: Path, kill_after: Optional[str] = None):
        self.kill_after, self.signalled_at, self.lines = kill_after, None, []
        self._changed, self._eof = threading.Condition(), False
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *map(str, argv)], cwd=str(cwd),
            env={**env, "PYTHONPATH": str(REPO_DIR / "src")},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            bufsize=1, start_new_session=True,
        )
        self._thread = threading.Thread(target=self._watch, daemon=True)
        self._thread.start()

    def _watch(self):
        for line in self.proc.stdout:
            line = line.rstrip("\n")
            if line == self.kill_after and self.signalled_at is None:
                self.terminate()
            with self._changed:
                self.lines.append((time.monotonic(), line))  # (time, line)
                self._changed.notify_all()
        self.proc.stdout.close()
        with self._changed:
            self._eof = True
            self._changed.notify_all()

    def terminate(self):
        self.signalled_at = time.monotonic()
        self.proc.send_signal(signal.SIGTERM)

    def wait_line(self, prefix: str) -> tuple:
        """The first ``(time, line)`` that starts with ``prefix``."""
        def found():
            return [stamped for stamped in self.lines if stamped[1].startswith(prefix)]
        with self._changed:
            self._changed.wait_for(lambda: self._eof or found(), TIMEOUT)
            assert found(), f"no {prefix!r} line in:\n{self.lines}"
            return found()[0]

    def finish(self) -> tuple:
        """(exit code, output), once no process of the session is left."""
        try:
            code = self.proc.wait(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            raise
        self._thread.join(timeout=60)
        with pytest.raises(ProcessLookupError):
            os.killpg(self.proc.pid, 0)
        return code, "\n".join(line for _, line in self.lines)


def _launch_argv(cell, tmp, references, cache, resume=False) -> list:
    """A direct cell's argv: flags, or a spec file that still carries the
    retired ``"chunk_branches": null`` engine field."""
    if cell.launch == "flags":
        argv = ["report", *FLAGS]
    else:
        path = tmp / "spec.json"
        if cell.source == "synthetic":
            assert repro_main(["report", *FLAGS, "--emit-spec", str(path)]) == 0
            document = json.loads(path.read_text())
        else:
            document = references.specs[cell.source].to_dict()
        document["engine"]["chunk_branches"] = None
        path.write_text(json.dumps(document))
        argv = ["run", path]
    argv += ["--jobs", cell.jobs, "--cache-dir", cache, "--journal",
             tmp / "journal.jsonl", "--manifest-out", tmp / "manifest.json"]
    if cell.faults == "drawn":
        argv += ["--inject-fault", drawn_fault_spec(), "--retries", RETRIES]
    return [str(arg) for arg in argv] + (["--resume"] if resume else [])


def _run_direct(cell, tmp, cache, references):
    assert repro_main(_launch_argv(cell, tmp, references, cache)) == 0
    return [read_manifest(str(tmp / "manifest.json"))]


def _kill_and_resume(cell, tmp, cache, references):
    """SIGTERM a direct run at its kill line, then ``--resume`` it."""
    victim = Watched(_launch_argv(cell, tmp, references, cache), tmp,
                     kill_after=KILL_LINES[cell.kill])
    code, output = victim.finish()
    assert victim.signalled_at is not None and code == 130, output
    assert "Traceback" not in output, output
    journal = tmp / "journal.jsonl"
    entries = RunJournal(journal).load()
    journaled = [experiment_id for experiment_id, _ in entries]
    assert len(journal.read_text().splitlines() if journal.exists() else []) == len(entries)
    for (experiment_id, _), entry in entries.items():
        assert entry["render"] == references.get(cell.source).renders[experiment_id]
    if cell.kill == "priming":
        assert "running " not in output and journaled == []
        assert "landed in the wait on 2 pool future(s)" in output, output
    else:
        assert journaled == list(EXPERIMENT_IDS[:len(journaled)])
        assert 1 <= len(journaled) <= 8, journaled

    code, output = Watched(
        _launch_argv(cell, tmp, references, cache, resume=True), tmp).finish()
    assert code == 0, output
    manifest = read_manifest(str(tmp / "manifest.json"))
    assert manifest["resilience"]["resumed"] is True
    assert manifest["resilience"]["replayed"] == journaled
    return [manifest]


def _check_served(client, spec, reference) -> dict:
    """Submit ``spec``; check dedup and the session memo; the envelope."""
    run_id, _ = client.submit(spec)
    doc = client.wait(run_id, timeout=TIMEOUT)
    assert doc["status"] == "done", doc.get("error")
    assert doc["result"]["manifest"]["served_by"] == doc["served_by"]
    assert doc["result"]["spec_digest"] == spec.digest()
    assert client.submit(spec) == (run_id, False)
    # fig9 reads its bitmaps into the server's memo; fig7 shares them.
    for experiments in (("fig9",), ("fig7",)):
        overlap_id, _ = client.submit(dataclasses.replace(spec, experiments=experiments))
        manifest = client.wait(overlap_id, timeout=TIMEOUT)["result"]["manifest"]
        assert _digests(manifest) == {
            key: value for key, value in _digests(reference).items() if key in experiments
        }
    assert manifest["metrics"]["counters"].get("cache.memo_hits", 0) > 0
    return doc["result"]


def _run_served(cell, tmp, cache, references):
    thread = ServerThread(AnalysisServer(EngineOptions(jobs=cell.jobs, cache_dir=str(cache)),
                                         instance_id="matrix", drain_grace=0.0))
    client = ServeClient(thread.start(), client_id="matrix")
    try:
        return [_check_served(client, references.specs[cell.source],
                              references.get(cell.source).manifest)["manifest"]]
    finally:
        thread.stop()


def _serve(cell, tmp, cache) -> tuple:
    """``repro serve --port 0`` on the cell's cache; (daemon, its URL)."""
    daemon = Watched(["serve", "--port", 0, "--jobs", cell.jobs, "--cache-dir", cache,
                      "--journal", tmp / "serve_journal.jsonl",
                      "--instance-id", "matrix", "--drain-grace", 1], tmp)
    line = daemon.wait_line("repro serve: ")[1]
    assert " listening on " in line, line
    return daemon, line.split(" listening on ")[1].split()[0]


def _kill_served_and_replay(cell, tmp, cache, references):
    """SIGTERM the daemon on the first event; it drains, a restart replays."""
    spec, reference = references.specs[cell.source], references.get(cell.source).manifest
    daemon, url = _serve(cell, tmp, cache)
    client = ServeClient(url, client_id="matrix")
    run_id, _ = client.submit(spec)
    for event in client.events(run_id):
        if daemon.signalled_at is None:
            daemon.terminate()
        done_at = time.monotonic()
    assert event["type"] == "done" and event["ok"] is True
    first = client.status(run_id)["result"]["manifest"]
    code, output = daemon.finish()
    assert code == 0 and output.endswith("repro serve: drained, bye"), output
    assert daemon.signalled_at < daemon.wait_line("repro serve: draining")[0] < done_at

    restarted, url = _serve(cell, tmp, cache)
    try:
        envelope = _check_served(ServeClient(url, client_id="matrix"), spec, reference)
    finally:
        restarted.terminate()
        code, output = restarted.finish()
    assert code == 0, output
    assert envelope["replayed"] == list(EXPERIMENT_IDS)
    assert _digests(envelope["manifest"]) == _digests(first)
    return [first, envelope["manifest"]]


def run_cell(cell: Cell, tmp: Path, references: References) -> list:
    """Run one cell, check its own path's promises; all its manifests."""
    spec, cache = references.specs[cell.source], tmp / "cache"
    if cell.cache == "warm":
        shutil.copytree(references.get(cell.source).cache, cache)
    elif cell.cache == "poisoned":
        # The chaos run tears 9 entries it wrote, and must still match.
        chaos = _direct(spec, cache, cell.jobs, fault_spec=CHAOS, retries=RETRIES)
        resilience = chaos.manifest["resilience"]
        assert (resilience["faults_injected"], resilience["retries"], resilience["task_failures"],
                resilience["failures"]) == (18, 9, 0, []), resilience
        assert chaos.metrics["counters"]["resilience.faults.crash"] == 9
        assert diff_manifests(references.get(cell.source).manifest, chaos.manifest) == []
    if cell.launch == "served":
        run = _kill_served_and_replay if cell.kill else _run_served
    else:
        run = _kill_and_resume if cell.kill else _run_direct
    manifests = run(cell, tmp, cache, references)
    primary, counters = manifests[0], manifests[0]["metrics"]["counters"]

    if cell.cache == "warm":
        # Nothing was recomputed.
        assert primary["cache"]["result_misses"] == 0, primary["cache"]
        assert primary["cache"]["result_hits"] > 0, primary["cache"]
        assert primary["cache"]["hit_ratio"] == 1.0, primary["cache"]
        assert counters.get("sim.simulations", 0) == 0
        assert counters.get("sim.correlation_collections", 0) == 0
    if cell.cache == "poisoned":
        # Torn entries were quarantined and rewritten: the next run hits.
        assert ResultCache(cache).quarantine_count() == 9
        after = _direct(spec, cache, cell.jobs).manifest
        assert after["cache"]["result_misses"] == 0, after["cache"]
        assert ResultCache(cache).quarantine_count() == 9
        manifests.append(after)
    if cell.jobs == 2 and cell.cache == "cold" and not cell.kill:
        assert counters.get("parallel.jobs_executed", 0) > 0, counters
    assert primary["served_by"] == ("matrix" if cell.launch == "served" else None)
    if cell.source == "ingested":
        source = primary["trace_source"]
        assert source["kind"] == "imported" and len(source["traces"]) == 2
    if cell.faults == "drawn":
        # Equal resilience counters at every worker count.
        expected = references.get(cell.source, drawn_fault_spec()).manifest
        assert _resilience(primary) == _resilience(expected), drawn_fault_spec()
    return manifests


@pytest.mark.parametrize("cell", [
    pytest.param(cell, id=cell.id, marks=() if cell.tier1 else pytest.mark.matrix)
    for cell in CELLS
])
def test_cell_matches_reference(cell, tmp_path, references):
    reference = references.get(cell.source).manifest
    for manifest in run_cell(cell, tmp_path, references):
        assert validate_manifest(manifest) == []
        assert diff_manifests(reference, manifest) == []


def test_table_covers_every_pair():
    rows = [{axis: getattr(cell, axis) for axis in AXES} for cell in CELLS]
    for axis, values in AXES.items():
        assert {row[axis] for row in rows} == set(values), axis
    for first, second in itertools.combinations(("jobs", "cache", "launch", "interruption"), 2):
        wanted = set(itertools.product(AXES[first], AXES[second]))
        assert wanted <= {(row[first], row[second]) for row in rows}, (first, second)
    assert sum(1 for cell in CELLS if cell.tier1 and cell.kill) <= 1


def test_two_servers_share_one_cold_cache(tmp_path, references):
    """Concurrent cache writers: two servers on one cache directory run
    the same cold spec at once; no entry is torn and a third run is warm."""
    spec, reference = references.specs["synthetic"], references.get("synthetic").manifest
    cache = tmp_path / "cache"
    threads = [ServerThread(AnalysisServer(
        EngineOptions(jobs=1, cache_dir=str(cache)), drain_grace=0.0)) for _ in range(2)]
    clients = [ServeClient(thread.start(), client_id="writer") for thread in threads]
    try:
        run_ids = [client.submit(spec)[0] for client in clients]
        with ThreadPoolExecutor(2) as pool:
            docs = list(pool.map(lambda client, run_id: client.wait(run_id, timeout=TIMEOUT),
                                 clients, run_ids))
    finally:
        for thread in threads:
            thread.stop()
    for doc in docs:
        assert doc["status"] == "done", doc.get("error")
        assert diff_manifests(reference, doc["result"]["manifest"]) == []
    assert ResultCache(cache).quarantine_count() == 0
    warm = _direct(spec, cache).manifest
    assert warm["cache"]["result_misses"] == 0
    assert diff_manifests(reference, warm) == []


def test_two_servers_count_only_their_own_run(tmp_path, references):
    """Two servers in one process, on separate cache directories, run the
    same cold spec at once; each run's ``metrics`` event counts that run
    alone, as a lone run's manifest does."""
    spec, reference = references.specs["synthetic"], references.get("synthetic").manifest
    threads = [ServerThread(AnalysisServer(
        EngineOptions(jobs=1, cache_dir=str(tmp_path / f"cache-{index}")), drain_grace=0.0))
        for index in range(2)]
    clients = [ServeClient(thread.start(), client_id="counter") for thread in threads]
    try:
        run_ids = [client.submit(spec)[0] for client in clients]
        with ThreadPoolExecutor(2) as pool:
            docs = list(pool.map(lambda client, run_id: client.wait(run_id, timeout=TIMEOUT),
                                 clients, run_ids))
        counted = [next(event["metrics"] for event in client.events(run_id)
                        if event["type"] == "metrics")
                   for client, run_id in zip(clients, run_ids)]
    finally:
        for thread in threads:
            thread.stop()
    lone = reference["metrics"]["counters"]
    assert lone["sim.simulations"] == 136 and reference["cache"]["result_misses"] == 144
    for doc, counters in zip(docs, counted):
        assert doc["status"] == "done", doc.get("error")
        assert _digests(doc["result"]["manifest"]) == _digests(reference)
        assert counters["sim.simulations"] == 136
        assert counters["cache.bitmap.misses"] + counters["cache.corr.misses"] == 144


#: A 2x2 grid over the two history lengths the paper's figs 7 and 9 and
#: table 3 compare, run with 1 and 2 workers and without a cache.
SWEEP_AXES = (("gshare_history_bits", (8, 12)), ("pas_history_bits", (6, 10)))
SWEEP_CELLS = {"jobs1": dict(jobs=1), "jobs2": dict(jobs=2),
               "no-cache": dict(jobs=2, cache=False)}


@pytest.fixture(scope="session")
def point_references(references, tmp_path_factory):
    """A plain ``run_spec`` of each sweep point's spec, cold, jobs 1."""
    swept = dataclasses.replace(references.specs["synthetic"], sweep=SweepSpec(axes=SWEEP_AXES))
    root = tmp_path_factory.mktemp("point-references")
    return swept, [_direct(point_spec, root / f"cache-{index}").manifest
                   for index, (_coords, point_spec) in enumerate(swept.expand_points())]


@pytest.mark.parametrize("engine", [
    pytest.param(options, id=f"sweep-{name}", marks=() if name == "jobs2" else pytest.mark.matrix)
    for name, options in SWEEP_CELLS.items()
])
def test_sweep_points_match_plain_runs(engine, tmp_path, point_references):
    """One priming pass for the grid: each point equals its plain run,
    each distinct sim key executes once over all points, and each
    experiment whose inputs repeat an earlier point's is reused."""
    swept, references = point_references
    run = run_spec(dataclasses.replace(
        swept, engine=EngineOptions(cache_dir=str(tmp_path / "cache"), **engine)))
    assert run.ok and len(run.points) == len(references) == 4
    for point, reference in zip(run.points, references):
        assert validate_manifest(point.report.manifest) == []
        assert point.report.manifest["sweep"] == point.coords
        assert diff_manifests(reference, {**point.report.manifest, "sweep": None}) == []
    plan = build_plan(swept)

    def first(kind):
        return sum(1 for task in plan.tasks if task.kind == kind and task.deduped_from is None)

    def total(counter):
        return sum(point.report.metrics["counters"].get(counter, 0) for point in run.points)

    assert total("parallel.jobs_executed") == first("sim")
    assert total("sim.correlation_collections") == len(BENCHMARK_NAMES)
    assert total("experiments.reused") == len(plan.points) * len(EXPERIMENT_IDS) - first(
        "experiment") > 0
