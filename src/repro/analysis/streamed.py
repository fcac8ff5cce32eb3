"""Streamed analysis: task folds over a :class:`TraceStream`.

:func:`stream_report` is the bounded-memory accuracy report behind
``benchmarks/check_rss.py`` and paper-scale runs.  With a ``BPT2`` file
written window by window (:func:`repro.workloads.suite.stream_benchmark`
or ``repro ingest``), it never holds a whole trace or a whole-trace
bitmap, reducing each window to counts as it goes.  A
:func:`repro.api.run_spec` run is the other mode: its labs hold each
trace whole, because the selective-history oracle reads the whole run.

The stream is read once.  Each window goes to every task's *fold* in
turn -- an object with ``add(window)`` and ``result()`` -- so the
window's memoised branch index and branch order are built once and
shared by all of them:

* The *causal* simulation tasks -- the ones whose kernels carry their
  predictor state across ``simulate()`` calls -- fold window by window
  through :class:`repro.sim.fold.CorrectCount`.
  :data:`CHUNKABLE_TASKS` names them and :func:`task_predictor` builds
  each fold's predictor.
* The non-causal paper baselines (``ideal_static``, ``fixed_best``) are
  whole-run *definitions* -- the ideal static direction is the majority
  over the full run -- so their folds (:class:`IdealStaticCount`,
  :class:`FixedBestCount`) accumulate per-static-branch state (a few
  entries per static branch, not per dynamic branch; bit-packed
  outcomes for ``fixed_best``) and reduce it at the end.
  :func:`ideal_static_count` and :func:`fixed_best_count` drive the
  same folds over any window iterable.

Each task's work on a window runs in a ``simulate`` span tagged with
the task, as does the final ``fixed_best`` reduction.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis.config import LabConfig, build_task
from repro.obs.tracing import span
from repro.sim.fold import CorrectCount, fold_windows
from repro.trace.stream import TraceStream
from repro.trace.trace import Trace

#: Simulation tasks whose kernels resume from written-back state, so a
#: chunked fold is bit-identical to the whole-trace run (contract PC011).
#: The whole-run baselines (``ideal_static``, ``fixed_best``) and the
#: correlation collection are deliberately absent: they are defined over
#: the full trace.
CHUNKABLE_TASKS: Tuple[str, ...] = (
    "gshare",
    "if_gshare",
    "pas",
    "if_pas",
    "loop",
    "block",
)


def task_predictor(config: LabConfig, task: str):
    """A fresh predictor instance for one chunkable task."""
    if task not in CHUNKABLE_TASKS:
        raise ValueError(
            f"task {task!r} is not chunkable; choose from {CHUNKABLE_TASKS}"
        )
    return build_task(task, config)


def _window_rows(
    window_pcs: List[np.ndarray],
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The sorted union of the windows' branch addresses, and each
    window's rows in it (for ``searchsorted`` accumulation)."""
    pcs = np.unique(np.concatenate(window_pcs))
    return pcs, [np.searchsorted(pcs, window) for window in window_pcs]


class IdealStaticCount:
    """Streamed ``(correct, total)`` of the ideal static predictor.

    Each window adds its per-static-branch ``(executions, taken)`` counts
    from its branch index; :meth:`result` sums them per branch, and the
    majority direction (ties toward taken, matching
    :func:`repro.trace.stats.ideal_static_correct`) determines the
    correct count without ever materialising the bitmap.
    """

    def __init__(self) -> None:
        self._windows: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.total = 0

    def add(self, chunk: Trace) -> None:
        self.total += len(chunk)
        pcs, _ids, counts = chunk.branch_index()
        self._windows.append((pcs, counts, chunk.branch_sums(chunk.taken)))

    def result(self) -> Tuple[int, int]:
        if not self.total:
            return 0, 0
        pcs, window_rows = _window_rows([window[0] for window in self._windows])
        executions = np.zeros(len(pcs), dtype=np.int64)
        taken = np.zeros(len(pcs), dtype=np.int64)
        for rows, (_pcs, counts, window_taken) in zip(
            window_rows, self._windows
        ):
            executions[rows] += counts
            taken[rows] += window_taken
        correct = np.where(2 * taken >= executions, taken, executions - taken)
        return int(correct.sum()), self.total


#: Outcomes per best-of-k block: :meth:`FixedBestCount.result` lays out
#: whole branches, a block for the branches that start in each span of
#: this many outcomes, and a longer branch in pieces of this many, so its
#: peak does not grow with the run's length.
FIXED_BEST_BLOCK = 1 << 18


class FixedBestCount:
    """Streamed ``(correct, total)`` of the best-of-k fixed baseline.

    Matches :func:`repro.predictors.pattern.best_fixed_length_correct`:
    each static branch uses its individually best pattern length (ties
    toward the shortest ``k``).  Each window's outcomes are kept grouped
    by branch and bit-packed -- n/8 bytes total, the only
    trace-length-proportional state any streamed task needs.
    :meth:`result` reduces whole branches in blocks of about
    :data:`FIXED_BEST_BLOCK` outcomes: it unpacks each window's bit range
    for the block, lays the block's branches out one after another, and
    sums :func:`~repro.predictors.pattern.best_fixed_length_counts` over
    the blocks.  A branch longer than a block is reduced on its own, in
    pieces of a block that overlap by ``max_k`` outcomes: its per-``k``
    counts are summed over the pieces before the best ``k`` is picked.
    """

    def __init__(self, max_k: Optional[int] = None) -> None:
        from repro.predictors.pattern import MAX_PATTERN_LENGTH

        self.max_k = MAX_PATTERN_LENGTH if max_k is None else max_k
        self._windows: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.total = 0

    def add(self, chunk: Trace) -> None:
        self.total += len(chunk)
        pcs, _ids, counts = chunk.branch_index()
        grouped = chunk.taken[chunk.branch_order()]
        self._windows.append(
            (pcs, counts, np.packbits(grouped, bitorder="little"))
        )

    def result(self) -> Tuple[int, int]:
        from repro.predictors.pattern import best_fixed_length_counts

        if not self.total:
            return 0, 0
        pcs, window_rows = _window_rows([window[0] for window in self._windows])
        counts = np.zeros(len(pcs), dtype=np.int64)
        for rows, (_pcs, window_counts, _packed) in zip(
            window_rows, self._windows
        ):
            counts[rows] += window_counts
        # Each window's branch groups land after what earlier windows
        # wrote for the same branch.
        fill = np.cumsum(counts) - counts
        size = max(FIXED_BEST_BLOCK, self.max_k)
        block = fill // size
        long = np.flatnonzero(counts > size)
        edges = sorted({
            0, len(pcs), *(np.flatnonzero(np.diff(block)) + 1).tolist(),
            *long.tolist(), *(long + 1).tolist(),
        })
        windows = [
            (rows, window_counts, np.cumsum(window_counts) - window_counts, packed)
            for rows, (_pcs, window_counts, packed) in zip(window_rows, self._windows)
        ]
        correct = 0
        for lo, hi in zip(edges[:-1], edges[1:]):
            if counts[lo] > size:
                correct += self._long_branch(lo, int(counts[lo]), windows, size)
                continue
            base = int(fill[lo])
            outcomes = np.empty(int(counts[lo:hi].sum()), dtype=bool)
            for rows, window_counts, starts, packed in windows:
                # The window's branches in the block are one bit range.
                first, last = np.searchsorted(rows, (lo, hi))
                if first == last:
                    continue
                sizes = window_counts[first:last]
                bit, length = int(starts[first]), int(sizes.sum())
                at = np.repeat(fill[rows[first:last]] - base - (starts[first:last] - bit), sizes)
                at += np.arange(length)
                outcomes[at] = _unpack(packed, bit, length)
                fill[rows[first:last]] += sizes
            _best_k, best = best_fixed_length_counts(
                outcomes, counts[lo:hi], self.max_k
            )
            correct += int(best.sum())
        return correct, self.total

    def _long_branch(self, row: int, count: int, windows, size: int) -> int:
        """Best-of-k correct count of one branch longer than a block."""
        from repro.predictors.pattern import fixed_length_counts

        # Where each window's share of the branch sits in its outcomes.
        parts = []
        offset = 0
        for rows, window_counts, starts, packed in windows:
            at = int(np.searchsorted(rows, row))
            if at < len(rows) and rows[at] == row:
                share = int(window_counts[at])
                parts.append((offset, share, int(starts[at]), packed))
                offset += share
        per_k = np.zeros(self.max_k, dtype=np.int64)
        for lo in range(0, count, size):
            hi = min(lo + size, count)
            # max_k earlier outcomes give every scored one its history.
            begin = max(0, lo - self.max_k)
            outcomes = np.empty(hi - begin, dtype=bool)
            for start, share, bit, packed in parts:
                a, b = max(begin, start), min(hi, start + share)
                if a < b:
                    outcomes[a - begin:b - begin] = _unpack(
                        packed, bit + a - start, b - a
                    )
            per_k += fixed_length_counts(
                outcomes, [hi - begin], self.max_k, context=[lo - begin]
            )[0]
        return int(per_k.max())


def _unpack(packed: np.ndarray, bit: int, length: int) -> np.ndarray:
    """``length`` outcomes from bit ``bit`` of a little-endian packing."""
    return np.unpackbits(
        packed[bit >> 3:(bit + length + 7) >> 3], bitorder="little"
    )[bit & 7:(bit & 7) + length].view(bool)


def ideal_static_count(chunks: Iterable[Trace]) -> Tuple[int, int]:
    """Streamed ``(correct, total)`` of the ideal static predictor
    (:class:`IdealStaticCount`)."""
    return fold_windows(IdealStaticCount(), chunks)


def fixed_best_count(
    chunks: Iterable[Trace], max_k: Optional[int] = None
) -> Tuple[int, int]:
    """Streamed ``(correct, total)`` of the best-of-k fixed baseline
    (:class:`FixedBestCount`)."""
    return fold_windows(FixedBestCount(max_k), chunks)


#: Tasks :func:`stream_report` can fold in bounded memory, in report
#: order: the causal kernels plus the two whole-run static baselines.
STREAMABLE_TASKS: Tuple[str, ...] = CHUNKABLE_TASKS + (
    "ideal_static",
    "fixed_best",
)


def _task_fold(config: LabConfig, task: str):
    if task == "ideal_static":
        return IdealStaticCount()
    if task == "fixed_best":
        return FixedBestCount()
    return CorrectCount(task_predictor(config, task))


def stream_report(
    stream: TraceStream,
    config: LabConfig,
    tasks: Tuple[str, ...] = STREAMABLE_TASKS,
) -> Dict[str, Dict[str, float]]:
    """Per-task accuracy over a stream, O(window) resident memory.

    Returns ``{task: {"correct", "total", "accuracy"}}``.  Counts are
    identical to a whole-trace run (the kernels are carried-state
    exact; the static folds are count-exact by construction).  The
    stream is read once: every task's fold takes each window in turn,
    so the window's branch index is built once for all of them.
    """
    for task in tasks:
        if task not in STREAMABLE_TASKS:
            raise ValueError(
                f"task {task!r} is not streamable; choose from "
                f"{STREAMABLE_TASKS}"
            )
    folds = {task: _task_fold(config, task) for task in tasks}
    for window in stream.chunks():
        for task, fold in folds.items():
            with span("simulate", predictor=task, length=len(window)):
                fold.add(window)
    # The best-of-k reduction lays out the whole run's outcomes, so it
    # runs last, once every other fold and its predictor are released.
    counts: Dict[str, Tuple[int, int]] = {}
    for task in sorted(folds, key=lambda task: task == "fixed_best"):
        fold = folds.pop(task)
        if task == "fixed_best":
            with span("simulate", predictor=task, length=0):
                counts[task] = fold.result()
        else:
            counts[task] = fold.result()
    report: Dict[str, Dict[str, float]] = {}
    for task in tasks:
        correct, total = counts[task]
        report[task] = {
            "correct": correct,
            "total": total,
            "accuracy": (correct / total) if total else 0.0,
        }
    return report
