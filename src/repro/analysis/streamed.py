"""Streamed analysis: task folds over a :class:`TraceStream`.

:func:`stream_report` is the bounded-memory accuracy report behind
``benchmarks/check_rss.py`` and paper-scale runs.  With a ``BPT2`` file
written window by window (:func:`repro.workloads.suite.stream_benchmark`
or ``repro ingest``), it never holds a whole trace or a whole-trace
bitmap, reducing each window to counts as it goes.  A
:func:`repro.api.run_spec` run is the other mode: its labs hold each
trace whole, because the selective-history oracle reads the whole run.

* The *causal* simulation tasks -- the ones whose kernels carry their
  predictor state across ``simulate()`` calls -- fold window by window
  through :func:`repro.sim.fold.fold_correct_count`.
  :data:`CHUNKABLE_TASKS` names them and :func:`task_predictor` builds
  each fold's predictor.
* The non-causal paper baselines (``ideal_static``, ``fixed_best``) are
  whole-run *definitions* -- the ideal static direction is the majority
  over the full run -- so they get dedicated streaming folds here that
  accumulate per-static-branch state (a few entries per static branch,
  not per dynamic branch) instead of materialising columns.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis.config import LabConfig
from repro.analysis.runner import _FACTORY_ATTRS
from repro.sim.fold import fold_correct_count
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
    return getattr(config, _FACTORY_ATTRS[task])()


def _window_rows(
    window_pcs: List[np.ndarray],
) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The sorted union of the windows' branch addresses, and each
    window's rows in it (for ``searchsorted`` accumulation)."""
    pcs = np.unique(np.concatenate(window_pcs))
    return pcs, [np.searchsorted(pcs, window) for window in window_pcs]


def ideal_static_count(chunks: Iterable[Trace]) -> Tuple[int, int]:
    """Streamed ``(correct, total)`` of the ideal static predictor.

    One pass keeping each window's per-static-branch ``(executions,
    taken)`` counts from its branch index, summed per branch at the
    end; the majority direction (ties toward taken, matching
    :func:`repro.trace.stats.ideal_static_correct`) determines the
    correct count without ever materialising the bitmap.
    """
    windows: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    total = 0
    for chunk in chunks:
        total += len(chunk)
        pcs, _ids, counts = chunk.branch_index()
        windows.append((pcs, counts, chunk.branch_sums(chunk.taken)))
    if not total:
        return 0, 0
    pcs, window_rows = _window_rows([window[0] for window in windows])
    executions = np.zeros(len(pcs), dtype=np.int64)
    taken = np.zeros(len(pcs), dtype=np.int64)
    for rows, (_pcs, counts, window_taken) in zip(window_rows, windows):
        executions[rows] += counts
        taken[rows] += window_taken
    correct = np.where(2 * taken >= executions, taken, executions - taken)
    return int(correct.sum()), total


def fixed_best_count(
    chunks: Iterable[Trace], max_k: Optional[int] = None
) -> Tuple[int, int]:
    """Streamed ``(correct, total)`` of the best-of-k fixed baseline.

    Matches :func:`repro.predictors.pattern.best_fixed_length_correct`:
    each static branch uses its individually best pattern length (ties
    toward the shortest ``k``).  Each window's outcomes are kept grouped
    by branch and bit-packed -- n/8 bytes total, the only
    trace-length-proportional state any streamed task needs -- then laid
    out branch after branch for one
    :func:`~repro.predictors.pattern.best_fixed_length_counts` reduction.
    """
    from repro.predictors.pattern import (
        MAX_PATTERN_LENGTH,
        best_fixed_length_counts,
    )

    if max_k is None:
        max_k = MAX_PATTERN_LENGTH
    windows: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    total = 0
    for chunk in chunks:
        total += len(chunk)
        pcs, ids, counts = chunk.branch_index()
        grouped = chunk.taken[np.argsort(ids, kind="stable")]
        windows.append((pcs, counts, np.packbits(grouped, bitorder="little")))
    if not total:
        return 0, 0
    pcs, window_rows = _window_rows([window[0] for window in windows])
    counts = np.zeros(len(pcs), dtype=np.int64)
    for rows, (_pcs, window_counts, _packed) in zip(window_rows, windows):
        counts[rows] += window_counts
    # Each window's branch groups land after what earlier windows wrote
    # for the same branch.
    fill = np.cumsum(counts) - counts
    outcomes = np.empty(total, dtype=bool)
    for rows, (_pcs, window_counts, packed) in zip(window_rows, windows):
        length = int(window_counts.sum())
        offset = fill[rows] - (np.cumsum(window_counts) - window_counts)
        outcomes[np.repeat(offset, window_counts) + np.arange(length)] = (
            np.unpackbits(packed, count=length, bitorder="little").view(bool)
        )
        fill[rows] += window_counts
    _best_k, best = best_fixed_length_counts(outcomes, counts, max_k)
    return int(best.sum()), total


#: Tasks :func:`stream_report` can fold in bounded memory, in report
#: order: the causal kernels plus the two whole-run static baselines.
STREAMABLE_TASKS: Tuple[str, ...] = CHUNKABLE_TASKS + (
    "ideal_static",
    "fixed_best",
)


def stream_report(
    stream: TraceStream,
    config: LabConfig,
    tasks: Tuple[str, ...] = STREAMABLE_TASKS,
) -> Dict[str, Dict[str, float]]:
    """Per-task accuracy over a stream, O(window) resident memory.

    Returns ``{task: {"correct", "total", "accuracy"}}``.  Counts are
    identical to a whole-trace run (the kernels are carried-state
    exact; the static folds are count-exact by construction).
    """
    report: Dict[str, Dict[str, float]] = {}
    for task in tasks:
        if task in CHUNKABLE_TASKS:
            correct, total = fold_correct_count(
                task_predictor(config, task), stream.chunks()
            )
        elif task == "ideal_static":
            correct, total = ideal_static_count(stream.chunks())
        elif task == "fixed_best":
            correct, total = fixed_best_count(stream.chunks())
        else:
            raise ValueError(
                f"task {task!r} is not streamable; choose from "
                f"{STREAMABLE_TASKS}"
            )
        report[task] = {
            "correct": correct,
            "total": total,
            "accuracy": (correct / total) if total else 0.0,
        }
    return report
