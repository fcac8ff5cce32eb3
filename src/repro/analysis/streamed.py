"""Streamed analysis: task folds over a :class:`TraceStream`.

Two consumers:

* The chunked priming path (:func:`repro.analysis.parallel.prime_labs`
  with ``chunk_branches`` set) folds the *causal* simulation tasks --
  the ones whose kernels carry their predictor state across
  ``simulate()`` calls -- window by window, in-process or across the
  worker pool.  :data:`CHUNKABLE_TASKS` names them and
  :func:`task_predictor` builds each lane's first predictor;
  :func:`chunked_bitmap` is the one-call fold the contract/property
  tests compare against.

* :func:`stream_report` is the bounded-memory accuracy report behind
  ``benchmarks/check_rss.py`` and paper-scale runs: it never holds a
  whole-trace bitmap, reducing each window to counts as it goes.  The
  non-causal paper baselines (``ideal_static``, ``fixed_best``) are
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
from repro.obs.metrics import METRICS
from repro.sim.fold import fold_correct_count, fold_simulate
from repro.trace.stream import TraceStream
from repro.trace.trace import Trace

#: Simulation tasks whose kernels resume from written-back state, so a
#: chunked fold is bit-identical to the whole-trace run.  The whole-run
#: baselines (``ideal_static``, ``fixed_best``) and the correlation
#: collection are deliberately absent: they are defined over the full
#: trace and keep the unchunked path.
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


def chunked_bitmap(stream: TraceStream, config: LabConfig, task: str) -> np.ndarray:
    """Whole-trace correctness bitmap of ``task``, folded over chunks.

    Bit-identical to ``compute_task(stream.whole(), config, task)`` for
    every :data:`CHUNKABLE_TASKS` member.
    """
    METRICS.inc("sim.chunked_simulations")
    return fold_simulate(task_predictor(config, task), stream.chunks())


def ideal_static_count(chunks: Iterable[Trace]) -> Tuple[int, int]:
    """Streamed ``(correct, total)`` of the ideal static predictor.

    One pass accumulating per-static-branch ``(executions, taken)``
    counts; the majority direction (ties toward taken, matching
    :func:`repro.trace.stats.ideal_static_correct`) determines the
    correct count without ever materialising the bitmap.
    """
    counts: Dict[int, List[int]] = {}
    total = 0
    for chunk in chunks:
        total += len(chunk)
        uniq, inverse = np.unique(chunk.pc, return_inverse=True)
        executions = np.bincount(inverse, minlength=len(uniq))
        taken = np.bincount(
            inverse, weights=chunk.taken, minlength=len(uniq)
        ).astype(np.int64)
        for pc, execs, tk in zip(
            uniq.tolist(), executions.tolist(), taken.tolist()
        ):
            entry = counts.setdefault(pc, [0, 0])
            entry[0] += execs
            entry[1] += tk
    correct = sum(
        taken if 2 * taken >= execs else execs - taken
        for execs, taken in counts.values()
    )
    return correct, total


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
    pcs = np.unique(np.concatenate([window[0] for window in windows]))
    counts = np.zeros(len(pcs), dtype=np.int64)
    for window_pcs, window_counts, _packed in windows:
        counts[np.searchsorted(pcs, window_pcs)] += window_counts
    # Each window's branch groups land after what earlier windows wrote
    # for the same branch.
    fill = np.cumsum(counts) - counts
    outcomes = np.empty(total, dtype=bool)
    for window_pcs, window_counts, packed in windows:
        rows = np.searchsorted(pcs, window_pcs)
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
