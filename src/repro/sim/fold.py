"""Chunked simulation folds over the carried-state kernels.

The vectorized kernels (:mod:`repro.sim.kernels`,
:mod:`repro.sim.kernels_global`) write their final predictor state
(PHT counters, BHT registers, the global history register) back to the
predictor object after every ``simulate()`` call, precisely so a chained
``simulate(chunk_0); simulate(chunk_1); ...`` reproduces the whole-trace
run bit for bit.  This module is the fold that exploits it: feed the
windows of a :class:`~repro.trace.stream.TraceStream` through one
predictor instance and concatenate (or just count) the per-window
correctness bitmaps.  A fold is an object with ``add(window)`` and
``result()``, so one pass over a stream can feed each window to several
folds (:func:`repro.analysis.streamed.stream_report`).

Everything here takes "a predictor" as any object with the
:class:`~repro.predictors.base.BranchPredictor` ``simulate`` contract;
the sim layer stays import-free of the predictor and analysis layers.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from repro.obs.metrics import METRICS
from repro.trace.trace import Trace

__all__ = ["CorrectCount", "fold_correct_count", "fold_simulate", "fold_windows"]


def fold_simulate(predictor, chunks: Iterable[Trace]) -> np.ndarray:
    """Simulate ``chunks`` in order through one predictor instance.

    Returns the concatenated correctness bitmap -- bit-identical to
    ``predictor.simulate(whole_trace)`` for every registry kernel,
    because each call resumes from the state the previous one wrote
    back.
    """
    parts = []
    for chunk in chunks:
        METRICS.inc("sim.chunk_simulations")
        parts.append(predictor.simulate(chunk))
    if not parts:
        return np.zeros(0, dtype=bool)
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


class CorrectCount:
    """Running ``(correct, total)`` of one predictor over windows fed in
    order -- O(window) memory.

    The accuracy-only fold: each window's bitmap is reduced to a count as
    it is produced, so nothing proportional to the trace length is ever
    resident.  This is what the memory gate measures.
    """

    def __init__(self, predictor) -> None:
        self.predictor = predictor
        self.correct = 0
        self.total = 0

    def add(self, chunk: Trace) -> None:
        METRICS.inc("sim.chunk_simulations")
        bitmap = self.predictor.simulate(chunk)
        self.correct += int(np.count_nonzero(bitmap))
        self.total += len(chunk)

    def result(self) -> Tuple[int, int]:
        return self.correct, self.total


def fold_windows(fold, chunks: Iterable[Trace]) -> Tuple[int, int]:
    """Feed ``chunks`` to ``fold`` in order; return its result."""
    for chunk in chunks:
        fold.add(chunk)
    return fold.result()


def fold_correct_count(predictor, chunks: Iterable[Trace]) -> Tuple[int, int]:
    """Streamed ``(correct, total)`` over ``chunks`` (:class:`CorrectCount`)."""
    return fold_windows(CorrectCount(predictor), chunks)
