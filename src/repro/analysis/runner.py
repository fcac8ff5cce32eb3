"""The simulation lab: one place that runs predictors and caches results.

Every experiment in the paper reuses the same underlying simulations
(gshare appears in figure 4, table 2, figure 7 and figure 9; the
correlation collection feeds figures 4, 5, 8 and table 2).  A
:class:`Lab` wraps one trace and memoises every predictor's per-branch
correctness bitmap plus the correlation data, so a full experiment run
simulates each predictor exactly once.

When an on-disk :class:`~repro.analysis.cache.ResultCache` is attached,
each lookup goes memo -> disk cache -> compute (storing back to both),
so a repeated run over unchanged traces performs no simulation at all.

This module also holds the task table -- :data:`DEFAULT_TASKS` and
:func:`compute_task` -- so a lab's lazy lookup, the scheduler's lanes
and pool workers compute every task the same way, and the scheduler
folds cache hits through the lab's own :meth:`Lab.fold_cached`.  Every
task is built by :func:`~repro.analysis.config.build_task` from the
config fields its cache key projects.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.analysis.cache import ResultCache, result_key
from repro.analysis.config import DEFAULT_CONFIG, LabConfig, build_task
from repro.correlation.selection import Selection, select_counts
from repro.correlation.tagging import CorrelationTable
from repro.obs.metrics import METRICS
from repro.obs.tracing import span
from repro.predictors.selective import SelectiveHistoryPredictor
from repro.trace.stats import TraceStatistics, compute_statistics
from repro.trace.trace import Trace

#: Pseudo-task name for the tagged-correlation collection.
CORRELATION_TASK = "correlation"

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


def compute_task(
    trace: Trace,
    config: LabConfig,
    task: str,
    benchmark: Optional[str] = None,
):
    """Compute one task's result on a trace (the single source of truth).

    Every computation of a :data:`DEFAULT_TASKS` member goes through
    here -- a lab's lazy lookup, an in-process lane, a pool
    worker -- so all paths produce bit-identical results and identical
    work-unit metrics (``sim.simulations`` /
    ``sim.correlation_collections``).  ``benchmark`` only labels the
    task's span.
    """
    if task == CORRELATION_TASK:
        METRICS.inc("sim.correlation_collections")
        with span(
            "collect_correlation", benchmark=benchmark, length=len(trace)
        ), METRICS.timer("sim.seconds"):
            return build_task(task, config)(trace)
    METRICS.inc("sim.simulations")
    with span(
        "simulate", benchmark=benchmark, predictor=task, length=len(trace)
    ), METRICS.timer("sim.seconds"):
        built = build_task(task, config)
        return built(trace) if task == "fixed_best" else built.simulate(trace)


class Lab:
    """Memoised predictor runs over a single trace.

    Args:
        trace: The branch trace under analysis.
        config: Predictor sizing (defaults to the paper-scaled
            :data:`~repro.analysis.config.DEFAULT_CONFIG`).
        cache: Optional on-disk result cache consulted before simulating
            and written through after.
        name: The trace's benchmark name, if it has one; it labels the
            lab's spans.
    """

    def __init__(
        self,
        trace: Trace,
        config: LabConfig = DEFAULT_CONFIG,
        cache: Optional[ResultCache] = None,
        name: Optional[str] = None,
    ) -> None:
        self.trace = trace
        self.config = config
        self.cache = cache
        self.name = name
        # Task name -> result: correctness bitmaps, and the correlation
        # table under CORRELATION_TASK.
        self._results: Dict[str, object] = {}
        self._selections: Dict[Tuple[int, int], Dict[int, Selection]] = {}
        # window -> {count: selections}: one oracle pass serves counts 1-3.
        self._oracle_passes: Dict[int, Dict[int, Dict[int, Selection]]] = {}
        self._stats: Optional[TraceStatistics] = None

    # -- basic results ------------------------------------------------------

    @property
    def stats(self) -> TraceStatistics:
        """Summary statistics of the trace (memoised)."""
        if self._stats is None:
            self._stats = compute_statistics(self.trace)
        return self._stats

    def available_predictors(self) -> Tuple[str, ...]:
        """Names accepted by :meth:`correct` / :meth:`accuracy`."""
        return tuple(task for task in DEFAULT_TASKS if task != CORRELATION_TASK)

    def is_primed(self, task: str) -> bool:
        """Whether a task's result is already memoised in this lab."""
        return task in self._results

    def store(self, task: str, result, write_through: bool = True) -> None:
        """Fold a task's result into the memo.

        With ``write_through`` (the default) the result also lands in
        the disk cache, so the next cold process skips the work too.
        Results read from the cache, and results of workers that already
        wrote the shared cache, pass ``write_through=False``.
        """
        if task != CORRELATION_TASK and len(result) != len(self.trace):
            raise ValueError(
                f"bitmap length {len(result)} != trace length {len(self.trace)}"
            )
        self._results[task] = result
        if not write_through or self.cache is None:
            return
        if task == CORRELATION_TASK:
            self.cache.store_correlation(self.trace.digest(), result)
        else:
            self.cache.store_bitmap(
                self.trace.digest(), result_key(task, self.config), result
            )

    def fold_cached(self, task: str) -> bool:
        """Fold the disk-cached result of ``task`` into the memo; True on a hit."""
        if self.cache is None:
            return False
        digest = self.trace.digest()
        if task == CORRELATION_TASK:
            result = self.cache.load_correlation(
                digest, self.config.collection_window, len(self.trace)
            )
        else:
            result = self.cache.load_bitmap(
                digest, result_key(task, self.config), len(self.trace)
            )
        if result is None:
            return False
        self.store(task, result, write_through=False)
        return True

    def take(self, task: str, source: "Lab") -> bool:
        """Fold ``source``'s memoised ``task`` result into this lab.

        A sweep point takes a result an earlier point computed this
        way; it counts as the session-memo hit that reading it back
        from the cache would have been.  False if ``source`` lacks it.
        """
        if not source.is_primed(task):
            return False
        self.store(task, source._results[task], write_through=False)
        if self.cache is None:
            METRICS.inc("sim.memo_hits")
        else:
            self.cache.record_memo_hit(
                "corr" if task == CORRELATION_TASK else "bitmap"
            )
        return True

    def _result(self, task: str):
        """Memo -> disk cache -> :func:`compute_task`, stored back to both."""
        if self.is_primed(task):
            METRICS.inc("sim.memo_hits")
        elif not self.fold_cached(task):
            self.store(
                task, compute_task(self.trace, self.config, task, self.name)
            )
        return self._results[task]

    def correct(self, name: str) -> np.ndarray:
        """Correctness bitmap of a named predictor (simulated once)."""
        if name not in self.available_predictors():
            raise KeyError(
                f"unknown predictor {name!r}; choose from "
                f"{self.available_predictors()}"
            )
        return self._result(name)

    def accuracy(self, name: str) -> float:
        """Overall accuracy of a named predictor."""
        if not len(self.trace):
            return 0.0
        return float(self.correct(name).mean())

    # -- correlation results ---------------------------------------------------

    def correlation_data(self) -> CorrelationTable:
        """Tagged-correlation observations (collected once at window 32)."""
        return self._result(CORRELATION_TASK)

    def selections(
        self, count: int, window: Optional[int] = None
    ) -> Dict[int, Selection]:
        """Oracle selections for a selective history of ``count`` branches."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if window is None:
            window = self.config.selective_window
        key = (count, window)
        cached = self._selections.get(key)
        if cached is None:
            METRICS.inc("sim.oracle_selections")
            passes = self._oracle_passes.get(window)
            if passes is None:
                with span(
                    "select_oracle", benchmark=self.name, count=count,
                    window=window, length=len(self.trace),
                ), METRICS.timer("sim.seconds"):
                    passes = select_counts(
                        self.correlation_data(),
                        build_task(f"selective_{count}_{window}", self.config),
                    )
                self._oracle_passes[window] = passes
            cached = passes[min(count, 3)]
            self._selections[key] = cached
        else:
            METRICS.inc("sim.memo_hits")
        return cached

    def selective_correct(
        self, count: int, window: Optional[int] = None
    ) -> np.ndarray:
        """Correctness bitmap of the selective-history predictor."""
        if window is None:
            window = self.config.selective_window
        name = f"selective_{count}_{window}"
        if not self.is_primed(name) and not self.fold_cached(name):
            METRICS.inc("sim.simulations")
            with span(
                "simulate", benchmark=self.name, predictor=name,
                length=len(self.trace),
            ), METRICS.timer("sim.seconds"):
                predictor = SelectiveHistoryPredictor(
                    count, build_task(name, self.config)
                )
                predictor.fit(
                    self.trace,
                    data=self.correlation_data(),
                    selections=self.selections(count, window),
                )
                bitmap = predictor.simulate(self.trace)
            self.store(name, bitmap)
        return self._results[name]

    def selective_accuracy(self, count: int, window: Optional[int] = None) -> float:
        if not len(self.trace):
            return 0.0
        return float(self.selective_correct(count, window).mean())
