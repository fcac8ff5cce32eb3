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
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.analysis.cache import ResultCache, result_key
from repro.analysis.config import DEFAULT_CONFIG, LabConfig
from repro.correlation.selection import Selection, select_counts
from repro.correlation.tagging import CorrelationTable, collect_correlation_data
from repro.obs.metrics import METRICS
from repro.obs.tracing import span
from repro.predictors.base import BranchPredictor
from repro.predictors.pattern import best_fixed_length_correct
from repro.predictors.selective import SelectiveHistoryPredictor
from repro.trace.stats import TraceStatistics, compute_statistics
from repro.trace.trace import Trace


class Lab:
    """Memoised predictor runs over a single trace.

    Args:
        trace: The branch trace under analysis.
        config: Predictor sizing (defaults to the paper-scaled
            :data:`~repro.analysis.config.DEFAULT_CONFIG`).
        cache: Optional on-disk result cache consulted before simulating
            and written through after.
    """

    def __init__(
        self,
        trace: Trace,
        config: LabConfig = DEFAULT_CONFIG,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.trace = trace
        self.config = config
        self.cache = cache
        self._correct: Dict[str, np.ndarray] = {}
        self._correlation_data: Optional[CorrelationTable] = None
        self._selections: Dict[Tuple[int, int], Dict[int, Selection]] = {}
        # window -> {count: selections}: one oracle pass serves counts 1-3.
        self._oracle_passes: Dict[int, Dict[int, Dict[int, Selection]]] = {}
        self._stats: Optional[TraceStatistics] = None
        self._factories: Dict[str, Callable[[], BranchPredictor]] = {
            "gshare": config.gshare,
            "if_gshare": config.if_gshare,
            "pas": config.pas,
            "if_pas": config.if_pas,
            "loop": config.loop,
            "block": config.block_pattern,
            "ideal_static": config.ideal_static,
        }

    # -- basic results ------------------------------------------------------

    @property
    def stats(self) -> TraceStatistics:
        """Summary statistics of the trace (memoised)."""
        if self._stats is None:
            self._stats = compute_statistics(self.trace)
        return self._stats

    def available_predictors(self) -> Tuple[str, ...]:
        """Names accepted by :meth:`correct` / :meth:`accuracy`."""
        return tuple(self._factories) + ("fixed_best",)

    def is_primed(self, task: str) -> bool:
        """Whether a task's result is already memoised in this lab."""
        if task == "correlation":
            return self._correlation_data is not None
        return task in self._correct

    def invalidate(self, task: str) -> bool:
        """Drop a task's memoised result; True if one was held.

        Only the in-memory memo is dropped -- the disk cache keeps its
        entry (quarantine handles corrupt ones).  Used when a folded
        result is discovered to be untrustworthy and must recompute.
        """
        if task == "correlation":
            had = self._correlation_data is not None
            self._correlation_data = None
            return had
        return self._correct.pop(task, None) is not None

    def store_correct(
        self, name: str, bitmap: np.ndarray, write_through: bool = True
    ) -> None:
        """Fold an externally-computed correctness bitmap into the memo.

        Used by the parallel scheduler; with ``write_through`` (the
        default) the bitmap also lands in the disk cache so the next
        cold process skips the simulation too.  Workers that already
        wrote the shared cache pass ``write_through=False``.
        """
        if len(bitmap) != len(self.trace):
            raise ValueError(
                f"bitmap length {len(bitmap)} != trace length {len(self.trace)}"
            )
        self._correct[name] = bitmap
        if write_through and self.cache is not None:
            self.cache.store_bitmap(
                self.trace.digest(), result_key(name, self.config), bitmap
            )

    def store_correlation(
        self, data: CorrelationTable, write_through: bool = True
    ) -> None:
        """Fold externally-collected correlation data into the memo."""
        self._correlation_data = data
        if write_through and self.cache is not None:
            self.cache.store_correlation(self.trace.digest(), data)

    def _cached_bitmap(self, name: str) -> Optional[np.ndarray]:
        if self.cache is None:
            return None
        return self.cache.load_bitmap(
            self.trace.digest(), result_key(name, self.config)
        )

    def correct(self, name: str) -> np.ndarray:
        """Correctness bitmap of a named predictor (simulated once)."""
        cached = self._correct.get(name)
        if cached is not None:
            METRICS.inc("sim.memo_hits")
            return cached
        if name != "fixed_best" and name not in self._factories:
            raise KeyError(
                f"unknown predictor {name!r}; choose from "
                f"{self.available_predictors()}"
            )
        bitmap = self._cached_bitmap(name)
        if bitmap is None:
            METRICS.inc("sim.simulations")
            with span("simulate", predictor=name, length=len(self.trace)), \
                    METRICS.timer("sim.seconds"):
                if name == "fixed_best":
                    bitmap = best_fixed_length_correct(self.trace)
                else:
                    bitmap = self._factories[name]().simulate(self.trace)
            if self.cache is not None:
                self.cache.store_bitmap(
                    self.trace.digest(), result_key(name, self.config), bitmap
                )
        self._correct[name] = bitmap
        return bitmap

    def accuracy(self, name: str) -> float:
        """Overall accuracy of a named predictor."""
        if not len(self.trace):
            return 0.0
        return float(self.correct(name).mean())

    # -- correlation results ---------------------------------------------------

    def correlation_data(self) -> CorrelationTable:
        """Tagged-correlation observations (collected once at window 32)."""
        if self._correlation_data is not None:
            METRICS.inc("sim.memo_hits")
        if self._correlation_data is None:
            data = None
            if self.cache is not None:
                data = self.cache.load_correlation(
                    self.trace.digest(), self.config.collection_window
                )
            if data is None:
                METRICS.inc("sim.correlation_collections")
                with span(
                    "collect_correlation", length=len(self.trace)
                ), METRICS.timer("sim.seconds"):
                    data = collect_correlation_data(
                        self.trace, window=self.config.collection_window
                    )
                if self.cache is not None:
                    self.cache.store_correlation(self.trace.digest(), data)
            self._correlation_data = data
        return self._correlation_data

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
                    "select_oracle", count=count, window=window,
                    length=len(self.trace),
                ), METRICS.timer("sim.seconds"):
                    passes = select_counts(
                        self.correlation_data(),
                        self.config.selection_config(window),
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
        cached = self._correct.get(name)
        if cached is None:
            cached = self._cached_bitmap(name)
        if cached is None:
            METRICS.inc("sim.simulations")
            with span(
                "simulate", predictor=name, length=len(self.trace)
            ), METRICS.timer("sim.seconds"):
                predictor = SelectiveHistoryPredictor(
                    count, self.config.selection_config(window)
                )
                predictor.fit(
                    self.trace,
                    data=self.correlation_data(),
                    selections=self.selections(count, window),
                )
                cached = predictor.simulate(self.trace)
            if self.cache is not None:
                self.cache.store_bitmap(
                    self.trace.digest(), result_key(name, self.config), cached
                )
        self._correct[name] = cached
        return cached

    def selective_accuracy(self, count: int, window: Optional[int] = None) -> float:
        if not len(self.trace):
            return 0.0
        return float(self.selective_correct(count, window).mean())
