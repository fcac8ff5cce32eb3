"""Experiment-wide predictor configuration.

The paper simulates SPECint95 to completion (10-34M dynamic branches per
benchmark); this reproduction runs ~60-200k-branch synthetic traces,
roughly 1% of the paper's scale.  Structure sizes that are *rates* (how
often a pattern must recur before its counter trains) therefore scale
with the trace:

* The reference **gshare** keeps the paper's nominal 16-bit history and
  2^16-entry PHT; at 1% scale this configuration over-fragments, which is
  exactly the training-time effect the paper discusses, so it stays --
  interference and training losses land hardest on the gcc/go analogues,
  as in the paper.
* **Interference-free** predictors shorten their histories (global 6,
  per-address 8): with one PHT per branch, every distinct pattern must
  recur *for that branch*, and 1% of the paper's per-branch executions
  supports ~2^6 patterns, not 2^16.
* The **selective history** window stays at the paper's n=16 (the oracle
  picks at most 3 branches, so no training-density issue arises).

All sizes remain constructor arguments; this module only fixes the
defaults the experiments use, and builds every task's predictor,
correlation collector and oracle configuration from the fields the
task's cache key projects (:func:`build_task`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Dict, Set

from repro.correlation.selection import SelectionConfig
from repro.correlation.tagging import collect_correlation_data
from repro.predictors.interference_free import (
    InterferenceFreeGshare,
    InterferenceFreePAs,
)
from repro.predictors.loop import LoopPredictor
from repro.predictors.pattern import (
    BlockPatternPredictor,
    best_fixed_length_correct,
)
from repro.predictors.static_ import IdealStaticPredictor
from repro.predictors.twolevel import GsharePredictor, PAsPredictor


@dataclass(frozen=True)
class LabConfig:
    """Predictor sizing used by the experiment suite.

    Attributes:
        gshare_history_bits: History length of the reference gshare
            (paper nominal: 16).
        gshare_pht_bits: log2 PHT size of the reference gshare (16).
        if_gshare_history_bits: History length of interference-free
            gshare (scaled: 8).
        pas_history_bits: Per-address history length of PAs (6).
        pas_bht_bits: log2 BHT entries of PAs (12).
        if_pas_history_bits: History length of interference-free PAs (6).
        selective_window: History depth n for correlation analysis (paper:
            16; figure 5 sweeps 8-32).
        selective_top_k: Oracle candidate pool for pair/triple search.
        collection_window: Depth of the one-pass correlation collection
            (32 covers every window figure 5 needs).
    """

    gshare_history_bits: int = 16
    gshare_pht_bits: int = 16
    if_gshare_history_bits: int = 8
    pas_history_bits: int = 6
    pas_bht_bits: int = 12
    if_pas_history_bits: int = 6
    selective_window: int = 16
    selective_top_k: int = 12
    collection_window: int = 32


#: The configuration every experiment module uses unless told otherwise.
DEFAULT_CONFIG = LabConfig()


#: Which LabConfig fields each simulation task's result depends on.
#: Static predictors (loop, block, ideal_static, fixed_best) take no
#: sizing at all, so their entries are empty: their bitmaps are valid
#: under *every* configuration, which is what lets a sweep over, say,
#: gshare_history_bits share their cache entries across grid points.
TASK_CONFIG_FIELDS = {
    "gshare": ("gshare_history_bits", "gshare_pht_bits"),
    "if_gshare": ("if_gshare_history_bits",),
    "pas": ("pas_history_bits", "pas_bht_bits"),
    "if_pas": ("if_pas_history_bits",),
    "loop": (),
    "block": (),
    "ideal_static": (),
    "fixed_best": (),
    "correlation": ("collection_window",),
}

#: Fields a ``selective_{count}_{window}`` task depends on (the window
#: itself is part of the task name; the candidate pool and collection
#: depth come from the config).
_SELECTIVE_FIELDS = ("selective_top_k", "collection_window")


def task_config_fields(task: str):
    """The LabConfig fields ``task``'s result is a function of.

    Unknown task names fall back to *every* field -- conservative, so a
    predictor added without a projection entry can never alias another
    configuration's cache entry.
    """
    if task in TASK_CONFIG_FIELDS:
        return TASK_CONFIG_FIELDS[task]
    if task.startswith("selective_"):
        return _SELECTIVE_FIELDS
    return tuple(f.name for f in fields(LabConfig))


def task_config_key(task: str, config: "LabConfig") -> str:
    """Canonical ``field=value`` projection of ``config`` onto ``task``.

    This string is what the result cache keys bitmaps by: two configs
    that agree on the fields ``task`` actually reads produce the same
    key, so sweep points share every unaffected entry.
    """
    parts = ", ".join(
        f"{name}={getattr(config, name)}" for name in task_config_fields(task)
    )
    return f"{task}({parts})"


class ProjectedConfig:
    """One task's view of a :class:`LabConfig`: only its projected fields.

    Every task is built from this view, never from the whole config, so
    the projection that keys the task's cache entries holds by
    construction: a factory that reads a field outside
    :func:`task_config_fields` raises :class:`AttributeError` on its
    first build, instead of letting two configurations that differ in
    that field share one cache entry.  ``reads`` records the fields a
    build used, so tests can flag projected fields no build reads.
    """

    __slots__ = ("task", "reads", "_values")

    def __init__(self, config: LabConfig, task: str) -> None:
        self.task = task
        self.reads: Set[str] = set()
        self._values = {
            name: getattr(config, name) for name in task_config_fields(task)
        }

    def __getattr__(self, name: str):
        if name not in self._values:
            raise AttributeError(
                f"task {self.task!r} reads LabConfig.{name}, which its cache "
                f"key does not project (projected: {tuple(self._values)}); "
                "add the field to the task's TASK_CONFIG_FIELDS entry"
            )
        self.reads.add(name)
        return self._values[name]

    def build(self):
        """What computes the task, constructed from this view.

        A fresh predictor for a predictor task, the trace -> bitmap
        function for ``fixed_best``, the trace -> table collector for
        ``correlation``, and the oracle's :class:`SelectionConfig` for
        ``selective_{count}_{window}``.
        """
        family = "selective" if self.task.startswith("selective_") else self.task
        if family not in _FACTORIES:
            raise KeyError(
                f"no factory for task {self.task!r}; choose from "
                f"{tuple(_FACTORIES)}"
            )
        return _FACTORIES[family](self)


#: Task (or task family) -> factory over its :class:`ProjectedConfig`.
_FACTORIES: Dict[str, Callable[[ProjectedConfig], object]] = {
    "gshare": lambda c: GsharePredictor(c.gshare_history_bits, c.gshare_pht_bits),
    "if_gshare": lambda c: InterferenceFreeGshare(c.if_gshare_history_bits),
    "pas": lambda c: PAsPredictor(c.pas_history_bits, c.pas_bht_bits),
    "if_pas": lambda c: InterferenceFreePAs(c.if_pas_history_bits),
    "loop": lambda c: LoopPredictor(),
    "block": lambda c: BlockPatternPredictor(),
    "ideal_static": lambda c: IdealStaticPredictor(),
    "fixed_best": lambda c: best_fixed_length_correct,
    "correlation": lambda c: partial(
        collect_correlation_data, window=c.collection_window
    ),
    # The window is part of the task name, not a projected field.
    "selective": lambda c: SelectionConfig(
        window=int(c.task.rsplit("_", 1)[1]), top_k=c.selective_top_k
    ),
}


def build_task(task: str, config: LabConfig):
    """Build what computes ``task`` from its projection of ``config``."""
    return ProjectedConfig(config, task).build()
