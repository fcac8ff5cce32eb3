"""Trace summary statistics (Table 1 and the bias analyses of sections 4-5).

The paper repeatedly reports what fraction of "ideal-static-best" branches
are more than 99% biased (88% in fig 6, 83% in fig 7, 92% in fig 8), so the
bias machinery lives here and is reused by :mod:`repro.classify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.trace.trace import Trace


@dataclass(frozen=True)
class TraceStatistics:
    """Aggregate statistics for one trace.

    Attributes:
        num_dynamic: Total dynamic conditional branches (Table 1 column).
        num_static: Distinct static branches.
        taken_rate: Fraction of dynamic branches taken.
        backward_rate: Fraction of dynamic branches whose target precedes
            the branch (loop-closing).
        ideal_static_accuracy: Accuracy of the paper's "ideal" static
            predictor -- per-branch majority direction over the whole run.
        biased_99_dynamic_fraction: Fraction of *dynamic* branches whose
            static branch is >99% biased toward one direction.
        per_branch_bias: Map pc -> max(taken-rate, not-taken-rate).
    """

    num_dynamic: int
    num_static: int
    taken_rate: float
    backward_rate: float
    ideal_static_accuracy: float
    biased_99_dynamic_fraction: float
    per_branch_bias: Dict[int, float] = field(repr=False)


def branch_bias(trace: Trace) -> np.ndarray:
    """Per-static-branch bias, aligned with ``trace.branch_index()[0]``."""
    _pcs, _ids, counts = trace.branch_index()
    rate = trace.branch_sums(trace.taken) / counts
    return np.maximum(rate, 1.0 - rate)


def per_branch_bias(trace: Trace) -> Dict[int, float]:
    """Per-static-branch bias: majority-direction frequency in [0.5, 1]."""
    return dict(zip(trace.static_pcs().tolist(), branch_bias(trace).tolist()))


def ideal_static_correct(trace: Trace) -> np.ndarray:
    """Correctness bitmap of the ideal static predictor.

    The ideal static predictor statically predicts, for every branch, the
    direction that branch takes most often *during this run* (section 4.1).
    Ties are resolved toward taken; only the count, not the choice, matters.
    """
    _pcs, ids, counts = trace.branch_index()
    majority_taken = trace.branch_sums(trace.taken) / counts >= 0.5
    return trace.taken == majority_taken[ids]


def biased_fraction(trace: Trace, threshold: float = 0.99) -> float:
    """Fraction of dynamic branches whose static branch exceeds ``threshold`` bias."""
    if not len(trace):
        return 0.0
    counts = trace.branch_index()[2]
    return int(counts[branch_bias(trace) > threshold].sum()) / len(trace)


def static_best_biased_fraction(trace: Trace, static_best: np.ndarray) -> float:
    """Among the branches flagged in ``static_best``, the dynamic-weighted
    fraction that is more than 99% biased (0.0 when none are flagged).

    ``static_best`` is a bool mask aligned with ``trace.branch_index()[0]``.
    """
    counts = trace.branch_index()[2]
    static_dynamic = int(counts[static_best].sum())
    if not static_dynamic:
        return 0.0
    biased = static_best & (branch_bias(trace) > 0.99)
    return int(counts[biased].sum()) / static_dynamic


def compute_statistics(trace: Trace) -> TraceStatistics:
    """Compute the full :class:`TraceStatistics` for ``trace``."""
    if not len(trace):
        return TraceStatistics(
            num_dynamic=0,
            num_static=0,
            taken_rate=0.0,
            backward_rate=0.0,
            ideal_static_accuracy=0.0,
            biased_99_dynamic_fraction=0.0,
            per_branch_bias={},
        )
    return TraceStatistics(
        num_dynamic=len(trace),
        num_static=trace.num_static_branches(),
        taken_rate=trace.taken_rate(),
        backward_rate=float(trace.is_backward.mean()),
        ideal_static_accuracy=float(ideal_static_correct(trace).mean()),
        biased_99_dynamic_fraction=biased_fraction(trace),
        per_branch_bias=per_branch_bias(trace),
    )
