"""Training-time analysis (the paper's section 3.6.3 effect, quantified).

The paper attributes part of gshare's unexploited correlation to
"increased training time": a long noisy history fragments a branch's
executions over many counters, each of which must train separately.
This module measures that directly, per predictor, as accuracy over
per-branch execution age -- how well the k-th execution of a static
branch is predicted, aggregated over all branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.trace.trace import Trace


@dataclass(frozen=True)
class WarmupCurve:
    """Accuracy as a function of per-branch execution age.

    Attributes:
        bucket_edges: Age-bucket boundaries; bucket i covers executions
            with age in [edges[i], edges[i+1]).
        accuracies: Prediction accuracy within each bucket.
        counts: Dynamic branches in each bucket.
    """

    bucket_edges: Tuple[int, ...]
    accuracies: Tuple[float, ...]
    counts: Tuple[int, ...]

    def cold_accuracy(self) -> float:
        """Accuracy of the first bucket (coldest executions)."""
        return self.accuracies[0]

    def warm_accuracy(self) -> float:
        """Accuracy of the last *populated* bucket (steady state).

        Short traces may leave the deepest age bucket empty; the steady
        state is then the deepest bucket that saw executions.
        """
        for accuracy, count in zip(
            reversed(self.accuracies), reversed(self.counts)
        ):
            if count:
                return accuracy
        return 0.0

    def training_cost(self) -> float:
        """Steady-state minus cold accuracy (points lost to training)."""
        return self.warm_accuracy() - self.cold_accuracy()


DEFAULT_EDGES = (0, 4, 16, 64, 256, 1 << 62)


def warmup_curve(
    trace: Trace,
    correct: np.ndarray,
    bucket_edges: Sequence[int] = DEFAULT_EDGES,
) -> WarmupCurve:
    """Bucket a correctness bitmap by per-branch execution age.

    Args:
        trace: The simulated trace.
        correct: Per-dynamic-branch correctness bitmap.
        bucket_edges: Increasing age boundaries; the last edge bounds the
            final bucket (use a huge value for "everything after").
    """
    if len(correct) != len(trace):
        raise ValueError(
            f"bitmap length {len(correct)} != trace length {len(trace)}"
        )
    edges = list(bucket_edges)
    if len(edges) < 2 or edges != sorted(edges):
        raise ValueError("bucket_edges must be at least two increasing values")

    # Per-dynamic-branch age: how many prior executions its static
    # branch had.
    _pcs, ids, counts = trace.branch_index()
    order = np.argsort(ids, kind="stable")
    ages = np.empty(len(trace), dtype=np.int64)
    ages[order] = np.arange(len(trace)) - np.repeat(np.cumsum(counts) - counts, counts)

    accuracies = []
    counts = []
    for low, high in zip(edges, edges[1:]):
        mask = (ages >= low) & (ages < high)
        count = int(mask.sum())
        counts.append(count)
        accuracies.append(float(correct[mask].mean()) if count else 0.0)
    return WarmupCurve(
        bucket_edges=tuple(edges),
        accuracies=tuple(accuracies),
        counts=tuple(counts),
    )
