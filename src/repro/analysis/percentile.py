"""Percentile curves of per-branch accuracy differences (figure 9).

Figure 9 plots, for every percentile of *dynamic* branches, the
difference between gshare's and PAs' accuracy on the static branch that
dynamic branch belongs to, sorted ascending.  The left tail shows
branches where PAs is far better, the right tail where gshare is; the
areas between curve and axis are the accuracy a single-component
predictor would forfeit -- the paper's argument for hybrids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.trace.trace import Trace


@dataclass(frozen=True)
class PercentileCurve:
    """A dynamic-weighted percentile curve of accuracy differences.

    Attributes:
        percentiles: The sampled percentile positions (0-100).
        differences: Accuracy difference (percentage points, predictor A
            minus predictor B) at each percentile.
    """

    percentiles: np.ndarray
    differences: np.ndarray

    def area_b_better(self) -> float:
        """Mean advantage (percentage points) of B where B is better."""
        negative = np.minimum(self.differences, 0.0)
        return float(-negative.mean())

    def area_a_better(self) -> float:
        """Mean advantage (percentage points) of A where A is better."""
        positive = np.maximum(self.differences, 0.0)
        return float(positive.mean())

    def tail(self, percentile: float) -> float:
        """Difference at a given percentile (interpolated)."""
        return float(
            np.interp(percentile, self.percentiles, self.differences)
        )


def percentile_difference_curve(
    trace: Trace,
    correct_a: np.ndarray,
    correct_b: np.ndarray,
    percentiles: Sequence[float] = tuple(range(0, 101, 5)),
) -> PercentileCurve:
    """Figure 9's curve for two correctness bitmaps over one trace.

    Every *dynamic* branch contributes its static branch's accuracy
    difference; the resulting weighted distribution is sampled at the
    requested percentiles.

    Args:
        trace: The simulated trace.
        correct_a: Bitmap of predictor A (gshare in the paper).
        correct_b: Bitmap of predictor B (PAs in the paper).
        percentiles: Positions to sample (paper plots 0..100 by 5).
    """
    if len(correct_a) != len(trace) or len(correct_b) != len(trace):
        raise ValueError("bitmaps must align with the trace")
    _pcs, ids, counts = trace.branch_index()
    rate_a = trace.branch_sums(correct_a) / counts
    rate_b = trace.branch_sums(correct_b) / counts
    ordered = np.sort(((rate_a - rate_b) * 100.0)[ids])
    positions = np.asarray(list(percentiles), dtype=np.float64)
    if len(ordered):
        samples = np.percentile(ordered, positions)
    else:
        samples = np.zeros_like(positions)
    return PercentileCurve(percentiles=positions, differences=samples)
