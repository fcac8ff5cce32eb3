"""Per-branch accuracy accounting.

Every predictor run yields a per-dynamic-branch correctness bitmap; the
paper's classification experiments (sections 4-5) compare predictors *per
static branch*, weighting by dynamic execution frequency.  These helpers
do that bookkeeping.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from repro.trace.trace import PC_DTYPE, Trace


def accuracy_by_branch(trace: Trace, correct: np.ndarray) -> Dict[int, float]:
    """Per-static-branch accuracy from a correctness bitmap.

    Args:
        trace: The simulated trace.
        correct: Bitmap aligned with ``trace`` (one bool per dynamic
            branch).

    Returns:
        Map from branch address to that branch's prediction accuracy.
    """
    if len(correct) != len(trace):
        raise ValueError(
            f"bitmap length {len(correct)} != trace length {len(trace)}"
        )
    pcs, _ids, counts = trace.branch_index()
    return dict(zip(pcs.tolist(), (trace.branch_sums(correct) / counts).tolist()))


def correct_counts_by_branch(trace: Trace, correct: np.ndarray) -> Dict[int, int]:
    """Per-static-branch count of correct predictions."""
    if len(correct) != len(trace):
        raise ValueError(
            f"bitmap length {len(correct)} != trace length {len(trace)}"
        )
    return dict(zip(trace.static_pcs().tolist(), trace.branch_sums(correct).tolist()))


def dynamic_weighted_fraction(trace: Trace, branches: Iterable[int]) -> float:
    """Fraction of *dynamic* branches whose static branch is in ``branches``.

    This is the weighting the paper uses for every distribution figure
    ("weighted by the dynamic execution frequencies of the branches").
    """
    if not len(trace):
        return 0.0
    pcs, _ids, counts = trace.branch_index()
    wanted = np.array(list(branches), dtype=PC_DTYPE)
    slots = np.searchsorted(pcs, wanted).clip(max=len(pcs) - 1)
    member = int(counts[slots][pcs[slots] == wanted].sum())
    return member / len(trace)


def first_best(scores: Sequence[np.ndarray]) -> np.ndarray:
    """Per static branch, the position of the first best score array.

    A strictly-greater step per later position, in order: earlier
    positions keep ties.
    """
    best = scores[0]
    winner = np.zeros(len(best), dtype=np.intp)
    for position, score in enumerate(scores[1:], start=1):
        better = score > best
        winner = np.where(better, position, winner)
        best = np.where(better, score, best)
    return winner


def label_fractions(
    trace: Trace, winner: np.ndarray, labels: Sequence[str]
) -> Dict[str, float]:
    """Dynamic-weighted fraction of branches given each label.

    ``winner`` holds, per static branch (aligned with
    ``trace.branch_index()[0]``), the position of its label in ``labels``.
    """
    counts = trace.branch_index()[2]
    total = max(len(trace), 1)
    return {
        label: int(counts[winner == position].sum()) / total
        for position, label in enumerate(labels)
    }


def misprediction_reduction(
    baseline_accuracy: float, improved_accuracy: float
) -> float:
    """Fraction of the baseline's mispredictions removed by the improvement.

    The paper reports combiner gains both as accuracy deltas and as
    misprediction fractions ("representing 13% of the mispredictions for
    gcc"); this converts between the two views.
    """
    mispredictions = 1.0 - baseline_accuracy
    if mispredictions <= 0.0:
        return 0.0
    return (improved_accuracy - baseline_accuracy) / mispredictions
