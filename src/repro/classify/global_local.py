"""Global vs per-address vs static distributions (section 5.1).

Figure 7 asks, per branch: is gshare, PAs, or the ideal static predictor
most accurate?  Figure 8 asks the same with the *classes* of
predictability: the global side may use interference-free gshare or the
3-branch selective history, the per-address side any of the section-4.1
class predictors.  Both are instances of one computation: a best-of
distribution over groups of correctness bitmaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Set

import numpy as np

from repro.analysis.accuracy import first_best, label_fractions
from repro.trace.stats import static_best_biased_fraction
from repro.trace.trace import Trace

#: Label used for the ideal-static reference group.
STATIC_LABEL = "ideal_static"


@dataclass(frozen=True)
class BestPredictorDistribution:
    """Which predictor family is best, per branch and in aggregate.

    Attributes:
        best_of: Map from static branch address to the winning label.
        dynamic_fractions: Dynamic-weighted fraction per label (the bars
            of figures 7 and 8).
        static_best_biased_fraction: Among static-best branches, the
            dynamic-weighted fraction more than 99% biased (83% in
            figure 7, 92% in figure 8).
    """

    best_of: Dict[int, str]
    dynamic_fractions: Dict[str, float]
    static_best_biased_fraction: float

    def members(self, label: str) -> Set[int]:
        """Static branch addresses won by ``label``."""
        return {pc for pc, winner in self.best_of.items() if winner == label}


def best_predictor_distribution(
    trace: Trace,
    groups: Dict[str, Sequence[np.ndarray]],
    static_correct: np.ndarray,
) -> BestPredictorDistribution:
    """Assign every branch to the group whose best member predicts it best.

    Tie rules follow the paper: the ideal static predictor wins whenever
    it is *at least* as accurate as every group ("predicted at least as
    accurately with an ideal static predictor"); among groups, earlier
    insertion order wins ties.

    Args:
        trace: The simulated trace.
        groups: Label -> correctness bitmaps of that family's predictors
            (a branch scores a group by the group's best bitmap on it).
        static_correct: Ideal-static correctness bitmap.
    """
    for label, bitmaps in groups.items():
        if not bitmaps:
            raise ValueError(f"group {label!r} has no bitmaps")
        for bitmap in bitmaps:
            if len(bitmap) != len(trace):
                raise ValueError(f"group {label!r} bitmap misaligned with trace")
    if len(static_correct) != len(trace):
        raise ValueError("static bitmap misaligned with trace")

    labels = [STATIC_LABEL] + list(groups)
    # Scores in label order: static keeps ties, earlier groups keep ties
    # against later ones.
    winner = first_best(
        [trace.branch_sums(static_correct)]
        + [
            np.max([trace.branch_sums(b) for b in bitmaps], axis=0)
            for bitmaps in groups.values()
        ]
    )
    best_of = dict(
        zip(trace.static_pcs().tolist(), [labels[w] for w in winner.tolist()])
    )

    return BestPredictorDistribution(
        best_of=best_of,
        dynamic_fractions=label_fractions(trace, winner, labels),
        static_best_biased_fraction=static_best_biased_fraction(trace, winner == 0),
    )
