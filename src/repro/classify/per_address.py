"""Per-address predictability classes (section 4.1, figure 6).

Each static branch is scored by the class predictors -- the loop
predictor (4.1.1), the repeating-pattern predictors (best fixed-length-k
and the block predictor, 4.1.2), and interference-free PAs for
non-repeating patterns (4.1.3) -- and assigned to the class whose
predictor is most accurate on it.  Branches that the ideal static
predictor handles at least as well belong to no class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

import numpy as np

from repro.analysis.accuracy import first_best, label_fractions
from repro.analysis.runner import Lab
from repro.trace.stats import static_best_biased_fraction

#: Class labels in the paper's figure-6 legend order.
PER_ADDRESS_CLASSES = ("ideal_static", "loop", "repeating", "non_repeating")


@dataclass(frozen=True)
class PerAddressClassification:
    """Result of the section-4 classification.

    Attributes:
        class_of: Map from static branch address to its class label (one
            of :data:`PER_ADDRESS_CLASSES`).
        dynamic_fractions: Dynamic-execution-weighted fraction of each
            class (the bars of figure 6).
        static_best_biased_fraction: Among ideal-static-best branches,
            the dynamic-weighted fraction that is more than 99% biased
            (the paper reports 88% for figure 6).
    """

    class_of: Dict[int, str]
    dynamic_fractions: Dict[str, float]
    static_best_biased_fraction: float

    def members(self, label: str) -> Set[int]:
        """Static branch addresses belonging to ``label``."""
        if label not in PER_ADDRESS_CLASSES:
            raise KeyError(
                f"unknown class {label!r}; choose from {PER_ADDRESS_CLASSES}"
            )
        return {pc for pc, cls in self.class_of.items() if cls == label}


def classify_per_address(lab: Lab) -> PerAddressClassification:
    """Run the section-4 classification over a lab's trace.

    Ties follow the paper's rule: the ideal static predictor wins ties
    against every class ("at least equally well predicted"); among the
    classes, ties go to the simpler premise (loop, then repeating, then
    non-repeating).
    """
    trace = lab.trace
    sums = {
        name: trace.branch_sums(lab.correct(name))
        for name in ("loop", "fixed_best", "block", "if_pas", "ideal_static")
    }
    # Scores in PER_ADDRESS_CLASSES order: the ideal static predictor
    # keeps ties, then loop, then repeating.
    winner = first_best(
        (
            sums["ideal_static"],
            sums["loop"],
            np.maximum(sums["fixed_best"], sums["block"]),
            sums["if_pas"],
        )
    )
    class_of = dict(
        zip(
            trace.static_pcs().tolist(),
            [PER_ADDRESS_CLASSES[w] for w in winner.tolist()],
        )
    )

    return PerAddressClassification(
        class_of=class_of,
        dynamic_fractions=label_fractions(trace, winner, PER_ADDRESS_CLASSES),
        static_best_biased_fraction=static_best_biased_fraction(trace, winner == 0),
    )
