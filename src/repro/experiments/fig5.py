"""Figure 5: accuracy as a function of history length (3-branch selective).

The history length n (how far back the oracle may look for correlated
branches) sweeps 8..32 in steps of 4.  The paper finds steady growth up
to ~20 and little beyond -- the most correlated branches are close to the
branch they predict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.analysis.runner import Lab
from repro.experiments.base import ExperimentResult, register
from repro.experiments.report import format_line_chart, format_table

#: The paper's sweep: history lengths 8 to 32 in intervals of 4.
HISTORY_LENGTHS: Tuple[int, ...] = (8, 12, 16, 20, 24, 28, 32)


@dataclass
class Fig5Result(ExperimentResult):
    #: benchmark -> {history length -> accuracy %}.
    curves: Dict[str, Dict[int, float]]

    experiment_id = "fig5"
    title = "Accuracy vs history length, 3-branch selective history"

    def render(self) -> str:
        headers = ("benchmark",) + tuple(f"n={n}" for n in HISTORY_LENGTHS)
        rows = [
            (name,) + tuple(curve[n] for n in HISTORY_LENGTHS)
            for name, curve in self.curves.items()
        ]
        table = format_table(headers, rows)
        chart = format_line_chart(
            {
                name: [(n, curve[n]) for n in HISTORY_LENGTHS]
                for name, curve in self.curves.items()
            },
            y_label="selective-3 accuracy (%) vs history length n",
        )
        gains = {
            name: curve[HISTORY_LENGTHS[-1]] - curve[20]
            for name, curve in self.curves.items()
        }
        flat = max(gains.values())
        return (
            f"{table}\n\n{chart}\n"
            f"largest gain from n=20 to n=32: {flat:.2f} points "
            f"(the paper finds little gain past 20)"
        )


@register("fig5", requires=("correlation",), windows=HISTORY_LENGTHS)
def run(labs: Dict[str, Lab]) -> Fig5Result:
    """Sweep the selective-history window per benchmark."""
    curves: Dict[str, Dict[int, float]] = {}
    for name, lab in labs.items():
        curves[name] = {
            n: lab.selective_accuracy(3, window=n) * 100
            for n in HISTORY_LENGTHS
        }
    return Fig5Result(curves=curves)
