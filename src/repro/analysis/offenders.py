"""Top-offender reports: which branches cost a predictor most.

Per-branch misprediction accounting was the paper's working method (its
classifications all start from "which predictor is best on this branch");
this module packages the complementary diagnostic view: rank static
branches by how many mispredictions they contribute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.trace.trace import Trace


@dataclass(frozen=True)
class BranchOffender:
    """One static branch's contribution to a predictor's mispredictions.

    Attributes:
        pc: The branch address.
        executions: Dynamic execution count.
        mispredictions: Mispredicted executions.
        accuracy: Prediction accuracy on this branch.
        taken_rate: The branch's taken rate (bias context).
        misprediction_share: Fraction of the predictor's *total*
            mispredictions caused by this branch.
    """

    pc: int
    executions: int
    mispredictions: int
    accuracy: float
    taken_rate: float
    misprediction_share: float


def top_offenders(
    trace: Trace, correct: np.ndarray, count: int = 10
) -> List[BranchOffender]:
    """The ``count`` branches contributing the most mispredictions.

    Args:
        trace: The simulated trace.
        correct: Per-dynamic-branch correctness bitmap.
        count: Maximum number of offenders to return.

    Returns:
        Offenders sorted by misprediction count, descending; ties broken
        by address for determinism.
    """
    if len(correct) != len(trace):
        raise ValueError(
            f"bitmap length {len(correct)} != trace length {len(trace)}"
        )
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    pcs, _ids, counts = trace.branch_index()
    hits = trace.branch_sums(correct)
    misses = counts - hits
    total_mispredictions = int(misses.sum())
    offending = np.flatnonzero(misses)
    ranked = offending[np.lexsort((pcs[offending], -misses[offending]))][:count]
    taken = trace.branch_sums(trace.taken)
    return [
        BranchOffender(
            pc=int(pcs[b]),
            executions=int(counts[b]),
            mispredictions=int(misses[b]),
            accuracy=float(hits[b] / counts[b]),
            taken_rate=float(taken[b] / counts[b]),
            misprediction_share=int(misses[b]) / total_mispredictions,
        )
        for b in ranked.tolist()
    ]


def render_offenders(offenders: List[BranchOffender]) -> str:
    """A monospace table of offender rows."""
    lines = [
        f"{'pc':>10s} {'execs':>8s} {'misses':>8s} {'accuracy':>9s} "
        f"{'taken':>6s} {'share':>7s}"
    ]
    for offender in offenders:
        lines.append(
            f"{offender.pc:#10x} {offender.executions:8d} "
            f"{offender.mispredictions:8d} {offender.accuracy * 100:8.2f}% "
            f"{offender.taken_rate:6.2f} "
            f"{offender.misprediction_share * 100:6.1f}%"
        )
    return "\n".join(lines)
