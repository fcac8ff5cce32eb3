"""Branch-correlation analysis machinery (section 3 of the paper).

* :mod:`~repro.correlation.tagging` -- the two instance-tagging schemes
  of section 3.2 (occurrence numbering and backward-branch counting) and
  the vectorised collector that records, for every static branch, which
  tagged prior branches appeared in its history window and with what
  outcome, as one columnar :class:`CorrelationTable` per trace.
* :mod:`~repro.correlation.selection` -- scoring of candidate correlated
  branches and the oracle choice of the 1/2/3 most important branches
  (section 3.4), all branches and all three counts in one pass.
"""

from repro.correlation.selection import (
    SelectionConfig,
    Selection,
    joint_ideal_accuracy,
    select_counts,
    select_for_trace,
    single_tag_score,
)
from repro.correlation.tagging import (
    BranchView,
    CorrelationTable,
    TagKey,
    collect_correlation_data,
    STATE_ABSENT,
    STATE_NOT_TAKEN,
    STATE_TAKEN,
)

__all__ = [
    "BranchView",
    "CorrelationTable",
    "Selection",
    "SelectionConfig",
    "STATE_ABSENT",
    "STATE_NOT_TAKEN",
    "STATE_TAKEN",
    "TagKey",
    "collect_correlation_data",
    "joint_ideal_accuracy",
    "select_counts",
    "select_for_trace",
    "single_tag_score",
]
