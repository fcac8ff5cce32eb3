"""Analysis layer: the simulation lab and accuracy accounting.

* :mod:`~repro.analysis.config` -- the scaled predictor configuration
  shared by every experiment (and the scaling rationale).
* :mod:`~repro.analysis.runner` -- :class:`~repro.analysis.runner.Lab`,
  which runs each predictor once per trace and memoises the per-branch
  correctness bitmaps everything downstream consumes.
* :mod:`~repro.analysis.accuracy` -- grouping bitmaps by static branch.
* :mod:`~repro.analysis.percentile` -- the dynamic-weighted percentile
  curves of figure 9.
* :mod:`~repro.analysis.interference` -- gshare PHT-interference
  accounting (the Talcott/Young effect of section 2.2).
* :mod:`~repro.analysis.cost` -- the analytical pipeline model turning
  accuracy into CPI (the paper's motivation).
* :mod:`~repro.analysis.cache` -- the content-addressed on-disk result
  cache (bitmaps, correlation data, generated traces).
* :mod:`~repro.analysis.parallel` -- the multi-process scheduler that
  fans ``(benchmark, task)`` jobs over workers and folds results back
  into the labs.
"""

from repro.analysis.accuracy import (
    accuracy_by_branch,
    dynamic_weighted_fraction,
    misprediction_reduction,
)
from repro.analysis.cache import ResultCache, result_key
from repro.analysis.config import LabConfig
from repro.analysis.cost import PipelineModel
from repro.analysis.interference import (
    InterferenceReport,
    measure_gshare_interference,
)
from repro.analysis.offenders import (
    BranchOffender,
    render_offenders,
    top_offenders,
)
from repro.analysis.parallel import default_jobs
from repro.analysis.percentile import percentile_difference_curve
from repro.analysis.runner import Lab
from repro.analysis.warmup import WarmupCurve, warmup_curve

__all__ = [
    "BranchOffender",
    "InterferenceReport",
    "Lab",
    "LabConfig",
    "PipelineModel",
    "ResultCache",
    "default_jobs",
    "result_key",
    "accuracy_by_branch",
    "dynamic_weighted_fraction",
    "measure_gshare_interference",
    "misprediction_reduction",
    "percentile_difference_curve",
    "render_offenders",
    "top_offenders",
    "WarmupCurve",
    "warmup_curve",
]
