"""Static verification of workload IR, predictor contracts, and lint.

Three passes, none of which executes a workload or trains a predictor
on real experiment data:

``repro.check.ir``
    Walks a :class:`~repro.workloads.program.Program` without running
    it: control-flow reachability, address layout, branch-direction
    conventions, trip-count bounds, and condition well-formedness.

``repro.check.contracts``
    Introspects every :class:`~repro.predictors.base.BranchPredictor`
    subclass and the :data:`~repro.predictors.PREDICTOR_REGISTRY`, and
    dynamically enforces the trace-driven regime (state-pure
    ``predict``, exactly one ``update`` per branch, deterministic
    replay) through
    :class:`~repro.check.contracts.ContractCheckedPredictor`.

``repro.check.lint``
    An AST pass over ``src/repro`` flagging determinism hazards:
    unseeded RNGs, float equality in accuracy math, and iteration over
    sets (set expressions and local names bound to one) feeding trace
    or report output.

Run all three with ``python -m repro check``.  Pool jobs are pure by
construction: :class:`~repro.analysis.parallel.PoolJob` rejects a trace,
an ndarray or a callable, and
:meth:`~repro.analysis.parallel.WorkerPool.submit` is the one call into
the executor.  The experiment and cache-key declarations
(``requires=``, ``TASK_CONFIG_FIELDS``) are not checked here: tasks are
built from their projected config
(:func:`repro.analysis.config.build_task`), and tier-1 tests run every
experiment against its ``requires=``.
"""

from repro.check.diagnostics import (
    ERROR,
    INFO,
    WARNING,
    CheckFailure,
    Diagnostic,
    format_diagnostics,
    has_errors,
)
from repro.check.contracts import (
    ContractCheckedPredictor,
    ContractViolation,
    check_determinism,
    check_predictor_classes,
    check_registry,
    run_contract_suite,
)
from repro.check.ir import (
    ProgramVerificationError,
    verify_program,
    verify_program_or_raise,
)
from repro.check.lint import lint_paths, lint_source

__all__ = [
    "CheckFailure",
    "ContractCheckedPredictor",
    "ContractViolation",
    "Diagnostic",
    "ERROR",
    "INFO",
    "ProgramVerificationError",
    "WARNING",
    "check_determinism",
    "check_predictor_classes",
    "check_registry",
    "format_diagnostics",
    "has_errors",
    "lint_paths",
    "lint_source",
    "run_contract_suite",
    "verify_program",
    "verify_program_or_raise",
]
