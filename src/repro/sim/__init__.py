"""Simulation engine: vectorised whole-trace kernels.

Two kernel families, both bit-identical to the scalar predict/update
loop (the ``repro check`` contract pass and the property tests in
``tests/test_sim_kernels*.py`` enforce it):

* :mod:`repro.sim.kernels` -- per-address predictors carry no
  cross-branch state: bimodal and interference-free PAs are one
  grouped-counter pass, and the loop and pattern predictors simulate
  each static branch's outcome column with run-length and shift tricks.
* :mod:`repro.sim.kernels_global` -- the two-level global-history family
  (gshare, GAs, PAs, GAg, PAg), interference-free gshare and the
  selective-history replay share state across branches, but their state
  evolution depends only on trace outcomes, so every PHT index is
  precomputable: pack the history streams, then run every counter cell
  in one grouped-counter pass (:mod:`repro.sim.scan`).

:data:`KERNEL_BINDINGS` maps every exported kernel to the
``repro.predictors`` registry spec whose predictor exercises it; the PC010
audit (:func:`repro.check.contracts.check_kernel_bindings`) fails
``python -m repro check`` when a kernel is missing from this map, so no
fast path can ship without the PC009 dynamic equivalence check covering
it.
"""

from repro.sim.fold import fold_correct_count, fold_simulate
from repro.sim.kernels import (
    simulate_bimodal,
    simulate_block_pattern,
    simulate_fixed_pattern,
    simulate_if_pas,
    simulate_loop,
)
from repro.sim.kernels_global import (
    simulate_gas,
    simulate_gshare,
    simulate_if_gshare,
    simulate_pas,
    simulate_selective,
)

#: Kernel name -> ``repro.predictors.PREDICTOR_REGISTRY`` spec whose default
#: instance routes ``simulate()`` through that kernel.  The contract
#: pass replays every registry entry (PC009), so a binding here is what
#: puts a kernel under dynamic bit-identity enforcement; PC010 rejects
#: exported kernels with no binding and stale bindings alike.  GAg and
#: PAg ride the gas/pas kernels as zero-select-bit subclasses and are
#: checked through their own registry entries.
KERNEL_BINDINGS = {
    "simulate_bimodal": "bimodal",
    "simulate_block_pattern": "block",
    "simulate_fixed_pattern": "fixed",
    "simulate_gas": "gas",
    "simulate_gshare": "gshare",
    "simulate_if_gshare": "if-gshare",
    "simulate_if_pas": "if-pas",
    "simulate_loop": "loop",
    "simulate_pas": "pas",
    "simulate_selective": "selective",
}

__all__ = [
    "KERNEL_BINDINGS",
    "fold_correct_count",
    "fold_simulate",
    "simulate_bimodal",
    "simulate_block_pattern",
    "simulate_fixed_pattern",
    "simulate_gas",
    "simulate_gshare",
    "simulate_if_gshare",
    "simulate_if_pas",
    "simulate_loop",
    "simulate_pas",
    "simulate_selective",
]
