"""Predictor contract checking: introspective and dynamic.

Every predictor comparison in the reproduction assumes the same
trace-driven regime: ``predict()`` is a pure query, ``update()`` trains
exactly once per branch, and replaying a trace reproduces the same
predictions.  A predictor that breaks any of these silently corrupts
every downstream table.  Two layers of enforcement:

* **Introspective** (:func:`check_predictor_classes`,
  :func:`check_registry`): every concrete
  :class:`~repro.predictors.base.BranchPredictor` subclass declares its
  own unique class-level ``name`` (not the base placeholder), carries no
  unimplemented abstract methods, and
  :data:`repro.predictors.PREDICTOR_REGISTRY` maps each spec name to a
  default-constructible predictor with a unique instance name.

* **Dynamic** (:class:`ContractCheckedPredictor`,
  :func:`check_determinism`, :func:`run_contract_suite`): a wrapper
  asserts state purity of ``predict`` (cheap state digests before and
  after), strict predict/update interleaving (exactly one ``update``
  per branch), and that two fresh instances replaying one trace agree
  branch-for-branch.

Diagnostic codes: PC001 abstract residue, PC002 placeholder name, PC003
duplicate class name, PC004 registry entry broken, PC005 duplicate
registry instance name, PC006 ``predict`` mutated state, PC007
predict/update interleaving violation, PC008 nondeterministic replay,
PC009 ``simulate()`` fast path diverges from the generic replay, PC010
kernel-binding audit (:func:`check_kernel_bindings`): every exported
``simulate_*`` kernel must be bound to a registry spec so the PC009
dynamic check exercises it, PC011 chunked-fold divergence
(:func:`check_chunked_fold`): splitting a trace and chaining
``simulate()`` over the windows must reproduce the whole-trace bitmap
bit-for-bit at every split point -- the property the streaming trace
path (:func:`repro.analysis.streamed.chunked_bitmap`) rests on.
"""

from __future__ import annotations

import hashlib
import importlib
import pkgutil
import random
from typing import Callable, Dict, Iterable, List, Optional, Type

import numpy as np

from repro.check.diagnostics import ERROR, Diagnostic, sort_diagnostics
from repro.predictors import PREDICTOR_REGISTRY
from repro.predictors.base import BranchPredictor
from repro.predictors.base import simulate as generic_simulate
from repro.trace.trace import Trace

#: The placeholder name on the abstract base class.
_PLACEHOLDER_NAME = "predictor"

_DIGEST_DEPTH_LIMIT = 8


def _digest_value(hasher, value, depth: int, seen: set) -> None:
    """Feed one object's deterministic byte representation to ``hasher``.

    Cheap and structural: numpy arrays hash raw bytes, containers hash
    their elements, arbitrary objects hash their attribute dicts.  Depth
    and cycle guards keep pathological predictors from recursing forever.
    """
    if depth > _DIGEST_DEPTH_LIMIT:
        hasher.update(b"<depth>")
        return
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        hasher.update(repr(value).encode())
        return
    if isinstance(value, np.ndarray):
        hasher.update(str(value.dtype).encode())
        hasher.update(str(value.shape).encode())
        hasher.update(value.tobytes())
        return
    if isinstance(value, np.generic):
        hasher.update(repr(value.item()).encode())
        return
    if isinstance(value, random.Random):
        hasher.update(repr(value.getstate()).encode())
        return
    object_id = id(value)
    if object_id in seen:
        hasher.update(b"<cycle>")
        return
    seen.add(object_id)
    try:
        if isinstance(value, dict):
            hasher.update(b"{")
            for key in sorted(value, key=repr):
                _digest_value(hasher, key, depth + 1, seen)
                hasher.update(b":")
                _digest_value(hasher, value[key], depth + 1, seen)
            hasher.update(b"}")
        elif isinstance(value, (list, tuple)) or type(value).__name__ == "deque":
            hasher.update(b"[")
            for item in value:
                _digest_value(hasher, item, depth + 1, seen)
            hasher.update(b"]")
        elif isinstance(value, (set, frozenset)):
            hasher.update(b"(")
            for item in sorted(value, key=repr):
                _digest_value(hasher, item, depth + 1, seen)
            hasher.update(b")")
        elif callable(value):
            hasher.update(f"<fn {getattr(value, '__qualname__', '?')}>".encode())
        else:
            hasher.update(type(value).__name__.encode())
            attributes = getattr(value, "__dict__", None)
            if attributes is not None:
                _digest_value(hasher, attributes, depth + 1, seen)
            for slot_holder in type(value).__mro__:
                for slot in getattr(slot_holder, "__slots__", ()):
                    if hasattr(value, slot):
                        hasher.update(slot.encode())
                        _digest_value(
                            hasher, getattr(value, slot), depth + 1, seen
                        )
    finally:
        seen.discard(object_id)


def state_digest(predictor: BranchPredictor) -> bytes:
    """A cheap digest of every piece of mutable predictor state."""
    hasher = hashlib.blake2b(digest_size=16)
    _digest_value(hasher, predictor, 0, set())
    return hasher.digest()


class ContractViolation(AssertionError):
    """A predictor broke the trace-driven predict/update contract."""


class ContractCheckedPredictor(BranchPredictor):
    """Wrapper enforcing the trace-driven contract on every call.

    Checks, per dynamic branch:

    * ``predict()`` leaves the wrapped predictor's state digest
      unchanged (state purity);
    * calls strictly alternate predict, update, predict, update --
      i.e. ``update()`` runs exactly once per predicted branch.

    Raises :class:`ContractViolation` at the first breach.  The wrapper
    is a checking harness, not a production predictor: digesting state
    on every call is deliberate overhead.
    """

    name = "contract-checked"

    def __init__(self, inner: BranchPredictor) -> None:
        self._inner = inner
        self._awaiting_update = False
        self.name = f"contract-checked({inner.name})"
        self.predict_calls = 0
        self.update_calls = 0

    @property
    def inner(self) -> BranchPredictor:
        return self._inner

    def predict(self, pc: int, target: int) -> bool:
        if self._awaiting_update:
            raise ContractViolation(
                f"{self._inner.name}: predict() called again before "
                "update() resolved the previous branch"
            )
        before = state_digest(self._inner)
        prediction = self._inner.predict(pc, target)
        after = state_digest(self._inner)
        if before != after:
            raise ContractViolation(
                f"{self._inner.name}: predict(pc={pc:#x}) mutated predictor "
                "state; predict() must be a pure query"
            )
        self._awaiting_update = True
        self.predict_calls += 1
        return prediction

    def update(self, pc: int, target: int, taken: bool) -> None:
        if not self._awaiting_update:
            raise ContractViolation(
                f"{self._inner.name}: update(pc={pc:#x}) called without a "
                "matching predict() (or called twice for one branch)"
            )
        self._inner.update(pc, target, taken)
        self._awaiting_update = False
        self.update_calls += 1

    def finish(self) -> None:
        """Assert the final predict has been resolved by an update."""
        if self._awaiting_update:
            raise ContractViolation(
                f"{self._inner.name}: trace ended with a predict() whose "
                "update() never ran"
            )


def iter_predictor_classes() -> List[Type[BranchPredictor]]:
    """Every BranchPredictor subclass, importing all predictor modules."""
    import repro.predictors as predictors_package

    for module_info in sorted(
        pkgutil.iter_modules(predictors_package.__path__),
        key=lambda info: info.name,
    ):
        importlib.import_module(f"repro.predictors.{module_info.name}")

    discovered: List[Type[BranchPredictor]] = []
    frontier: List[Type[BranchPredictor]] = [BranchPredictor]
    while frontier:
        cls = frontier.pop()
        for subclass in cls.__subclasses__():
            if subclass not in discovered:
                discovered.append(subclass)
                frontier.append(subclass)
    # Audit only the package's own predictors: downstream code (tests,
    # notebooks) may define ad-hoc subclasses that are not part of the
    # registry contract.
    return sorted(
        (cls for cls in discovered if cls.__module__.startswith("repro.")),
        key=lambda cls: cls.__qualname__,
    )


def check_predictor_classes(
    classes: Optional[Iterable[Type[BranchPredictor]]] = None,
) -> List[Diagnostic]:
    """Introspective audit of the predictor class hierarchy."""
    if classes is None:
        classes = iter_predictor_classes()
    diagnostics: List[Diagnostic] = []
    names_seen: Dict[str, str] = {}
    for cls in classes:
        location = f"{cls.__module__}.{cls.__qualname__}"
        missing = sorted(getattr(cls, "__abstractmethods__", frozenset()))
        if missing:
            diagnostics.append(Diagnostic(
                code="PC001", severity=ERROR,
                message=f"predictor class leaves abstract methods "
                        f"unimplemented: {', '.join(missing)}",
                location=location,
            ))
            continue
        own_name = cls.__dict__.get("name")
        if not isinstance(own_name, str) or own_name == _PLACEHOLDER_NAME:
            diagnostics.append(Diagnostic(
                code="PC002", severity=ERROR,
                message="concrete predictor must declare its own "
                        "class-level name (not the base placeholder)",
                location=location,
            ))
            continue
        if own_name in names_seen:
            diagnostics.append(Diagnostic(
                code="PC003", severity=ERROR,
                message=f"class-level name {own_name!r} duplicates "
                        f"{names_seen[own_name]}",
                location=location,
            ))
        else:
            names_seen[own_name] = location
    return sort_diagnostics(diagnostics)


def check_registry() -> List[Diagnostic]:
    """Audit the :data:`repro.predictors.PREDICTOR_REGISTRY`.

    Every spec name must map to a default-constructible
    :class:`BranchPredictor` whose instance name is unique across the
    registry (experiment reports key rows by instance name).
    """
    diagnostics: List[Diagnostic] = []
    instance_names: Dict[str, str] = {}
    for spec_name in sorted(PREDICTOR_REGISTRY):
        factory = PREDICTOR_REGISTRY[spec_name]
        location = f"registry:{spec_name}"
        try:
            instance = factory()
        except Exception as error:  # noqa: BLE001 - report, don't crash
            diagnostics.append(Diagnostic(
                code="PC004", severity=ERROR,
                message=f"registry entry is not default-constructible: "
                        f"{type(error).__name__}: {error}",
                location=location,
            ))
            continue
        if not isinstance(instance, BranchPredictor):
            diagnostics.append(Diagnostic(
                code="PC004", severity=ERROR,
                message=f"registry entry built a "
                        f"{type(instance).__name__}, not a BranchPredictor",
                location=location,
            ))
            continue
        if instance.name in instance_names:
            diagnostics.append(Diagnostic(
                code="PC005", severity=ERROR,
                message=f"instance name {instance.name!r} duplicates "
                        f"{instance_names[instance.name]}",
                location=location,
            ))
        else:
            instance_names[instance.name] = location
    return sort_diagnostics(diagnostics)


def check_kernel_bindings() -> List[Diagnostic]:
    """PC010: every exported simulate kernel is under PC009 coverage.

    Audits :data:`repro.sim.KERNEL_BINDINGS` against the kernel modules
    and the predictor registry: every module-level ``simulate_*``
    function exported by :mod:`repro.sim` must map to an existing
    :data:`~repro.predictors.PREDICTOR_REGISTRY` spec (whose
    contract-suite run dynamically checks the kernel), and every binding must name a kernel that still
    exists.  An unregistered or stale kernel fails ``repro check``.
    """
    import repro.sim as sim
    from repro.sim import KERNEL_BINDINGS

    diagnostics: List[Diagnostic] = []
    exported = sorted(
        name for name in getattr(sim, "__all__", dir(sim))
        if name.startswith("simulate_")
    )
    for kernel_name in exported:
        location = f"repro.sim.{kernel_name}"
        spec_name = KERNEL_BINDINGS.get(kernel_name)
        if spec_name is None:
            diagnostics.append(Diagnostic(
                code="PC010", severity=ERROR,
                message=(
                    "kernel is exported but has no KERNEL_BINDINGS entry; "
                    "bind it to a registry spec so the PC009 contract "
                    "check covers it"
                ),
                location=location,
            ))
            continue
        if spec_name not in PREDICTOR_REGISTRY:
            diagnostics.append(Diagnostic(
                code="PC010", severity=ERROR,
                message=(
                    f"kernel is bound to registry spec {spec_name!r}, "
                    "which does not exist in PREDICTOR_REGISTRY"
                ),
                location=location,
            ))
    for kernel_name in sorted(set(KERNEL_BINDINGS) - set(exported)):
        diagnostics.append(Diagnostic(
            code="PC010", severity=ERROR,
            message=(
                "stale KERNEL_BINDINGS entry: no exported kernel by "
                "this name in repro.sim"
            ),
            location=f"repro.sim.{kernel_name}",
        ))
    return sort_diagnostics(diagnostics)


def _prepare(instance: BranchPredictor, trace: Trace) -> BranchPredictor:
    """Fit oracle/profile predictors that require it before predict()."""
    fit = getattr(instance, "fit", None)
    if callable(fit):
        fit(trace)
    return instance


def check_determinism(
    factory: Callable[[], BranchPredictor], trace: Trace
) -> Optional[str]:
    """Replay ``trace`` on two fresh instances; return a fault or None."""
    first = _prepare(factory(), trace)
    second = _prepare(factory(), trace)
    bitmap_first = first.simulate(trace)
    bitmap_second = second.simulate(trace)
    if not np.array_equal(bitmap_first, bitmap_second):
        disagreements = int(np.sum(bitmap_first != bitmap_second))
        return (
            f"replaying {len(trace)} branches on two fresh instances "
            f"disagreed on {disagreements} predictions"
        )
    return None


def check_chunked_fold(
    factory: Callable[[], BranchPredictor],
    trace: Trace,
    reference: Optional[np.ndarray] = None,
) -> Optional[str]:
    """Chained window ``simulate()`` must equal the whole-trace run.

    The streaming path folds kernels over fixed windows and relies on
    every ``simulate()`` writing its carried state back, so resuming on
    the next window is indistinguishable from never having stopped.
    This replays a spread of split points -- first/last branch, an
    uneven prime stride, and the midpoint -- and compares the
    concatenated window bitmaps against the whole-trace bitmap.
    Oracle/profile predictors are fitted once, on the full trace, in
    both runs: fitting is a whole-run affair either way.

    Returns a fault description, or None when every fold agrees.
    """
    n = len(trace)
    if n < 2 or not getattr(factory(), "windowable", True):
        return None
    if reference is None:
        reference = np.asarray(
            _prepare(factory(), trace).simulate(trace), dtype=bool
        )
    splits = sorted({1, 7, n // 3, n // 2, n - 1} & set(range(1, n)))
    for split in splits:
        folded = _prepare(factory(), trace)
        bitmap = np.concatenate([
            np.asarray(folded.simulate(trace[:split]), dtype=bool),
            np.asarray(folded.simulate(trace[split:]), dtype=bool),
        ])
        if not np.array_equal(bitmap, reference):
            disagreements = int(np.sum(bitmap != reference))
            return (
                f"splitting the trace at branch {split} and chaining "
                f"simulate() over the two windows changed "
                f"{disagreements} of {n} predictions vs the whole-trace "
                "run; simulate() must write carried state back so the "
                "streaming fold can resume"
            )
    return None


def run_contract_suite(
    factory: Callable[[], BranchPredictor],
    trace: Trace,
    label: Optional[str] = None,
) -> List[Diagnostic]:
    """Full dynamic contract check for one predictor factory.

    Drives a :class:`ContractCheckedPredictor` through the generic
    predict-then-update loop (state purity + interleaving), then checks
    replay determinism with two further fresh instances.
    """
    from repro.obs.metrics import METRICS

    METRICS.inc("check.contract_checks")
    diagnostics: List[Diagnostic] = []
    probe = factory()
    location = label or probe.name
    wrapped = ContractCheckedPredictor(_prepare(probe, trace))
    reference = None
    try:
        reference = generic_simulate(wrapped, trace)
        wrapped.finish()
    except ContractViolation as violation:
        code = "PC006" if "mutated" in str(violation) else "PC007"
        diagnostics.append(Diagnostic(
            code=code, severity=ERROR, message=str(violation),
            location=location,
        ))
    fault = check_determinism(factory, trace)
    if fault is not None:
        diagnostics.append(Diagnostic(
            code="PC008", severity=ERROR, message=fault, location=location,
        ))
    fast = None
    if reference is not None:
        # A predictor overriding simulate() (vectorised kernels, scalar
        # fast paths) must be bit-identical to the contract-checked
        # generic predict-then-update replay above.
        fast = np.asarray(_prepare(factory(), trace).simulate(trace), dtype=bool)
        if not np.array_equal(fast, reference):
            disagreements = int(np.sum(fast != reference))
            diagnostics.append(Diagnostic(
                code="PC009", severity=ERROR,
                message=(
                    f"simulate() fast path disagrees with the generic "
                    f"predict/update replay on {disagreements} of "
                    f"{len(trace)} predictions"
                ),
                location=location,
            ))
            fast = None
    chunk_fault = check_chunked_fold(factory, trace, reference=fast)
    if chunk_fault is not None:
        diagnostics.append(Diagnostic(
            code="PC011", severity=ERROR, message=chunk_fault,
            location=location,
        ))
    return diagnostics
