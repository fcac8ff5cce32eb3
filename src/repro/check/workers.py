"""Worker-safety pass: hazards in code that crosses the process pool.

The parallel scheduler's whole determinism argument rests on worker
jobs being *pure*: :func:`repro.analysis.parallel._run_job` (the one
function the scheduler submits to the pool) and the task table's
:func:`~repro.analysis.runner.compute_task` must be functions of the
job spec alone, and the parent's fold must consume their results in a
schedule-independent order.  Three source-level hazards break that
silently, and none of them fails loudly in tests (a single-process run
hides all of them):

====== =================================================================
WS001  a function reachable from the worker entry points mutates a
       module-level mutable container (list/dict/set/deque...): each
       worker process accretes private state, so results depend on
       which worker ran which jobs before this one.
WS002  a ``lambda`` or nested function handed to pool submission
       (``submit`` / ``map`` / ``apply_async``...): closures do not
       pickle, so the run dies at submit time -- or silently falls
       back to degraded paths if the executor swallows it.
WS003  iteration over a ``set``/``frozenset`` inside worker-reachable
       code: per-process hash seeding reorders it, so two workers can
       fold the same observations into different results.
WS004  a whole :class:`~repro.trace.trace.Trace` handed to pool
       submission -- a ``.trace`` attribute, or a local bound from
       ``Trace(...)`` / ``load_benchmark(...)`` / ``read_trace(...)`` /
       ``.whole()``: every submit re-pickles the full column arrays
       into each worker.  Ship the spill file path or a
       ``multiprocessing.shared_memory`` segment name instead.
====== =================================================================

Reachability is computed statically from the AST: starting at the entry
functions, the pass follows direct calls (``f(...)``, ``mod.f(...)``),
``self.method()`` calls inside classes, constructor calls plus
local-variable method calls (``cache = ResultCache(...);
cache.load_trace(...)``), and bare function references passed as
call arguments (``pool.submit(_run_job, job)``).  Imports resolve
within the ``repro`` package only; calls on objects of unknown type
(e.g. ``predictor.simulate(trace)``) are out of scope -- predictor
purity is already enforced dynamically by the contracts pass.

Telemetry registries are the sanctioned exception to WS001: workers
``reset()`` the per-process :data:`~repro.obs.metrics.METRICS` /
:data:`~repro.obs.tracing.TRACER` singletons per job and ship deltas
back for a deterministic parent-side fold, so mutations of names in
:data:`WORKER_SAFE_GLOBALS` are not reported.  Anything else deliberate
takes a ``check: ignore`` comment on the flagged line.
"""

from __future__ import annotations

import ast
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.check.deps import _default_package_root, _Module, _ModuleIndex
from repro.check.diagnostics import ERROR, Diagnostic, sort_diagnostics

#: Module-level singletons designed for per-process mutation: workers
#: reset them per job and the parent folds their shipped deltas in a
#: deterministic order, so mutating them is the *protocol*, not a bug.
WORKER_SAFE_GLOBALS = frozenset({"METRICS", "TRACER"})

#: Worker entry points: (dotted module, function names).  Every function
#: the scheduler passes to pool submission must be listed here.
DEFAULT_ENTRY = ("repro.analysis.parallel", ("_run_job",))

#: The task table's compute function, which every pooled lane
#: runs in a worker; the default analysis seeds it as an entry point too.
TASK_ENTRY = ("repro.analysis.runner", ("compute_task",))

#: Kernel modules whose ``simulate_*`` functions are seeded as extra
#: entry points in the default analysis: they run inside pool workers
#: via ``predictor.simulate()`` dispatch, which the static call graph
#: deliberately does not follow (unknown receiver type), so without
#: seeding the pass would never scan them.
KERNEL_ENTRY_MODULES = ("repro.sim.kernels", "repro.sim.kernels_global")

#: Method names that mutate builtin containers in place.
_MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "pop", "popitem", "popleft", "remove",
    "setdefault", "update",
})

#: Constructor names whose result is a mutable container.
_MUTABLE_FACTORIES = frozenset({
    "Counter", "OrderedDict", "defaultdict", "deque", "dict", "list", "set",
})

#: Pool-submission method names whose callable argument must pickle.
_SUBMIT_METHODS = frozenset({
    "apply_async", "imap", "imap_unordered", "map", "map_async",
    "starmap", "starmap_async", "submit",
})

#: Calls whose result is a whole in-memory trace (WS004 tracking).
_TRACE_FACTORIES = frozenset({"Trace", "load_benchmark", "read_trace"})


def _mutable_module_globals(module: _Module) -> Dict[str, int]:
    """Module-level names bound to mutable container literals/calls."""
    found: Dict[str, int] = {}
    for node in module.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        mutable = isinstance(
            value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                    ast.SetComp)
        ) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_FACTORIES
        )
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                found[target.id] = node.lineno
    return found


def _root_name(node: ast.expr) -> Optional[str]:
    """The base ``Name`` of an attribute/subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class _FunctionScan(ast.NodeVisitor):
    """One reachable function: hazards found plus outgoing call edges."""

    def __init__(
        self,
        module: _Module,
        qualname: str,
        func: ast.FunctionDef,
        index: _ModuleIndex,
    ) -> None:
        self.module = module
        self.qualname = qualname
        self.func = func
        self.index = index
        self.class_name = qualname.split(".")[0] if "." in qualname else None
        self.mutable_globals = _mutable_module_globals(module)
        self.diagnostics: List[Diagnostic] = []
        #: (module, qualname) pairs this function calls.
        self.edges: Set[Tuple[Path, str]] = set()
        #: local variable -> (module path, class name) from constructor.
        self._var_types: Dict[str, Tuple[Path, str]] = {}
        #: local names bound to set-typed values (WS003 tracking).
        self._set_vars: Set[str] = set()
        #: local names bound to whole in-memory traces (WS004 tracking).
        self._trace_vars: Set[str] = set()
        self._globals_declared: Set[str] = set()

    # -- reporting ---------------------------------------------------------

    def _report(self, code: str, message: str, node: ast.AST) -> None:
        line = getattr(node, "lineno", 0)
        if line in self.module.suppressed:
            return
        self.diagnostics.append(Diagnostic(
            code=code, severity=ERROR, message=message,
            location=f"{self.module.path}:{line}",
        ))

    def _report_global_mutation(self, name: str, how: str, node: ast.AST) -> None:
        if name in WORKER_SAFE_GLOBALS:
            return
        self._report(
            "WS001",
            f"{how} mutates module-level global {name!r} inside "
            f"{self.qualname}(), which is reachable from the worker "
            "entry points: per-process state diverges across the pool",
            node,
        )

    # -- scope bookkeeping -------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        self._globals_declared.update(node.names)
        self.generic_visit(node)

    def _is_module_global(self, name: str) -> bool:
        return name in self.mutable_globals or name in self._globals_declared

    def _note_bindings(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            resolved = self._resolve_class(value.func.id)
            if resolved is not None:
                self._var_types[target.id] = resolved
        if isinstance(value, (ast.Set, ast.SetComp)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("set", "frozenset")
        ):
            self._set_vars.add(target.id)
        elif target.id in self._set_vars:
            self._set_vars.discard(target.id)
        if isinstance(value, ast.Call) and (
            (
                isinstance(value.func, ast.Name)
                and value.func.id in _TRACE_FACTORIES
            )
            or (
                isinstance(value.func, ast.Attribute)
                and value.func.attr == "whole"
            )
        ):
            self._trace_vars.add(target.id)
        elif target.id in self._trace_vars:
            self._trace_vars.discard(target.id)

    # -- WS001: module-global mutation -------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_bindings(target, node.value)
            if isinstance(target, ast.Name) \
                    and target.id in self._globals_declared:
                self._report_global_mutation(target.id, "assignment", node)
            elif isinstance(target, (ast.Subscript, ast.Attribute)):
                root = _root_name(target)
                if root is not None and self._is_module_global(root):
                    self._report_global_mutation(root, "item/attribute store", node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        root = _root_name(node.target)
        if root is not None and (
            self._is_module_global(root)
            if not isinstance(node.target, ast.Name)
            else root in self._globals_declared
        ):
            self._report_global_mutation(root, "augmented assignment", node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            root = _root_name(target)
            if root is not None and self._is_module_global(root) \
                    and not isinstance(target, ast.Name):
                self._report_global_mutation(root, "deletion", node)
        self.generic_visit(node)

    # -- calls: WS001 mutators, WS002 submissions, reach edges -------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            root = _root_name(func.value)
            if func.attr in _MUTATORS and root is not None \
                    and self._is_module_global(root) \
                    and isinstance(func.value, ast.Name):
                self._report_global_mutation(
                    root, f".{func.attr}() call", node
                )
            if func.attr in _SUBMIT_METHODS:
                self._check_submission(node)
            self._edge_for_attribute_call(func)
        elif isinstance(func, ast.Name):
            self._edge_for_name(func.id)
        # Bare function references passed as arguments (submit targets,
        # callbacks) count as reachable too.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Name):
                self._edge_for_name(arg.id, reference_only=True)
        self.generic_visit(node)

    def _check_submission(self, node: ast.Call) -> None:
        nested = {
            child.name
            for child in ast.walk(self.func)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            and child is not self.func
        }
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Lambda):
                self._report(
                    "WS002",
                    f"lambda passed to .{node.func.attr}(): closures do "
                    "not pickle across the process pool; submit a "
                    "module-level function instead",
                    arg,
                )
            elif isinstance(arg, ast.Name) and arg.id in nested:
                self._report(
                    "WS002",
                    f"nested function {arg.id!r} passed to "
                    f".{node.func.attr}(): locally defined functions do "
                    "not pickle across the process pool; hoist it to "
                    "module level",
                    arg,
                )
            elif isinstance(arg, ast.Attribute) and arg.attr == "trace":
                self._report(
                    "WS004",
                    f"whole trace ('.{arg.attr}' attribute) passed to "
                    f".{node.func.attr}(): every submit re-pickles the "
                    "full column arrays into each worker; ship the "
                    "spill path or a shared-memory segment name and "
                    "window span instead",
                    arg,
                )
            elif isinstance(arg, ast.Name) and arg.id in self._trace_vars:
                self._report(
                    "WS004",
                    f"whole in-memory trace {arg.id!r} passed to "
                    f".{node.func.attr}(): every submit re-pickles the "
                    "full column arrays into each worker; ship the "
                    "spill path or a shared-memory segment name and "
                    "window span instead",
                    arg,
                )

    def _resolve_class(self, name: str) -> Optional[Tuple[Path, str]]:
        if name in self.module.classes:
            return (self.module.path, name)
        imported = self.module.imports.get(name)
        if imported is not None and imported[0] == "member":
            target = self.index.load_dotted(imported[1])
            if target is not None and imported[2] in target.classes:
                return (target.path, imported[2])
        return None

    def _edge_for_name(self, name: str, reference_only: bool = False) -> None:
        if name in self.module.functions:
            self.edges.add((self.module.path, name))
            return
        imported = self.module.imports.get(name)
        if imported is not None and imported[0] == "member":
            target = self.index.load_dotted(imported[1])
            if target is not None and imported[2] in target.functions:
                self.edges.add((target.path, imported[2]))
                return
        if reference_only:
            return
        resolved = self._resolve_class(name)
        if resolved is not None:
            path, class_name = resolved
            self.edges.add((path, f"{class_name}.__init__"))

    def _edge_for_attribute_call(self, func: ast.Attribute) -> None:
        if not isinstance(func.value, ast.Name):
            return
        base = func.value.id
        if base == "self" and self.class_name is not None:
            self.edges.add((self.module.path, f"{self.class_name}.{func.attr}"))
            return
        if base in self._var_types:
            path, class_name = self._var_types[base]
            self.edges.add((path, f"{class_name}.{func.attr}"))
            return
        imported = self.module.imports.get(base)
        if imported is not None and imported[0] == "module":
            target = self.index.load_dotted(imported[1])
            if target is not None and func.attr in target.functions:
                self.edges.add((target.path, func.attr))

    # -- WS003: set iteration ----------------------------------------------

    def _is_set_expression(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        return isinstance(node, ast.Name) and node.id in self._set_vars

    def _check_iteration(self, iter_node: ast.expr) -> None:
        if self._is_set_expression(iter_node):
            self._report(
                "WS003",
                "iteration over a set in worker-reachable code: "
                "per-process hash seeding reorders it, so two workers "
                "can disagree; sort it first",
                iter_node,
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension_container(self, node) -> None:
        for comprehension in node.generators:
            self._check_iteration(comprehension.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_container
    visit_SetComp = _visit_comprehension_container
    visit_DictComp = _visit_comprehension_container
    visit_GeneratorExp = _visit_comprehension_container


def _lookup(module: _Module, qualname: str) -> Optional[ast.FunctionDef]:
    if "." in qualname:
        class_name, method = qualname.split(".", 1)
        return module.classes.get(class_name, {}).get(method)
    return module.functions.get(qualname)


def analyze_worker_safety(
    entry_path: Optional[str] = None,
    entry_functions: Sequence[str] = DEFAULT_ENTRY[1],
    package_root: Optional[str] = None,
) -> List[Diagnostic]:
    """WS001/WS002/WS003 over everything reachable from the entry points.

    Args:
        entry_path: Module file holding the worker entry points
            (default: the installed ``repro/analysis/parallel.py``, with
            :data:`TASK_ENTRY` and the kernel modules seeded too).
        entry_functions: Names of the entry functions within it.
        package_root: ``src``-style root used to resolve ``repro.*``
            imports (default: the installed package's parent).
    """
    root = Path(package_root) if package_root else _default_package_root()
    index = _ModuleIndex(root)
    entry_file = (
        Path(entry_path)
        if entry_path
        else root / Path(*DEFAULT_ENTRY[0].split(".")).with_suffix(".py")
    )
    entry_module = index.load(entry_file)
    if entry_module is None:
        return [Diagnostic(
            code="WS000", severity=ERROR,
            message="worker entry module failed to parse; worker safety "
                    "not analysable",
            location=f"{entry_file}:0",
        )]

    entries = [(entry_file, entry_module, entry_functions)]
    if entry_path is None:
        table_file = root / Path(*TASK_ENTRY[0].split(".")).with_suffix(".py")
        entries.append((table_file, index.load(table_file), TASK_ENTRY[1]))

    diagnostics: List[Diagnostic] = []
    queue: deque = deque()
    for path, module, names in entries:
        for name in names:
            if module is None or _lookup(module, name) is None:
                diagnostics.append(Diagnostic(
                    code="WS000", severity=ERROR,
                    message=f"worker entry point {name!r} not found",
                    location=f"{path}:0",
                ))
            else:
                queue.append((module.path.resolve(), name))

    # Only the default analysis seeds the task table and the kernel
    # modules: an explicit --workers-entry (the CI negative gate, fixture
    # scans) asks for exactly that entry's reachability, nothing more.
    if entry_path is None:
        for dotted in KERNEL_ENTRY_MODULES:
            kernel_file = root / Path(*dotted.split(".")).with_suffix(".py")
            kernel_module = index.load(kernel_file)
            if kernel_module is None:
                continue
            for name in sorted(kernel_module.functions):
                if name.startswith("simulate_"):
                    queue.append((kernel_module.path.resolve(), name))

    visited: Set[Tuple[Path, str]] = set()
    scanned_modules: Set[Path] = set()
    while queue:
        key = queue.popleft()
        if key in visited:
            continue
        visited.add(key)
        path, qualname = key
        module = index.load(path)
        if module is None:
            continue
        func = _lookup(module, qualname)
        if func is None:
            continue
        scan = _FunctionScan(module, qualname, func, index)
        for statement in func.body:
            scan.visit(statement)
        diagnostics.extend(scan.diagnostics)
        scanned_modules.add(module.path)
        for edge in sorted(scan.edges):
            if edge not in visited:
                queue.append(edge)

    # WS002/WS004 are parent-side hazards (submission happens in the
    # scheduler, not the workers), so scan every visited module's
    # remaining functions for bad submissions too.
    for path in sorted(scanned_modules):
        module = index.load(path)
        if module is None:
            continue
        all_functions = dict(module.functions)
        for class_name, methods in module.classes.items():
            for method_name, method in methods.items():
                all_functions[f"{class_name}.{method_name}"] = method
        for qualname, func in sorted(all_functions.items()):
            if (path, qualname) in visited:
                continue
            scan = _FunctionScan(module, qualname, func, index)
            for statement in func.body:
                scan.visit(statement)
            diagnostics.extend(
                diag for diag in scan.diagnostics
                if diag.code in ("WS002", "WS004")
            )
    return sort_diagnostics(diagnostics)
