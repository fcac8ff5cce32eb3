"""Declaration-soundness pass: prove ``requires=`` and cache-key
projections match what the code actually does.

The planner (:func:`repro.plan.build_plan`) schedules only the
simulation tasks an experiment declares via ``@register(...,
requires=)``, and the sweep deduper shares cached bitmaps across sweep
points whenever :data:`repro.analysis.config.TASK_CONFIG_FIELDS` says a
swept field cannot affect a task.  Both are *declarations*; nothing at
runtime verifies them against the code.  A stale declaration therefore
fails silently -- either as phantom planned work, or (far worse) as a
wrong cached result served across a sweep.  This pass closes that gap
statically, from the AST alone: it never imports the analysed modules.

Sub-pass A -- experiment dependency soundness
---------------------------------------------

For every runner registered with a literal ``requires=`` tuple, infer
the simulation products the runner body actually consumes:

* ``lab.correct("gshare")`` / ``lab.accuracy("gshare")`` consume the
  named task's correctness bitmap;
* ``lab.selective_correct(...)`` / ``lab.selective_accuracy(...)`` /
  ``lab.selections(...)`` / ``lab.correlation_data()`` all consume the
  ``correlation`` collection (selective products are derived from it);
* a lab (or the labs dict) passed to a helper -- module-local or
  imported from another ``repro.*`` module -- is resolved and the
  helper's body analysed the same way, transitively.

====== ===== ==========================================================
DS001  error task consumed but not declared: the plan never schedules
             its simulation, so plan-driven runs recompute it lazily
             in-process (or crash on an unprimable product).
DS002  warn  task declared but never consumed: every plan-driven run
             schedules phantom simulations for it.
DS003  error declared task name outside the plannable task set -- a
             typo or a retired task; the plan cannot prime it at all.
====== ===== ==========================================================

A runner that hands a lab to an unresolvable callee, or passes a
non-literal task name, is skipped (no DS001/DS002 for it): the
inference must never report a false mismatch.

Sub-pass B -- cache-key projection soundness
--------------------------------------------

For every task, derive the :class:`~repro.analysis.config.LabConfig`
fields its result is actually a function of -- the ``self.<field>``
reads of its factory method in ``analysis/config.py`` (transitively
through other ``LabConfig`` methods), plus the ``config.<field>`` reads
of :func:`repro.analysis.runner.compute_task` itself -- and check the
``TASK_CONFIG_FIELDS`` projection against it.  Predictor ``__init__``
signatures (AST over ``predictors/*.py``) name the constructor
parameter each field feeds, so the diagnostic can say *where* the
dependency lands.

====== ===== ==========================================================
DS004  error projection misses a field the task reads: two sweep points
             differing only in that field share one cache entry --
             stale-result aliasing, the worst failure class we have.
DS005  warn  projection lists a field the task never reads: sweep
             points that could share an artefact recompute it (lost
             dedup; also fires when a task has no entry at all and
             falls back to the every-field projection).
====== ===== ==========================================================

The ``selective_{count}_{window}`` family is checked against
``_SELECTIVE_FIELDS``: its expected set is the fields read by
``LabConfig.selection_config`` -- minus ``selective_window``, which is
encoded in the task *name* and so needs no projection entry -- plus the
correlation collection's fields (selective products are fitted on it).

Suppress any finding with a ``check: ignore`` comment on the flagged
line, same as the lint pass.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.check.diagnostics import (
    ERROR,
    WARNING,
    Diagnostic,
    sort_diagnostics,
)

_SUPPRESS_MARKER = "check: ignore"

#: Lab methods whose first argument names the consumed simulation task.
_NAMED_CONSUMERS = frozenset({"correct", "accuracy"})

#: Lab methods that consume the correlation collection (directly or via
#: selective products derived from it).
_CORRELATION_CONSUMERS = frozenset({
    "correlation_data",
    "selections",
    "selective_accuracy",
    "selective_correct",
})

#: The pseudo-task the correlation consumers resolve to.
_CORRELATION = "correlation"

#: Recursion ceiling for helper resolution (cycle guard is separate).
_MAX_HELPER_DEPTH = 8

#: The task-table module (``DEFAULT_TASKS``, ``_FACTORY_ATTRS``,
#: ``compute_task``), relative to the package root.
TASK_TABLE = Path("repro", "analysis", "runner.py")


def _default_package_root() -> Path:
    import repro

    return Path(repro.__file__).parent.parent


def _repro_path(package_root: Path, dotted: str) -> Optional[Path]:
    """File for a ``repro.*`` dotted module under ``package_root``."""
    if not dotted.startswith("repro"):
        return None
    candidate = package_root.joinpath(*dotted.split("."))
    if candidate.is_dir():
        candidate = candidate / "__init__.py"
    else:
        candidate = candidate.with_suffix(".py")
    return candidate if candidate.is_file() else None


def _suppressed_lines(source: str) -> Set[int]:
    return {
        number
        for number, line in enumerate(source.splitlines(), start=1)
        if _SUPPRESS_MARKER in line
    }


class _Module:
    """One parsed module: functions, imports, and suppression lines."""

    def __init__(self, path: Path) -> None:
        self.path = path
        source = path.read_text(encoding="utf-8")
        self.tree = ast.parse(source, filename=str(path))
        self.suppressed = _suppressed_lines(source)
        self.functions: Dict[str, ast.FunctionDef] = {}
        #: class name -> {method name -> def} (used by the workers pass).
        self.classes: Dict[str, Dict[str, ast.FunctionDef]] = {}
        #: local name -> ("module", dotted) or ("member", dotted, name)
        self.imports: Dict[str, tuple] = {}
        for node in self.tree.body:
            if isinstance(node, ast.FunctionDef):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.classes[node.name] = {
                    member.name: member
                    for member in node.body
                    if isinstance(member, ast.FunctionDef)
                }
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = ("module", alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.imports[local] = ("member", node.module, alias.name)


class _ModuleIndex:
    """Lazy loader/cache of parsed modules keyed by file path."""

    def __init__(self, package_root: Path) -> None:
        self.package_root = package_root
        self._by_path: Dict[Path, Optional[_Module]] = {}

    def load(self, path: Path) -> Optional[_Module]:
        path = path.resolve()
        if path not in self._by_path:
            try:
                self._by_path[path] = _Module(path)
            except (OSError, SyntaxError):
                self._by_path[path] = None
        return self._by_path[path]

    def load_dotted(self, dotted: str) -> Optional[_Module]:
        path = _repro_path(self.package_root, dotted)
        return self.load(path) if path is not None else None


# ---------------------------------------------------------------------------
# Sub-pass A: requires= soundness
# ---------------------------------------------------------------------------


class _Consumption:
    """Accumulated lab usage of one function (and its helpers)."""

    def __init__(self) -> None:
        self.tasks: Set[str] = set()
        #: True when a lab escaped analysis (dynamic task name, lab
        #: handed to an unresolvable callee): suppress DS001/DS002.
        self.opaque = False

    def merge(self, other: "_Consumption") -> None:
        self.tasks |= other.tasks
        self.opaque = self.opaque or other.opaque


class _LabFlow(ast.NodeVisitor):
    """Intra-function dataflow: which names hold labs / the labs dict."""

    def __init__(
        self,
        analyzer: "_RequiresAnalyzer",
        module: _Module,
        func: ast.FunctionDef,
        lab_params: FrozenSet[str],
        labs_params: FrozenSet[str],
        depth: int,
    ) -> None:
        self.analyzer = analyzer
        self.module = module
        self.func = func
        self.labs: Set[str] = set(lab_params)
        self.labs_dicts: Set[str] = set(labs_params)
        self.depth = depth
        self.result = _Consumption()

    # -- name tracking -----------------------------------------------------

    def _is_labs_dict(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and node.id in self.labs_dicts

    def _is_lab(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name) and node.id in self.labs:
            return True
        # labs["gcc"] is a lab.
        return isinstance(node, ast.Subscript) and self._is_labs_dict(node.value)

    def _bind(self, target: ast.expr, value: ast.expr) -> None:
        if not isinstance(target, ast.Name):
            return
        if self._is_lab(value):
            self.labs.add(target.id)
        elif self._is_labs_dict(value):
            self.labs_dicts.add(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._bind(target, node.value)
        self.generic_visit(node)

    def _bind_loop_target(self, target: ast.expr, iter_node: ast.expr) -> None:
        """``for name, lab in labs.items()`` / ``for lab in labs.values()``."""
        if not (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Attribute)
            and self._is_labs_dict(iter_node.func.value)
        ):
            return
        method = iter_node.func.attr
        if method == "values" and isinstance(target, ast.Name):
            self.labs.add(target.id)
        elif method == "items" and isinstance(target, ast.Tuple) \
                and len(target.elts) == 2 \
                and isinstance(target.elts[1], ast.Name):
            self.labs.add(target.elts[1].id)

    def visit_For(self, node: ast.For) -> None:
        self._bind_loop_target(node.target, node.iter)
        self.generic_visit(node)

    def _visit_comprehension_container(self, node) -> None:
        # Bind the comprehension targets *before* visiting the element
        # expressions: ``{n: helper(lab) for n, lab in labs.items()}``
        # reads ``lab`` ahead of its (syntactic) binding site.
        for comprehension in node.generators:
            self._bind_loop_target(comprehension.target, comprehension.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_container
    visit_SetComp = _visit_comprehension_container
    visit_DictComp = _visit_comprehension_container
    visit_GeneratorExp = _visit_comprehension_container

    # -- consumption -------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and self._is_lab(func.value):
            self._consume_lab_method(node, func.attr)
        else:
            lab_positions = tuple(
                index for index, arg in enumerate(node.args)
                if self._is_lab(arg)
            )
            labs_positions = tuple(
                index for index, arg in enumerate(node.args)
                if self._is_labs_dict(arg)
            )
            by_keyword = any(
                self._is_lab(keyword.value) or self._is_labs_dict(keyword.value)
                for keyword in node.keywords
            )
            if by_keyword:
                # Keyword-passed labs are rare enough not to model;
                # treat the runner as unanalysable rather than guess.
                self.result.opaque = True
            elif lab_positions or labs_positions:
                self._consume_helper(node, lab_positions, labs_positions)
        self.generic_visit(node)

    def _consume_lab_method(self, node: ast.Call, method: str) -> None:
        if method in _CORRELATION_CONSUMERS:
            self.result.tasks.add(_CORRELATION)
        elif method in _NAMED_CONSUMERS:
            if node.args and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                self.result.tasks.add(node.args[0].value)
            else:
                self.result.opaque = True

    def _consume_helper(
        self,
        node: ast.Call,
        lab_positions: Tuple[int, ...],
        labs_positions: Tuple[int, ...],
    ) -> None:
        resolved = self.analyzer.resolve_callee(self.module, node.func)
        if resolved is None:
            self.result.opaque = True
            return
        module, helper = resolved
        self.result.merge(
            self.analyzer.analyze_helper(
                module, helper, lab_positions, labs_positions, self.depth + 1
            )
        )


class _RequiresAnalyzer:
    """Infers per-runner task consumption across helper boundaries."""

    def __init__(self, index: _ModuleIndex) -> None:
        self.index = index
        self._memo: Dict[tuple, _Consumption] = {}
        self._in_progress: Set[tuple] = set()

    def resolve_callee(
        self, module: _Module, func: ast.expr
    ) -> Optional[Tuple[_Module, ast.FunctionDef]]:
        """The (module, def) a call target names, when statically known."""
        if isinstance(func, ast.Name):
            if func.id in module.functions:
                return module, module.functions[func.id]
            imported = module.imports.get(func.id)
            if imported is not None and imported[0] == "member":
                target = self.index.load_dotted(imported[1])
                if target is not None and imported[2] in target.functions:
                    return target, target.functions[imported[2]]
        elif isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name):
            imported = module.imports.get(func.value.id)
            if imported is not None and imported[0] == "module":
                target = self.index.load_dotted(imported[1])
                if target is not None and func.attr in target.functions:
                    return target, target.functions[func.attr]
        return None

    def analyze_function(
        self,
        module: _Module,
        func: ast.FunctionDef,
        lab_params: FrozenSet[str],
        labs_params: FrozenSet[str],
        depth: int = 0,
    ) -> _Consumption:
        key = (module.path, func.name, lab_params, labs_params)
        if key in self._memo:
            return self._memo[key]
        if key in self._in_progress or depth > _MAX_HELPER_DEPTH:
            # Recursive helper chain (or a pathological one): give up
            # on this branch conservatively.
            escaped = _Consumption()
            escaped.opaque = True
            return escaped
        self._in_progress.add(key)
        try:
            flow = _LabFlow(self, module, func, lab_params, labs_params, depth)
            for statement in func.body:
                flow.visit(statement)
            self._memo[key] = flow.result
            return flow.result
        finally:
            self._in_progress.discard(key)

    def analyze_helper(
        self,
        module: _Module,
        func: ast.FunctionDef,
        lab_positions: Tuple[int, ...],
        labs_positions: Tuple[int, ...],
        depth: int,
    ) -> _Consumption:
        params = [arg.arg for arg in func.args.args]
        lab_params = frozenset(
            params[index] for index in lab_positions if index < len(params)
        )
        labs_params = frozenset(
            params[index] for index in labs_positions if index < len(params)
        )
        if (lab_positions and not lab_params) or \
                (labs_positions and not labs_params):
            # A lab landed in *args or vanished: analysis lost track.
            escaped = _Consumption()
            escaped.opaque = True
            return escaped
        return self.analyze_function(
            module, func, lab_params, labs_params, depth
        )


def _registered_runners(
    module: _Module,
) -> List[Tuple[str, Optional[Tuple[str, ...]], ast.FunctionDef, int]]:
    """``(experiment_id, requires-or-None, runner, decorator line)``."""
    runners = []
    for func in module.functions.values():
        for decorator in func.decorator_list:
            if not (isinstance(decorator, ast.Call)
                    and isinstance(decorator.func, ast.Name)
                    and decorator.func.id == "register"):
                continue
            if not (decorator.args
                    and isinstance(decorator.args[0], ast.Constant)
                    and isinstance(decorator.args[0].value, str)):
                continue
            experiment_id = decorator.args[0].value
            requires: Optional[Tuple[str, ...]] = None
            for keyword in decorator.keywords:
                if keyword.arg != "requires":
                    continue
                if isinstance(keyword.value, (ast.Tuple, ast.List)) and all(
                    isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                    for element in keyword.value.elts
                ):
                    requires = tuple(
                        element.value for element in keyword.value.elts
                    )
            runners.append((experiment_id, requires, func, decorator.lineno))
    return runners


def _runner_labs_param(func: ast.FunctionDef) -> Optional[str]:
    """The runner's labs-dict parameter (first positional argument)."""
    if func.args.args:
        return func.args.args[0].arg
    return None


def _missing_table(path: Path, name: str) -> Diagnostic:
    """DS000 for a task-table module that lacks one of its definitions."""
    return Diagnostic(
        code="DS000", severity=ERROR,
        message=f"{name} not found in task-table module {path}; "
                "declarations cannot be checked against it",
        location=f"{path}:0",
    )


def _module_binding(tree: ast.Module, name: str, kinds) -> Optional[ast.stmt]:
    """The module-level (annotated) assignment binding ``name`` to a
    node of one of ``kinds``, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if isinstance(node.value, kinds) and any(
            isinstance(target, ast.Name) and target.id == name
            for target in targets
        ):
            return node
    return None


def _str_elements(node: ast.expr) -> Optional[Tuple[str, ...]]:
    """A tuple/list literal's string constants; None if any is not one."""
    if not all(
        isinstance(element, ast.Constant) and isinstance(element.value, str)
        for element in node.elts
    ):
        return None
    return tuple(element.value for element in node.elts)


def _known_sim_tasks(table_module: _Module) -> Optional[Tuple[str, ...]]:
    """The plannable task set: ``DEFAULT_TASKS`` parsed from the AST.

    None when the module defines no ``DEFAULT_TASKS`` sequence.
    """
    node = _module_binding(table_module.tree, "DEFAULT_TASKS", (ast.Tuple, ast.List))
    if node is None:
        return None
    names = []
    for element in node.value.elts:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            names.append(element.value)
        elif isinstance(element, ast.Name) and element.id == "CORRELATION_TASK":
            names.append(_CORRELATION)
    return tuple(names)


def analyze_requires(
    experiments_root: Optional[str] = None,
    parallel_path: Optional[str] = None,
    package_root: Optional[str] = None,
) -> List[Diagnostic]:
    """DS001/DS002/DS003 over every registered runner under a directory.

    Args:
        experiments_root: Directory of experiment modules (default: the
            installed ``repro/experiments``).
        parallel_path: The task-table module defining ``DEFAULT_TASKS``
            (default: the installed ``repro/analysis/runner.py``).
        package_root: ``src``-style root used to resolve ``repro.*``
            helper imports (default: the installed package's parent).
    """
    root = Path(package_root) if package_root else _default_package_root()
    index = _ModuleIndex(root)
    experiments_dir = (
        Path(experiments_root)
        if experiments_root
        else root / "repro" / "experiments"
    )
    table_file = Path(parallel_path) if parallel_path else root / TASK_TABLE
    table_module = index.load(table_file)
    known_tasks = _known_sim_tasks(table_module) if table_module else None
    analyzer = _RequiresAnalyzer(index)

    diagnostics: List[Diagnostic] = []
    if known_tasks is None:
        diagnostics.append(_missing_table(table_file, "DEFAULT_TASKS"))
    for path in sorted(experiments_dir.glob("*.py")):
        module = index.load(path)
        if module is None:
            diagnostics.append(Diagnostic(
                code="DS000", severity=ERROR,
                message="module failed to parse; dependency soundness "
                        "not analysable",
                location=f"{path}:0",
            ))
            continue
        for experiment_id, requires, func, line in _registered_runners(module):
            if line in module.suppressed:
                continue
            location = f"{path}:{line}"
            if requires is None:
                continue  # falls back to the full default set: always sound
            for name in requires:
                if known_tasks is not None and name not in known_tasks:
                    diagnostics.append(Diagnostic(
                        code="DS003", severity=ERROR,
                        message=(
                            f"experiment {experiment_id!r} declares "
                            f"requires={name!r}, which is not a plannable "
                            f"simulation task (known: "
                            f"{', '.join(known_tasks)}); selective "
                            "products are derived from 'correlation'"
                        ),
                        location=location,
                    ))
            labs_param = _runner_labs_param(func)
            if labs_param is None:
                continue
            consumption = analyzer.analyze_function(
                module, func, frozenset(), frozenset({labs_param})
            )
            if consumption.opaque:
                continue  # inference incomplete: never report a mismatch
            declared = set(requires)
            for name in sorted(consumption.tasks - declared):
                diagnostics.append(Diagnostic(
                    code="DS001", severity=ERROR,
                    message=(
                        f"experiment {experiment_id!r} consumes task "
                        f"{name!r} (via lab accesses in its runner) but "
                        f"requires= does not declare it: plan-driven runs "
                        "will not schedule its simulation"
                    ),
                    location=location,
                ))
            known = set(known_tasks) if known_tasks else declared
            for name in sorted((declared & known) - consumption.tasks):
                diagnostics.append(Diagnostic(
                    code="DS002", severity=WARNING,
                    message=(
                        f"experiment {experiment_id!r} declares "
                        f"requires={name!r} but its runner never consumes "
                        "it: every plan schedules phantom work"
                    ),
                    location=location,
                ))
    return sort_diagnostics(diagnostics)


# ---------------------------------------------------------------------------
# Sub-pass B: TASK_CONFIG_FIELDS projection soundness
# ---------------------------------------------------------------------------


class _ConfigClassInfo:
    """LabConfig parsed from the AST: fields and per-method field reads."""

    def __init__(self, class_def: ast.ClassDef) -> None:
        self.class_def = class_def
        self.fields: Tuple[str, ...] = tuple(
            node.target.id
            for node in class_def.body
            if isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
        )
        self.methods: Dict[str, ast.FunctionDef] = {
            node.name: node
            for node in class_def.body
            if isinstance(node, ast.FunctionDef)
        }
        self._reads_memo: Dict[str, FrozenSet[str]] = {}

    def method_reads(self, method: str) -> FrozenSet[str]:
        """Config fields a method reads, transitively through ``self``."""
        return self._reads(method, ())

    def _reads(self, method: str, stack: Tuple[str, ...]) -> FrozenSet[str]:
        if method in self._reads_memo:
            return self._reads_memo[method]
        if method in stack or method not in self.methods:
            return frozenset()
        reads: Set[str] = set()
        for node in ast.walk(self.methods[method]):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                if node.attr in self.fields:
                    reads.add(node.attr)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == "self":
                reads |= self._reads(node.func.attr, stack + (method,))
        result = frozenset(reads)
        self._reads_memo[method] = result
        return result

    def factory_constructor(self, method: str) -> Optional[str]:
        """Class name the factory returns an instance of, if literal."""
        definition = self.methods.get(method)
        if definition is None:
            return None
        for node in ast.walk(definition):
            if isinstance(node, ast.Return) \
                    and isinstance(node.value, ast.Call) \
                    and isinstance(node.value.func, ast.Name):
                return node.value.func.id
        return None


def _find_class(tree: ast.Module, name: str) -> Optional[ast.ClassDef]:
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def _literal_str_dict(tree: ast.Module, name: str) -> Optional[Dict[str, tuple]]:
    """A module-level ``{str: (str, ...)}`` literal, with its line."""
    node = _module_binding(tree, name, ast.Dict)
    if node is None:
        return None
    parsed: Dict[str, tuple] = {}
    lines: Dict[str, int] = {}
    for key, value in zip(node.value.keys, node.value.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            return None
        if not isinstance(value, (ast.Tuple, ast.List)):
            return None
        elements = _str_elements(value)
        if elements is None:
            return None
        parsed[key.value] = elements
        lines[key.value] = key.lineno
    parsed["__lines__"] = lines  # type: ignore[assignment]
    return parsed


def _literal_str_tuple(
    tree: ast.Module, name: str
) -> Optional[Tuple[Tuple[str, ...], int]]:
    node = _module_binding(tree, name, (ast.Tuple, ast.List))
    elements = None if node is None else _str_elements(node.value)
    return None if elements is None else (elements, node.lineno)


def _compute_task_reads(
    table_module: _Module, fields: Sequence[str]
) -> Optional[Tuple[FrozenSet[str], FrozenSet[str]]]:
    """``(correlation reads, general reads)`` of ``compute_task``.

    Reads on the ``config`` parameter inside the ``task ==
    CORRELATION_TASK`` branch (which returns) belong to the correlation
    task alone; reads outside it apply to every other task.  None when
    the module defines no ``compute_task``.
    """
    func = table_module.functions.get("compute_task")
    if func is None:
        return None
    params = [arg.arg for arg in func.args.args]
    config_param = "config" if "config" in params else (
        params[1] if len(params) > 1 else None
    )
    if config_param is None:
        return frozenset(), frozenset()

    def reads_in(nodes: Sequence[ast.stmt]) -> Set[str]:
        found: Set[str] = set()
        for statement in nodes:
            for node in ast.walk(statement):
                if isinstance(node, ast.Attribute) \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == config_param \
                        and node.attr in fields:
                    found.add(node.attr)
        return found

    def mentions_correlation(node: ast.expr) -> bool:
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and child.id == "CORRELATION_TASK":
                return True
            if isinstance(child, ast.Constant) \
                    and child.value == _CORRELATION:
                return True
        return False

    correlation: Set[str] = set()
    general: Set[str] = set()
    for statement in func.body:
        if isinstance(statement, ast.If) \
                and mentions_correlation(statement.test):
            correlation |= reads_in(statement.body)
            general |= reads_in(statement.orelse)
        else:
            general |= reads_in([statement])
    return frozenset(correlation), frozenset(general)


def _predictor_init_params(
    predictors_dir: Path,
) -> Dict[str, Tuple[str, ...]]:
    """Class name -> ``__init__`` parameter names (AST, best effort)."""
    signatures: Dict[str, Tuple[str, ...]] = {}
    if not predictors_dir.is_dir():
        return signatures
    for path in sorted(predictors_dir.glob("*.py")):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError):
            continue
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, ast.FunctionDef) \
                        and member.name == "__init__":
                    signatures[node.name] = tuple(
                        arg.arg for arg in member.args.args[1:]
                    )
    return signatures


def analyze_projections(
    config_path: Optional[str] = None,
    parallel_path: Optional[str] = None,
    predictors_root: Optional[str] = None,
) -> List[Diagnostic]:
    """DS003/DS004/DS005 over the ``TASK_CONFIG_FIELDS`` projection.

    Args:
        config_path: The config module defining ``LabConfig`` and
            ``TASK_CONFIG_FIELDS`` (default: the installed
            ``repro/analysis/config.py``).
        parallel_path: The task-table module defining ``_FACTORY_ATTRS``
            and ``compute_task`` (default: the installed
            ``repro/analysis/runner.py``).
        predictors_root: Directory of predictor modules used to name
            constructor parameters in messages (default: installed).
    """
    root = _default_package_root()
    config_file = (
        Path(config_path) if config_path
        else root / "repro" / "analysis" / "config.py"
    )
    table_file = Path(parallel_path) if parallel_path else root / TASK_TABLE
    predictors_dir = (
        Path(predictors_root) if predictors_root
        else root / "repro" / "predictors"
    )
    index = _ModuleIndex(root)
    config_module = index.load(config_file)
    table_module = index.load(table_file)
    diagnostics: List[Diagnostic] = []
    if config_module is None or table_module is None:
        return [Diagnostic(
            code="DS000", severity=ERROR,
            message="config/task-table module failed to parse; projection "
                    "soundness not analysable",
            location=f"{config_file}:0",
        )]

    class_def = _find_class(config_module.tree, "LabConfig")
    projection = _literal_str_dict(config_module.tree, "TASK_CONFIG_FIELDS")
    if class_def is None or projection is None:
        return [Diagnostic(
            code="DS000", severity=ERROR,
            message="LabConfig class or TASK_CONFIG_FIELDS literal not "
                    "found; projection soundness not analysable",
            location=f"{config_file}:0",
        )]
    lines: Dict[str, int] = projection.pop("__lines__")  # type: ignore
    info = _ConfigClassInfo(class_def)
    factory_attrs = _literal_flat_dict(table_module.tree, "_FACTORY_ATTRS")
    reads = _compute_task_reads(table_module, info.fields)
    if factory_attrs is None or reads is None:
        return [
            _missing_table(table_file, name)
            for name, found in (
                ("_FACTORY_ATTRS", factory_attrs), ("compute_task", reads)
            )
            if found is None
        ]
    correlation_reads, general_reads = reads
    signatures = _predictor_init_params(predictors_dir)

    def constructor_note(attr: str) -> str:
        constructor = info.factory_constructor(attr)
        if constructor and constructor in signatures:
            params = ", ".join(signatures[constructor]) or "no parameters"
            return f" (factory feeds {constructor}({params}))"
        return ""

    # Expected field set per computable task.
    expected: Dict[str, FrozenSet[str]] = {}
    for task, attr in sorted(factory_attrs.items()):
        expected[task] = info.method_reads(attr) | general_reads
    expected["fixed_best"] = general_reads
    expected[_CORRELATION] = correlation_reads

    for task in sorted(set(expected) | (set(projection) - {"__lines__"})):
        location = f"{config_file}:{lines.get(task, class_def.lineno)}"
        if location.rsplit(":", 1)[1].isdigit() \
                and int(location.rsplit(":", 1)[1]) in config_module.suppressed:
            continue
        if task not in expected:
            diagnostics.append(Diagnostic(
                code="DS003", severity=ERROR,
                message=(
                    f"TASK_CONFIG_FIELDS names {task!r}, which no factory "
                    "or scheduler path computes: a stale or misspelled "
                    "task entry"
                ),
                location=location,
            ))
            continue
        if task not in projection:
            diagnostics.append(Diagnostic(
                code="DS005", severity=WARNING,
                message=(
                    f"task {task!r} has no TASK_CONFIG_FIELDS entry; the "
                    "conservative every-field fallback keeps results "
                    "correct but defeats sweep dedup for it"
                ),
                location=f"{config_file}:{class_def.lineno}",
            ))
            continue
        declared = set(projection[task])
        attr = factory_attrs.get(task, "")
        for name in sorted(expected[task] - declared):
            diagnostics.append(Diagnostic(
                code="DS004", severity=ERROR,
                message=(
                    f"task {task!r} reads LabConfig.{name} but the "
                    "projection omits it: sweep points differing only in "
                    f"{name} alias one cache entry and serve stale "
                    f"results{constructor_note(attr)}"
                ),
                location=location,
            ))
        for name in sorted(declared - expected[task]):
            diagnostics.append(Diagnostic(
                code="DS005", severity=WARNING,
                message=(
                    f"task {task!r} projects LabConfig.{name} but never "
                    "reads it: sweep points that could share its artefact "
                    "recompute it (lost dedup)"
                ),
                location=location,
            ))
        for name in sorted(declared - set(info.fields)):
            diagnostics.append(Diagnostic(
                code="DS003", severity=ERROR,
                message=(
                    f"task {task!r} projects {name!r}, which is not a "
                    "LabConfig field at all"
                ),
                location=location,
            ))

    # The selective_{count}_{window} family: window lives in the task
    # name, so its projection is the selection-config reads minus
    # selective_window, plus the correlation collection it is fit on.
    selective = _literal_str_tuple(config_module.tree, "_SELECTIVE_FIELDS")
    if selective is not None:
        declared_fields, line = selective
        if line not in config_module.suppressed:
            location = f"{config_file}:{line}"
            expected_selective = (
                (info.method_reads("selection_config") - {"selective_window"})
                | correlation_reads
            )
            declared = set(declared_fields)
            for name in sorted(expected_selective - declared):
                diagnostics.append(Diagnostic(
                    code="DS004", severity=ERROR,
                    message=(
                        f"selective tasks read LabConfig.{name} but "
                        "_SELECTIVE_FIELDS omits it: sweep points "
                        f"differing only in {name} alias one cache entry"
                    ),
                    location=location,
                ))
            for name in sorted(declared - expected_selective):
                diagnostics.append(Diagnostic(
                    code="DS005", severity=WARNING,
                    message=(
                        f"_SELECTIVE_FIELDS lists LabConfig.{name} but "
                        "selective tasks never read it (lost dedup)"
                    ),
                    location=location,
                ))
    return sort_diagnostics(diagnostics)


def _literal_flat_dict(tree: ast.Module, name: str) -> Optional[Dict[str, str]]:
    """A module-level ``{str: str}`` literal (best effort; None if absent)."""
    node = _module_binding(tree, name, ast.Dict)
    if node is None:
        return None
    parsed = {}
    for key, element in zip(node.value.keys, node.value.values):
        if isinstance(key, ast.Constant) and isinstance(key.value, str) \
                and isinstance(element, ast.Constant) \
                and isinstance(element.value, str):
            parsed[key.value] = element.value
    return parsed


def run_deps_pass(
    experiments_root: Optional[str] = None,
    config_path: Optional[str] = None,
    parallel_path: Optional[str] = None,
    package_root: Optional[str] = None,
) -> List[Diagnostic]:
    """Both sub-passes: requires= soundness plus projection soundness."""
    diagnostics = analyze_requires(
        experiments_root=experiments_root,
        parallel_path=parallel_path,
        package_root=package_root,
    )
    diagnostics.extend(analyze_projections(
        config_path=config_path,
        parallel_path=parallel_path,
    ))
    return sort_diagnostics(diagnostics)
