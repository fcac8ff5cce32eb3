"""AST lint pass: determinism hazards in the reproduction's own source.

The reproduction's claim to faithfulness is that every table and figure
is a pure function of (workload seed, run seed, predictor config).
Three source-level hazards silently break that:

====== =================================================================
DH001  ``random.Random()`` constructed without a seed -- its stream
       differs run to run.
DH002  module-level ``random.*`` call (``random.random()``,
       ``random.shuffle()``...) -- draws from the shared global RNG, so
       results depend on import and call order across the whole process.
DH003  float equality (``==``/``!=`` against a float literal) in
       accuracy math -- rounding differences flip the comparison.
DH004  direct iteration over a ``set``/``frozenset`` -- a set
       expression, or a name the same scope bound to one -- iteration
       order varies with PYTHONHASHSEED, reordering any trace or
       report output it feeds.
DH005  unseeded ``numpy.random.default_rng()`` / ``Generator()`` or a
       global ``numpy.random.*`` draw (``np.random.rand()``...) -- the
       numpy kernels make these the same hazard as DH001/DH002.
====== =================================================================

Suppress a finding by putting ``check: ignore`` in a comment on the
flagged line.  The pass is purely syntactic (no imports of the linted
code), so it is safe to run on anything.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Set, Union

from repro.check.diagnostics import ERROR, Diagnostic, sort_diagnostics

_SUPPRESS_MARKER = "check: ignore"

#: Module-level functions of ``random`` that draw from the global RNG.
_GLOBAL_RNG_FUNCTIONS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate", "weibullvariate",
})


#: ``numpy.random`` module-level functions that draw from (or reseed)
#: the legacy process-global generator.
_NUMPY_GLOBAL_RNG_FUNCTIONS = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "gamma", "geometric", "get_state", "gumbel",
    "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_normal", "negative_binomial",
    "noncentral_chisquare", "noncentral_f", "normal", "pareto",
    "permutation", "poisson", "power", "rand", "randint", "randn",
    "random", "random_integers", "random_sample", "ranf", "rayleigh",
    "sample", "seed", "set_state", "shuffle", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_normal",
    "standard_t", "triangular", "uniform", "vonmises", "wald",
    "weibull", "zipf",
})

#: Constructors of seedable numpy generators (unseeded -> DH005).
_NUMPY_RNG_CONSTRUCTORS = frozenset({"default_rng", "RandomState"})


def _is_numpy_random(node: ast.expr) -> bool:
    """True for ``numpy.random`` / ``np.random`` attribute bases."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("numpy", "np")
    )


def _is_set_expression(node: ast.expr) -> bool:
    """True for expressions that definitely produce a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class _HazardVisitor(ast.NodeVisitor):
    def __init__(self, filename: str) -> None:
        self.filename = filename
        self.diagnostics: List[Diagnostic] = []
        #: Names bound to a set, per enclosing scope (innermost last).
        self._set_names: List[Set[str]] = [set()]

    def _report(self, code: str, message: str, node: ast.AST) -> None:
        line = getattr(node, "lineno", 0)
        self.diagnostics.append(Diagnostic(
            code=code, severity=ERROR, message=message,
            location=f"{self.filename}:{line}",
        ))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        unseeded = not node.args and not node.keywords
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and func.value.id == "random":
            if func.attr == "Random" and unseeded:
                self._report(
                    "DH001",
                    "random.Random() constructed without a seed; pass an "
                    "explicit seed so runs are reproducible", node,
                )
            elif func.attr in _GLOBAL_RNG_FUNCTIONS:
                self._report(
                    "DH002",
                    f"random.{func.attr}() draws from the process-global "
                    "RNG; use a seeded random.Random instance", node,
                )
        elif isinstance(func, ast.Name) and func.id == "Random" and unseeded:
            self._report(
                "DH001",
                "Random() constructed without a seed; pass an explicit "
                "seed so runs are reproducible", node,
            )
        elif isinstance(func, ast.Attribute) and _is_numpy_random(func.value):
            if func.attr in _NUMPY_RNG_CONSTRUCTORS and unseeded:
                self._report(
                    "DH005",
                    f"numpy.random.{func.attr}() constructed without a "
                    "seed; pass an explicit seed so runs are reproducible",
                    node,
                )
            elif func.attr in _NUMPY_GLOBAL_RNG_FUNCTIONS:
                self._report(
                    "DH005",
                    f"numpy.random.{func.attr}() draws from the "
                    "process-global numpy RNG; use a seeded "
                    "numpy.random.default_rng(seed) generator", node,
                )
        elif isinstance(func, ast.Name) \
                and func.id in _NUMPY_RNG_CONSTRUCTORS and unseeded:
            self._report(
                "DH005",
                f"{func.id}() constructed without a seed; pass an "
                "explicit seed so runs are reproducible", node,
            )
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        has_eq = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        has_float = any(
            isinstance(operand, ast.Constant)
            and isinstance(operand.value, float)
            for operand in operands
        )
        if has_eq and has_float:
            self._report(
                "DH003",
                "float equality comparison; use a tolerance "
                "(math.isclose / numpy.isclose) in accuracy math", node,
            )
        self.generic_visit(node)

    # -- DH004: set iteration ---------------------------------------------

    def _visit_scope(self, node) -> None:
        self._set_names.append(set())
        self.generic_visit(node)
        self._set_names.pop()

    visit_FunctionDef = _visit_scope
    visit_AsyncFunctionDef = _visit_scope
    visit_ClassDef = _visit_scope
    visit_Lambda = _visit_scope

    def _note_binding(self, target: ast.expr, value: Optional[ast.expr]) -> None:
        names = self._set_names[-1]
        if isinstance(target, ast.Name):
            if value is not None and _is_set_expression(value):
                names.add(target.id)
            else:
                names.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._note_binding(element, None)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        for target in node.targets:
            self._note_binding(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        self._note_binding(node.target, node.value)

    def _check_iteration(self, iter_node: ast.expr) -> None:
        if _is_set_expression(iter_node) or (
            isinstance(iter_node, ast.Name)
            and iter_node.id in self._set_names[-1]
        ):
            self._report(
                "DH004",
                "iterating a set directly; order depends on hash seeding "
                "-- sort it before it feeds trace or report output",
                iter_node,
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
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


def _suppressed_lines(source: str) -> set:
    return {
        number
        for number, line in enumerate(source.splitlines(), start=1)
        if _SUPPRESS_MARKER in line
    }


def lint_source(source: str, filename: str = "<string>") -> List[Diagnostic]:
    """Lint one module's source text; returns its determinism hazards."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as error:
        return [Diagnostic(
            code="DH000", severity=ERROR,
            message=f"source failed to parse: {error.msg}",
            location=f"{filename}:{error.lineno or 0}",
        )]
    visitor = _HazardVisitor(filename)
    visitor.visit(tree)
    suppressed = _suppressed_lines(source)
    return [
        diag for diag in visitor.diagnostics
        if int(diag.location.rsplit(":", 1)[1]) not in suppressed
    ]


def lint_paths(paths: Iterable[Union[str, Path]]) -> List[Diagnostic]:
    """Lint every ``.py`` file under the given files/directories."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    diagnostics: List[Diagnostic] = []
    for source_file in files:
        text = source_file.read_text(encoding="utf-8")
        diagnostics.extend(lint_source(text, filename=str(source_file)))
    return sort_diagnostics(diagnostics)
