"""``python -m repro check``: run all passes.

Examples::

    python -m repro check                # all five passes
    python -m repro check ir lint        # a subset
    python -m repro check deps workers --format json
    python -m repro check --trace-length 2000 --strict

Exit code 0 when no error-severity diagnostics were found, 1 otherwise
(``--strict`` also fails on warnings).  ``--format json`` prints one
machine-readable document on stdout; ``--github`` additionally emits
GitHub Actions ``::error``/``::warning`` workflow annotations.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.check.diagnostics import (
    ERROR,
    WARNING,
    Diagnostic,
    format_diagnostics,
)
from repro.predictors import PREDICTOR_REGISTRY

#: Pass names in execution order.
PASS_NAMES = ["ir", "contracts", "lint", "deps", "workers"]

#: Default dynamic trace length for the contract pass (small: the
#: state-digest wrapper makes every branch deliberately expensive).
DEFAULT_CONTRACT_TRACE_LENGTH = 400


def run_ir_pass() -> List[Diagnostic]:
    """Verify every benchmark program in the workload suite."""
    from repro.check.ir import verify_program
    from repro.workloads.generator import build_program
    from repro.workloads.suite import BENCHMARK_NAMES, benchmark_spec

    diagnostics: List[Diagnostic] = []
    for name in BENCHMARK_NAMES:
        program = build_program(benchmark_spec(name, length=1000).profile)
        diagnostics.extend(verify_program(program, name=name))
    return diagnostics


def run_contracts_pass(trace_length: int) -> List[Diagnostic]:
    """Introspective audits plus dynamic checks over the registry."""
    from repro.check.contracts import (
        check_kernel_bindings,
        check_predictor_classes,
        check_registry,
        run_contract_suite,
    )
    from repro.workloads.suite import load_benchmark

    diagnostics = check_predictor_classes()
    diagnostics.extend(check_registry())
    diagnostics.extend(check_kernel_bindings())
    trace = load_benchmark("compress", length=trace_length)
    for spec_name in sorted(PREDICTOR_REGISTRY):
        factory = PREDICTOR_REGISTRY[spec_name]
        try:
            factory()
        except Exception:  # already reported by check_registry
            continue
        diagnostics.extend(
            run_contract_suite(factory, trace, label=f"registry:{spec_name}")
        )
    return diagnostics


def run_lint_pass(root: Optional[str]) -> List[Diagnostic]:
    """Lint the package source tree for determinism hazards."""
    from repro.check.lint import lint_paths

    if root is None:
        import repro

        root = str(Path(repro.__file__).parent)
    return lint_paths([root])


def run_deps_pass_cli(
    experiments_root: Optional[str],
    config_path: Optional[str],
    parallel_path: Optional[str],
) -> List[Diagnostic]:
    """Declaration-soundness pass (DS codes) with CLI path overrides."""
    from repro.check.deps import run_deps_pass

    return run_deps_pass(
        experiments_root=experiments_root,
        config_path=config_path,
        parallel_path=parallel_path,
    )


def run_workers_pass_cli(entry: Optional[str]) -> List[Diagnostic]:
    """Worker-safety pass (WS codes); ``entry`` is ``PATH:fn1,fn2``."""
    from repro.check.workers import analyze_worker_safety

    if entry is None:
        return analyze_worker_safety()
    path, _, names = entry.partition(":")
    functions = tuple(n for n in names.split(",") if n) or None
    if functions is None:
        return analyze_worker_safety(entry_path=path)
    return analyze_worker_safety(entry_path=path, entry_functions=functions)


def diagnostics_to_json(results: Dict[str, List[Diagnostic]]) -> dict:
    """Machine-readable document for ``--format json`` and CI artifacts."""
    records = []
    for pass_name, diagnostics in results.items():
        for diag in diagnostics:
            file_part, _, line_part = diag.location.rpartition(":")
            records.append({
                "pass": pass_name,
                "code": diag.code,
                "severity": diag.severity,
                "message": diag.message,
                "location": diag.location,
                "file": file_part or diag.location,
                "line": int(line_part) if line_part.isdigit() else None,
            })
    errors = sum(1 for r in records if r["severity"] == ERROR)
    warnings = sum(1 for r in records if r["severity"] == WARNING)
    return {
        "passes": sorted(results),
        "errors": errors,
        "warnings": warnings,
        "diagnostics": records,
    }


def github_annotations(results: Dict[str, List[Diagnostic]]) -> List[str]:
    """``::error file=...,line=...`` workflow-command lines."""
    lines = []
    for record in diagnostics_to_json(results)["diagnostics"]:
        kind = "error" if record["severity"] == ERROR else "warning"
        where = f"file={record['file']}"
        if record["line"]:
            where += f",line={record['line']}"
        # Workflow commands terminate the message at a newline.
        message = record["message"].replace("\n", " ")
        lines.append(
            f"::{kind} {where},title={record['code']}::{message}"
        )
    return lines


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro check",
        description=(
            "Static verification: workload IR programs, predictor "
            "contracts, determinism lint, declaration soundness, and "
            "worker safety."
        ),
    )
    parser.add_argument(
        "passes",
        nargs="*",
        default=[],
        metavar="{" + ",".join(PASS_NAMES) + "}",
        help=f"which passes to run (default: {' '.join(PASS_NAMES)})",
    )
    parser.add_argument(
        "--trace-length",
        type=int,
        default=DEFAULT_CONTRACT_TRACE_LENGTH,
        help="dynamic branches used by the contract pass "
             f"(default {DEFAULT_CONTRACT_TRACE_LENGTH})",
    )
    parser.add_argument(
        "--lint-root",
        default=None,
        help="directory linted by the lint pass (default: the installed "
             "repro package)",
    )
    parser.add_argument(
        "--deps-experiments-root",
        default=None,
        help="experiment modules analysed by the deps pass (default: the "
             "installed repro.experiments package)",
    )
    parser.add_argument(
        "--deps-config",
        default=None,
        help="LabConfig module checked by the deps projection sub-pass "
             "(default: the installed repro.analysis.config)",
    )
    parser.add_argument(
        "--deps-parallel",
        default=None,
        help="task-table module providing DEFAULT_TASKS / _FACTORY_ATTRS "
             "/ compute_task (default: the installed repro.analysis.runner)",
    )
    parser.add_argument(
        "--workers-entry",
        default=None,
        metavar="PATH[:FN1,FN2]",
        help="worker entry module (and optional entry function names) "
             "for the workers pass (default: _run_window in the installed "
             "repro.analysis.parallel, plus compute_task in the task-table "
             "module repro.analysis.runner)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format (json suppresses progress lines and prints "
             "one machine-readable document)",
    )
    parser.add_argument(
        "--github",
        action="store_true",
        help="also emit GitHub Actions ::error/::warning annotations",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on warnings too, not just errors",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _parser()
    args = parser.parse_args(argv)
    unknown = [name for name in args.passes if name not in PASS_NAMES]
    if unknown:
        parser.error(
            f"unknown pass(es) {', '.join(map(repr, unknown))}; choose "
            f"from {', '.join(PASS_NAMES)}"
        )
    selected = list(dict.fromkeys(args.passes)) or PASS_NAMES
    quiet = args.format == "json"

    def progress(message: str) -> None:
        if not quiet:
            print(message, flush=True)

    results: Dict[str, List[Diagnostic]] = {}
    for pass_name in PASS_NAMES:
        if pass_name not in selected:
            continue
        if pass_name == "ir":
            progress("ir: verifying workload suite programs...")
            results["ir"] = run_ir_pass()
        elif pass_name == "contracts":
            progress("contracts: auditing predictor classes and registry...")
            results["contracts"] = run_contracts_pass(args.trace_length)
        elif pass_name == "lint":
            progress("lint: scanning source for determinism hazards...")
            results["lint"] = run_lint_pass(args.lint_root)
        elif pass_name == "deps":
            progress("deps: checking requires= and cache-key projections...")
            results["deps"] = run_deps_pass_cli(
                args.deps_experiments_root,
                args.deps_config,
                args.deps_parallel,
            )
        elif pass_name == "workers":
            progress("workers: scanning pool-reachable code for hazards...")
            results["workers"] = run_workers_pass_cli(args.workers_entry)

    errors = warnings = 0
    for pass_name, diagnostics in results.items():
        errors += sum(1 for d in diagnostics if d.severity == ERROR)
        warnings += sum(1 for d in diagnostics if d.severity == WARNING)
        if diagnostics and not quiet:
            print(f"\n{pass_name} findings:")
            print(format_diagnostics(diagnostics))

    if args.github:
        for line in github_annotations(results):
            print(line, flush=True)
    if quiet:
        print(json.dumps(diagnostics_to_json(results), indent=2))
    else:
        print(
            f"\ncheck: {len(results)} pass(es), {errors} error(s), "
            f"{warnings} warning(s)"
        )
    if errors or (args.strict and warnings):
        return 1
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
