"""Command-line interface: ``repro [experiment ids | all | report]``.

A thin shell over :func:`repro.api.run_spec` -- the CLI parses flags
into a :class:`~repro.spec.RunSpec`, the facade runs the instrumented
pipeline, so library runs and CLI runs are the same code path.

Examples::

    repro table2                 # one experiment
    repro fig4 fig5              # several
    repro all                    # the whole suite, paper order
    repro report                 # same as 'all' (parallel + cached)
    repro all --max-length 50000 # smaller traces, faster
    repro all --jobs 4           # explicit worker count
    repro all --no-cache         # force recomputation
    repro report --metrics-out m.json --trace-out spans.json
    repro report --resume        # replay journaled results after a kill
    repro report --retries 3 --task-timeout 120   # resilience knobs
    repro report --inject-fault gshare:1:crash    # deterministic chaos
    repro report --emit-spec spec.json # write the equivalent RunSpec
    repro run spec.json          # execute a declarative run spec
    repro plan spec.json         # show the task graph, run nothing
    repro sweep spec.json        # execute a spec's config sweep
    repro sweep --experiments fig9 --axis gshare_history_bits=8,16
    repro sweep spec.json --axis mix.noise=0,1,2   # workload-mix sweep
    repro ingest trace.txt --emit-spec spec.json   # foreign traces
    repro trace generate gcc -o gcc.bpt  # trace toolkit: generate,
    repro trace simulate gcc.bpt --predictor gshare   # stats, simulate
    repro serve --port 8023      # analysis-as-a-service daemon
    repro submit spec.json --server http://127.0.0.1:8023
    repro obs show run_manifest.json   # inspect/validate a manifest
    repro cache stats            # inspect the result cache
    repro cache clear            # reclaim the cache directory
    repro --version              # package version
    python -m repro all          # equivalent module form
    python -m repro check        # static verification (repro.check)

``repro report`` / ``repro all`` also write a schema-versioned run
manifest (``run_manifest.json`` by default; ``--manifest-out`` to move
or, with an empty value, suppress it) and a crash-safe result journal
(``run_journal.jsonl``; ``--journal`` to move/suppress, ``--resume`` to
replay it after an interrupted run).

Exit codes: 0 clean; 1 finished with recorded failures; 2 bad usage;
130 interrupted.  Every :class:`repro.errors.ReproError` subclass
carries its own ``exit_code``, so library and CLI error semantics stay
aligned.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.analysis.config import LabConfig
from repro.cliopts import (
    DEFAULT_SEED,
    engine_parent,
    fault_spec_from_args,
    version_string,
)
from repro.errors import EXIT_INTERRUPTED, ReproError
from repro.experiments.base import EXPERIMENT_IDS, EXTENSION_IDS

#: Where ``repro sweep`` puts per-point manifests unless
#: ``--manifest-dir`` says otherwise.
DEFAULT_SWEEP_DIR = "sweep_manifests"

#: Where ``repro report`` / ``repro all`` put the run manifest unless
#: ``--manifest-out`` says otherwise.
DEFAULT_MANIFEST_NAME = "run_manifest.json"

#: Where ``repro report`` / ``repro all`` journal completed experiment
#: results unless ``--journal`` says otherwise.
DEFAULT_JOURNAL_NAME = "run_journal.jsonl"

# EXIT_INTERRUPTED (130, the conventional SIGINT code) moved to
# repro.errors with the rest of the exit-code contract; re-exported
# here for its historical import path.


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        parents=[engine_parent()],
        description=(
            "Reproduce the tables and figures of Evers et al., 'An "
            "Analysis of Correlation and Predictability' (ISCA 1998)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help=(
            f"experiment ids ({', '.join(EXPERIMENT_IDS)}), extension ids "
            f"({', '.join(EXTENSION_IDS)}), 'all' (paper artefacts), "
            "'report' (alias for all), 'extensions', 'cache' "
            "(stats|clear), 'obs' (show|validate|diff), 'trace' "
            "(generate|stats|simulate|interference), or 'check' "
            "(static verification)"
        ),
    )
    parser.add_argument(
        "--max-length",
        type=int,
        default=None,
        help=(
            "dynamic branch count of the longest benchmark; the others "
            "keep the paper's proportions (default: REPRO_TRACE_LENGTH "
            "or 200000)"
        ),
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also export the structured results as JSON to PATH",
    )
    parser.add_argument(
        "--gshare-history",
        type=int,
        default=None,
        help="override the reference gshare history length",
    )
    parser.add_argument(
        "--manifest-out",
        metavar="PATH",
        default=None,
        help=(
            "write the run manifest to PATH (default: "
            f"{DEFAULT_MANIFEST_NAME} for 'report'/'all', none "
            "otherwise; pass an empty value to suppress)"
        ),
    )
    parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help=(
            "journal completed experiment results to PATH (default: "
            f"{DEFAULT_JOURNAL_NAME} for 'report'/'all', none "
            "otherwise; pass an empty value to suppress)"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "replay experiments already in the journal (matched by "
            "config/seed/trace digests) instead of re-running them"
        ),
    )
    parser.add_argument(
        "--emit-spec",
        metavar="PATH",
        default=None,
        help=(
            "write the RunSpec these flags describe to PATH and exit "
            "without running (execute it later with 'repro run PATH')"
        ),
    )
    return parser


def _cache_parser() -> argparse.ArgumentParser:
    return argparse.ArgumentParser(
        prog="repro cache",
        parents=[engine_parent()],
        description="Inspect or clear the on-disk result cache.",
    )


def _cache_main(argv: List[str]) -> int:
    from repro.analysis.cache import ResultCache
    from repro.spec import EngineOptions

    parser = _cache_parser()
    parser.add_argument("action", choices=("stats", "clear"))
    args = parser.parse_args(argv)
    # One resolution path for REPRO_CACHE_DIR & co: the same
    # EngineOptions.from_env() the engine itself uses.
    options = EngineOptions.from_env(cache_dir=args.cache_dir)
    cache = ResultCache(options.cache_dir)
    if args.action == "stats":
        # A missing or empty cache directory is a normal state (fresh
        # checkout, post-clear): report zero entries, exit 0.
        count = cache.entry_count()
        size = cache.total_bytes()
        print(f"cache directory: {cache.root}")
        print(f"entries: {count}")
        print(f"size: {size / 1e6:.2f} MB")
        print(f"quarantined: {cache.quarantine_count()}")
    else:
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.root}")
    return 0


def _load_spec(path: str):
    """Read a RunSpec file; returns (spec, None) or (None, exit code)."""
    from repro.spec import RunSpec, SpecError

    try:
        return RunSpec.from_file(path), None
    except OSError as error:
        print(f"error: cannot read spec {path!r}: {error}", file=sys.stderr)
        return None, 2
    except SpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return None, 2


def _engine_overrides(spec, args):
    """Fold explicitly-given engine flags over a spec's engine options.

    Only flags the user actually passed override the spec; everything
    else keeps the spec file's value, so a spec is reproducible by
    default and steerable when needed.
    """
    import dataclasses

    updates = {}
    if args.jobs is not None:
        updates["jobs"] = args.jobs
    if args.no_cache:
        updates["cache"] = False
    if args.cache_dir is not None:
        updates["cache_dir"] = args.cache_dir
    if args.retries is not None:
        updates["retries"] = args.retries
    if args.task_timeout is not None:
        updates["task_timeout"] = args.task_timeout
    fault_spec = fault_spec_from_args(args)
    if fault_spec is not None:
        updates["fault_spec"] = fault_spec
    journal = getattr(args, "journal", None)
    if journal is not None:
        updates["journal"] = journal or None
    if getattr(args, "resume", False):
        updates["resume"] = True
    if getattr(args, "chunk_branches", None) is not None:
        updates["chunk_branches"] = args.chunk_branches
    if not updates:
        return spec
    return dataclasses.replace(
        spec, engine=dataclasses.replace(spec.engine, **updates)
    )


def _finish(run) -> int:
    """Map a finished ReportRun/SweepRun onto the CLI exit contract."""
    from repro.api import SweepRun

    failures = []
    if isinstance(run, SweepRun):
        for point in run.points:
            failures.extend(point.report.failures)
    else:
        failures = run.failures
    if failures:
        for failure in failures:
            scope = failure.get("scope", "task")
            where = (
                failure.get("experiment_id")
                if scope == "experiment"
                else f"{failure.get('benchmark')}/{failure.get('task')}"
            )
            print(
                f"error: {scope} {where} failed "
                f"[{failure.get('kind')}]: {failure.get('message')}",
                file=sys.stderr,
            )
        print(
            f"error: run finished with {len(failures)} recorded "
            "failure(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _execute_spec(spec, argv: List[str], **outputs) -> int:
    from repro.api import run_spec

    start = time.time()
    try:
        run = run_spec(
            spec,
            command=["repro", *argv],
            echo=lambda message: print(message, flush=True),
            **outputs,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return error.exit_code
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(
            "interrupted; completed experiments are journaled -- "
            "re-run with --resume to continue",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    print(f"done in {time.time() - start:.1f}s")
    return _finish(run)


def _run_main(argv: List[str]) -> int:
    """``repro run SPEC``: execute a declarative run spec."""
    parser = argparse.ArgumentParser(
        prog="repro run",
        parents=[engine_parent()],
        description=(
            "Execute a RunSpec JSON file (see docs/spec.md).  Engine "
            "flags given here override the spec's engine section; the "
            "run's identity (workload, config, experiments, sweep) "
            "always comes from the file."
        ),
    )
    parser.add_argument("spec", metavar="SPEC", help="RunSpec JSON file")
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also export the structured results as JSON to PATH",
    )
    parser.add_argument(
        "--manifest-out", metavar="PATH", default=None,
        help=(
            f"write the run manifest to PATH (default "
            f"{DEFAULT_MANIFEST_NAME}; empty value to suppress)"
        ),
    )
    parser.add_argument(
        "--manifest-dir", metavar="DIR", default=None,
        help=(
            "sweep specs: directory for per-point manifests (default "
            f"{DEFAULT_SWEEP_DIR})"
        ),
    )
    parser.add_argument(
        "--journal", metavar="PATH", default=None,
        help="override the spec's journal path (empty value to disable)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay journaled results instead of re-running them",
    )
    parser.add_argument(
        "--result-out", metavar="PATH", default=None,
        help=(
            "write the result/v1 envelope to PATH (the same document "
            "the server returns from GET /v1/runs/{id})"
        ),
    )
    args = parser.parse_args(argv)
    spec, error_code = _load_spec(args.spec)
    if spec is None:
        return error_code
    spec = _engine_overrides(spec, args)
    if spec.sweep is not None:
        return _execute_spec(
            spec,
            ["run", *argv],
            manifest_dir=args.manifest_dir or DEFAULT_SWEEP_DIR,
            result_out=args.result_out,
            metrics_out=args.metrics_out,
            trace_out=args.trace_out,
        )
    manifest_out = args.manifest_out
    if manifest_out is None:
        manifest_out = DEFAULT_MANIFEST_NAME
    return _execute_spec(
        spec,
        ["run", *argv],
        json_out=args.json,
        manifest_out=manifest_out or None,
        result_out=args.result_out,
        metrics_out=args.metrics_out,
        trace_out=args.trace_out,
    )


def _parse_axis(text: str):
    """Parse one ``--axis FIELD=V1,V2,...`` occurrence.

    Values parse as ints where possible, floats otherwise -- config and
    workload axes are integral, but ``mix.<class>`` weights are real.
    Which numeric types a given field actually accepts is enforced by
    :class:`~repro.spec.SweepSpec` validation, with the field name in
    the error.
    """
    name, _, values = text.partition("=")
    if not name or not values:
        raise ValueError(
            f"--axis expects FIELD=V1,V2,... , got {text!r}"
        )

    def _number(value: str):
        try:
            return int(value)
        except ValueError:
            try:
                return float(value)
            except ValueError:
                raise ValueError(
                    f"--axis {name}: values must be numbers, got {value!r}"
                ) from None

    return name, tuple(_number(value) for value in values.split(","))


def _sweep_main(argv: List[str]) -> int:
    """``repro sweep``: grid a config axis over the experiment suite."""
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        parents=[engine_parent()],
        description=(
            "Run a config sweep: the same workload and experiments "
            "evaluated at every point of a grid over LabConfig fields, "
            "with one manifest per point plus a combined summary.  "
            "Artefacts unaffected by the swept fields are computed "
            "once and shared through the result cache."
        ),
    )
    parser.add_argument(
        "spec", metavar="SPEC", nargs="?", default=None,
        help="optional RunSpec JSON file to sweep (axes may extend it)",
    )
    parser.add_argument(
        "--axis", metavar="FIELD=V1,V2", action="append", default=None,
        help=(
            "sweep axis over a LabConfig field (repeatable; grids as "
            "the cartesian product)"
        ),
    )
    parser.add_argument(
        "--experiments", metavar="IDS", default=None,
        help=(
            "comma-separated experiment ids when no spec file is given "
            "(default: the nine paper artefacts)"
        ),
    )
    parser.add_argument(
        "--max-length", type=int, default=None,
        help="trace scale anchor when no spec file is given",
    )
    parser.add_argument(
        "--manifest-dir", metavar="DIR", default=DEFAULT_SWEEP_DIR,
        help=(
            "directory for per-point manifests and the sweep summary "
            f"(default: {DEFAULT_SWEEP_DIR})"
        ),
    )
    parser.add_argument(
        "--summary-out", metavar="PATH", default=None,
        help="override the JSON summary path",
    )
    parser.add_argument(
        "--journal", metavar="PATH", default=None,
        help=(
            f"journal path (default {DEFAULT_JOURNAL_NAME}; empty "
            "value to disable)"
        ),
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay journaled points instead of re-running them",
    )
    args = parser.parse_args(argv)

    from repro.spec import RunSpec, SpecError, SweepSpec, WorkloadSpec

    if args.spec is not None:
        spec, error_code = _load_spec(args.spec)
        if spec is None:
            return error_code
    else:
        experiments = (
            tuple(
                item for item in args.experiments.split(",") if item
            )
            if args.experiments
            else EXPERIMENT_IDS
        )
        spec = RunSpec(
            experiments=experiments,
            workload=WorkloadSpec(
                max_length=args.max_length, seed=args.seed
            ),
        )
    try:
        if args.axis:
            axes = dict(spec.sweep.axes) if spec.sweep is not None else {}
            for text in args.axis:
                name, values = _parse_axis(text)
                axes[name] = values
            import dataclasses

            spec = dataclasses.replace(
                spec, sweep=SweepSpec(axes=tuple(axes.items()))
            )
    except (SpecError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if spec.sweep is None:
        print(
            "error: nothing to sweep -- pass --axis FIELD=V1,V2 or a "
            "spec file with a sweep section",
            file=sys.stderr,
        )
        return 2

    # Sweeps journal by default: they are long enough to be worth
    # resuming, and each point checkpoints under its own run key.
    if args.journal is None and spec.engine.journal is None:
        import dataclasses

        spec = dataclasses.replace(
            spec,
            engine=dataclasses.replace(
                spec.engine, journal=DEFAULT_JOURNAL_NAME
            ),
        )
    spec = _engine_overrides(spec, args)
    return _execute_spec(
        spec,
        ["sweep", *argv],
        manifest_dir=args.manifest_dir or None,
        summary_out=args.summary_out,
        metrics_out=args.metrics_out,
        trace_out=args.trace_out,
    )


def _ingest_main(argv: List[str]) -> int:
    """``repro ingest``: convert foreign traces to native ``.bpt``."""
    from repro.trace.ingest import INGEST_FORMATS, ingest_file

    parser = argparse.ArgumentParser(
        prog="repro ingest",
        description=(
            "Validate foreign branch traces (CBP-style text, packed "
            "binary pc+taken records, legacy BPT1, or native .bpt) and "
            "spill them to the chunked BPT2 format the engine consumes, "
            "printing each trace's canonical content digest.  "
            "--emit-spec writes a ready-to-run RunSpec whose workload "
            "imports the ingested traces ('repro run SPEC' executes it)."
        ),
    )
    parser.add_argument(
        "traces", metavar="TRACE", nargs="+",
        help="foreign trace files to ingest",
    )
    parser.add_argument(
        "--format", choices=INGEST_FORMATS, default=None,
        help="declared input format (default: sniffed per file)",
    )
    parser.add_argument(
        "--out-dir", metavar="DIR", default=None,
        help=(
            "directory for the converted .bpt artefacts (default: "
            "next to each input file)"
        ),
    )
    parser.add_argument(
        "--chunk-branches", type=int, default=None,
        help="BPT2 spill window in branches (default: engine default)",
    )
    parser.add_argument(
        "--emit-spec", metavar="PATH", default=None,
        help="write a RunSpec importing the ingested traces to PATH",
    )
    parser.add_argument(
        "--experiments", metavar="IDS", default=None,
        help=(
            "comma-separated experiment ids for --emit-spec (default: "
            "the nine paper artefacts)"
        ),
    )
    args = parser.parse_args(argv)

    import os

    results = []
    for source in args.traces:
        out_path = None
        if args.out_dir is not None:
            os.makedirs(args.out_dir, exist_ok=True)
            out_path = os.path.join(
                args.out_dir, os.path.basename(source) + ".bpt"
            )
        try:
            result = ingest_file(
                source,
                out_path,
                format=args.format,
                chunk_branches=args.chunk_branches,
            )
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return error.exit_code
        results.append(result)
        print(
            f"{result.name}: {result.branches} branches "
            f"[{result.format}] {result.digest}"
        )
        if result.path != result.source_path:
            print(f"  -> {result.path}")

    if args.emit_spec:
        from repro.spec import ImportedSource, RunSpec, SpecError

        experiments = (
            tuple(item for item in args.experiments.split(",") if item)
            if args.experiments
            else EXPERIMENT_IDS
        )
        try:
            spec = RunSpec(
                experiments=experiments,
                workload=ImportedSource(
                    traces=tuple(
                        result.to_entry() for result in results
                    ),
                ),
            )
        except SpecError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        spec.to_file(args.emit_spec)
        print(
            f"run spec written to {args.emit_spec} ({spec.digest()})"
        )
    return 0


def _plan_main(argv: List[str]) -> int:
    """``repro plan SPEC``: print the task graph without running it."""
    parser = argparse.ArgumentParser(
        prog="repro plan",
        description=(
            "Expand a RunSpec into its task graph (traces, sims, "
            "experiments, renders; deduped across sweep points) and "
            "print it without executing anything."
        ),
    )
    parser.add_argument("spec", metavar="SPEC", help="RunSpec JSON file")
    args = parser.parse_args(argv)
    spec, error_code = _load_spec(args.spec)
    if spec is None:
        return error_code
    from repro.plan import build_plan

    try:
        plan = build_plan(spec)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return error.exit_code
    print(plan.describe())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "--version":
        print(version_string("repro"))
        return 0
    if argv and argv[0] == "run":
        return _run_main(argv[1:])
    if argv and argv[0] == "sweep":
        return _sweep_main(argv[1:])
    if argv and argv[0] == "plan":
        return _plan_main(argv[1:])
    if argv and argv[0] == "ingest":
        return _ingest_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "submit":
        from repro.client import main as submit_main

        return submit_main(argv[1:])
    if argv and argv[0] == "check":
        # Static analysis has its own argument set; dispatch before the
        # experiment parser sees it.
        from repro.check.cli import main as check_main

        return check_main(argv[1:])
    if argv and argv[0] == "cache":
        return _cache_main(argv[1:])
    if argv and argv[0] == "obs":
        from repro.obs.cli import main as obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "trace":
        from repro.trace.cli import main as trace_main

        return trace_main(argv[1:])
    args = _parser().parse_args(argv)
    requested: List[str] = []
    wants_manifest = False
    for item in args.experiments:
        if item in ("all", "report"):
            requested.extend(EXPERIMENT_IDS)
            wants_manifest = True
        elif item == "extensions":
            requested.extend(EXTENSION_IDS)
        elif item in EXPERIMENT_IDS or item in EXTENSION_IDS:
            requested.append(item)
        else:
            print(
                f"error: unknown experiment {item!r}; choose from "
                f"{', '.join(EXPERIMENT_IDS + EXTENSION_IDS)}, 'all', "
                "'report' or 'extensions'",
                file=sys.stderr,
            )
            return 2

    config = LabConfig()
    if args.gshare_history is not None:
        config = LabConfig(
            gshare_history_bits=args.gshare_history,
            gshare_pht_bits=args.gshare_history,
        )

    manifest_out = args.manifest_out
    if manifest_out is None and wants_manifest:
        manifest_out = DEFAULT_MANIFEST_NAME
    journal = args.journal
    if journal is None and (wants_manifest or args.resume):
        journal = DEFAULT_JOURNAL_NAME

    from repro.spec import spec_from_kwargs

    try:
        spec = spec_from_kwargs(
            requested,
            max_length=args.max_length,
            config=config,
            seed=args.seed,
            jobs=args.jobs,
            use_cache=not args.no_cache,
            cache_dir=args.cache_dir,
            retries=args.retries,
            task_timeout=args.task_timeout,
            fault_spec=fault_spec_from_args(args),
            journal_path=journal or None,
            resume=args.resume,
            chunk_branches=args.chunk_branches,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return error.exit_code

    if args.emit_spec:
        spec.to_file(args.emit_spec)
        print(f"run spec written to {args.emit_spec} ({spec.digest()})")
        return 0

    return _execute_spec(
        spec,
        argv,
        json_out=args.json,
        manifest_out=manifest_out or None,
        metrics_out=args.metrics_out,
        trace_out=args.trace_out,
    )


__all__ = [
    "DEFAULT_JOURNAL_NAME",
    "DEFAULT_MANIFEST_NAME",
    "DEFAULT_SEED",
    "DEFAULT_SWEEP_DIR",
    "EXIT_INTERRUPTED",
    "main",
]


if __name__ == "__main__":
    sys.exit(main())
