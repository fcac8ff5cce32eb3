"""``repro trace`` -- generate, inspect and simulate trace files.

Subcommands::

    repro trace generate gcc -o gcc.bpt --length 50000
    repro trace stats gcc.bpt
    repro trace simulate gcc.bpt --predictor gshare --predictor pas
    repro trace interference gcc.bpt

``generate`` writes ``BPT2`` (or text for a ``.txt``/``.trace``
output).  Every other subcommand reads its trace through
:func:`~repro.trace.ingest.load_imported_trace`, so it accepts any
layout ``repro ingest`` does, and a bad file is a located
:class:`~repro.errors.IngestError` (exit 2).

``simulate`` takes predictor specs of the form ``name[:key=value,...]``
(:func:`repro.predictors.parse_predictor_spec`), e.g.
``gshare:history_bits=12,pht_bits=12``.

Every subcommand accepts the shared engine options from
:mod:`repro.cliopts`; ``generate`` reuses the result cache's trace
store, ``simulate --jobs N`` runs the predictors in N processes, and
``--metrics-out``/``--trace-out`` dump the command's telemetry on exit.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.interference import measure_gshare_interference
from repro.cliopts import engine_parent, write_observability_outputs
from repro.errors import ReproError
from repro.predictors import parse_predictor_spec
from repro.trace.ingest import load_imported_trace
from repro.trace.stats import compute_statistics
from repro.trace.stream import write_text_trace, write_trace
from repro.workloads.suite import BENCHMARK_NAMES, load_benchmark

#: Predictor specs ``simulate`` runs when no ``--predictor`` is given.
DEFAULT_PREDICTORS = ("gshare", "pas:history_bits=6,bht_bits=12")


def _cmd_generate(args: argparse.Namespace) -> int:
    trace = None
    cache = None
    if not args.no_cache:
        from repro.analysis.cache import ResultCache

        cache = ResultCache(args.cache_dir)
        trace = cache.load_trace(args.benchmark, args.length, args.seed)
    if trace is None:
        trace = load_benchmark(
            args.benchmark, length=args.length, run_seed=args.seed
        )
        if cache is not None:
            cache.store_trace(args.benchmark, args.length, args.seed, trace)
    if str(args.output).endswith((".txt", ".trace")):
        write_text_trace(trace, args.output)
    else:
        write_trace(trace, args.output)
    print(f"wrote {len(trace)} branches to {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = compute_statistics(load_imported_trace(args.trace))
    print(f"dynamic branches:        {stats.num_dynamic}")
    print(f"static branches:         {stats.num_static}")
    print(f"taken rate:              {stats.taken_rate:.4f}")
    print(f"backward-branch rate:    {stats.backward_rate:.4f}")
    print(f"ideal-static accuracy:   {stats.ideal_static_accuracy * 100:.2f}%")
    print(
        f">99%-biased dyn fraction: "
        f"{stats.biased_99_dynamic_fraction * 100:.2f}%"
    )
    return 0


def _simulate_spec(job):
    """Worker for ``simulate --jobs``: one predictor spec on one trace file.

    Module-level so it pickles; re-reads the trace in the worker rather
    than shipping the columns through the pipe.
    """
    trace_path, spec = job
    predictor = parse_predictor_spec(spec)
    return predictor.name, predictor.accuracy(load_imported_trace(trace_path))


def _cmd_simulate(args: argparse.Namespace) -> int:
    specs = args.predictor or list(DEFAULT_PREDICTORS)
    trace = load_imported_trace(args.trace)
    # Build every predictor first: a bad spec fails before any output.
    predictors = [parse_predictor_spec(spec) for spec in specs]
    print(f"{args.trace}: {len(trace)} dynamic branches")
    if args.jobs is not None and args.jobs > 1 and len(predictors) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            # map() preserves input order, so output is deterministic.
            rows = list(
                pool.map(
                    _simulate_spec,
                    [(args.trace, spec) for spec in specs],
                )
            )
    else:
        rows = [
            (predictor.name, predictor.accuracy(trace))
            for predictor in predictors
        ]
    for name, accuracy in rows:
        print(f"  {name:28s} {accuracy * 100:6.2f}%")
    return 0


def _cmd_interference(args: argparse.Namespace) -> int:
    report = measure_gshare_interference(
        load_imported_trace(args.trace), args.history_bits, args.pht_bits
    )
    print(f"gshare {args.history_bits}h/{args.pht_bits}p on {args.trace}:")
    print(f"  conflict access rate:        {report.conflict_rate * 100:.2f}%")
    print(
        f"  misprediction on conflicts:  "
        f"{report.conflict_misprediction_rate * 100:.2f}%"
    )
    print(
        f"  misprediction on private:    "
        f"{report.private_misprediction_rate * 100:.2f}%"
    )
    print(f"  PHT occupancy:               {report.occupancy * 100:.2f}%")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace", description="Branch-trace toolkit."
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    engine = [engine_parent()]

    generate = subparsers.add_parser(
        "generate", parents=engine,
        help="generate a benchmark trace to a .bpt (or .txt) file",
    )
    generate.add_argument("benchmark", choices=BENCHMARK_NAMES)
    generate.add_argument("-o", "--output", required=True)
    generate.add_argument("--length", type=int, default=None)
    generate.set_defaults(func=_cmd_generate)

    stats = subparsers.add_parser(
        "stats", parents=engine, help="summarise a trace file"
    )
    stats.add_argument("trace")
    stats.set_defaults(func=_cmd_stats)

    simulate = subparsers.add_parser(
        "simulate", parents=engine, help="run predictors over a trace file"
    )
    simulate.add_argument("trace")
    simulate.add_argument(
        "--predictor",
        action="append",
        default=None,
        help=(
            "predictor spec name[:key=value,...]; repeatable (default: "
            f"{' '.join(DEFAULT_PREDICTORS)})"
        ),
    )
    simulate.set_defaults(func=_cmd_simulate)

    interference = subparsers.add_parser(
        "interference", parents=engine,
        help="measure gshare PHT interference on a trace file",
    )
    interference.add_argument("trace")
    interference.add_argument("--history-bits", type=int, default=16)
    interference.add_argument("--pht-bits", type=int, default=16)
    interference.set_defaults(func=_cmd_interference)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
    except (ReproError, OSError, ValueError) as error:
        # ReproError carries its own exit code; a bad output path or
        # out-of-range option is a usage error.
        print(f"error: {error}", file=sys.stderr)
        return getattr(error, "exit_code", 2)
    write_observability_outputs(args)
    return code
