"""Shared engine options for every ``repro`` subcommand.

The simulation engine grew one flag at a time (``--jobs`` on the report
runner, ``--seed`` here, ``--cache-dir`` there), so the same knob was
spelled or defaulted differently across subcommands.  This module is
the one definition: :func:`engine_parent` returns an ``add_help=False``
parser carrying every engine-level flag, and each subcommand parser
lists it in ``parents=[...]`` --

* ``--jobs`` -- worker processes (``REPRO_JOBS`` / CPU count default);
* ``--cache-dir`` / ``--no-cache`` -- the on-disk result cache;
* ``--seed`` -- the workload execution seed ("input data set");
* ``--metrics-out`` / ``--trace-out`` -- observability artefacts
  (metric snapshot JSON, Chrome-trace span JSON);
* ``--retries`` / ``--task-timeout`` -- the resilience layer's retry
  budget and per-task wall-clock limit (``REPRO_MAX_RETRIES`` /
  ``REPRO_TASK_TIMEOUT``);
* ``--inject-fault`` -- deterministic fault injection
  (``REPRO_FAULT_SPEC``; see ``docs/resilience.md``);
* ``--chunk-branches`` -- streamed simulation window
  (``REPRO_CHUNK_BRANCHES``; see ``docs/performance.md``).

Commands that have no use for a given flag still *accept* it (uniform
interface); they simply ignore it.
"""

from __future__ import annotations

import argparse
import json

#: The seed every command uses unless told otherwise.
DEFAULT_SEED = 12345


def package_version() -> str:
    """The installed package version, from metadata when available.

    An editable/installed package answers from ``importlib.metadata``;
    a bare ``PYTHONPATH=src`` checkout falls back to
    ``repro.__version__``.
    """
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        import repro

        return getattr(repro, "__version__", "unknown")


def version_string(prog: str) -> str:
    """What ``<prog> --version`` prints."""
    return f"{prog} {package_version()}"


def engine_parent() -> argparse.ArgumentParser:
    """The shared parent parser with every engine-level option."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("engine options")
    group.add_argument(
        "--jobs",
        type=int,
        default=None,
        help=(
            "simulation worker processes (default: REPRO_JOBS or the "
            "CPU count; 1 disables multiprocessing)"
        ),
    )
    group.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result-cache directory (default: REPRO_CACHE_DIR or .repro-cache)",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the on-disk result cache entirely",
    )
    group.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="workload execution seed (the 'input data set')",
    )
    group.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write the run's metric snapshot as JSON to PATH",
    )
    group.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the run's spans as Chrome trace JSON to PATH",
    )
    group.add_argument(
        "--retries",
        type=int,
        default=None,
        help=(
            "retries per simulation task after its first attempt "
            "(default: REPRO_MAX_RETRIES or 2; 0 disables retries)"
        ),
    )
    group.add_argument(
        "--task-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help=(
            "wall-clock limit per simulation task; an expired parallel "
            "worker is killed and the task retried (default: "
            "REPRO_TASK_TIMEOUT or no limit)"
        ),
    )
    group.add_argument(
        "--inject-fault",
        metavar="SPEC",
        action="append",
        default=None,
        help=(
            "inject a deterministic fault: 'selector:attempt:kind' with "
            "kind one of crash|hang|corrupt (repeatable; default: "
            "REPRO_FAULT_SPEC; see docs/resilience.md)"
        ),
    )
    group.add_argument(
        "--chunk-branches",
        type=int,
        metavar="N",
        default=None,
        help=(
            "stream simulations over N-branch trace windows instead of "
            "whole traces (bounded memory, bit-identical results; "
            "rounded up to a multiple of 8; default: "
            "REPRO_CHUNK_BRANCHES or whole-trace)"
        ),
    )
    return parent


def fault_spec_from_args(args: argparse.Namespace):
    """Join repeated ``--inject-fault`` values into one spec string.

    Returns None when the flag was never given, so the API layer falls
    back to ``REPRO_FAULT_SPEC``.
    """
    entries = getattr(args, "inject_fault", None)
    if not entries:
        return None
    return ",".join(entries)


def write_observability_outputs(args: argparse.Namespace) -> None:
    """Honour ``--metrics-out`` / ``--trace-out`` after a command ran.

    Writes the *process-global* metric snapshot and span buffer, which
    for a CLI invocation is exactly the command's telemetry.
    """
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        from repro.obs.metrics import METRICS

        with open(metrics_out, "w") as fh:
            json.dump(METRICS.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        from repro.obs.tracing import TRACER

        TRACER.write(trace_out)
