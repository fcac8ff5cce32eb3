"""Run-level observability: metrics, span tracing, run manifests.

The engine (labs, caches, the parallel scheduler, workload generation)
is instrumented against this package:

* :data:`METRICS` / :class:`Metrics` / :func:`metrics_scope` -- a
  dependency-free counter/gauge/timer registry with thread-safe
  updates, nested run- and point-scoped registries, and deterministic
  cross-process folding (``repro.obs.metrics``);
* :func:`span` / :data:`TRACER` -- nested span tracing dumpable as
  Chrome trace format for flamegraph viewing (``repro.obs.tracing``);
* run manifests -- schema-versioned ``run_manifest.json`` documents
  making any two report runs diffable artefacts
  (``repro.obs.manifest``; CLI: ``repro obs show|validate|diff``).

Instrumentation is always on and costs a few dict updates per *task*
(not per branch); it never feeds back into simulation, so experiment
outputs remain bit-identical with or without anyone reading the
telemetry.  See ``docs/observability.md`` for the metric catalogue and
the manifest schema.
"""

from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    diff_manifests,
    read_manifest,
    summarize_manifest,
    validate_manifest,
    write_manifest,
)
from repro.obs.metrics import METRICS, Metrics, metrics_scope
from repro.obs.tracing import TRACER, Span, Tracer, span

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "METRICS",
    "Metrics",
    "Span",
    "TRACER",
    "Tracer",
    "build_manifest",
    "diff_manifests",
    "metrics_scope",
    "read_manifest",
    "span",
    "summarize_manifest",
    "validate_manifest",
    "write_manifest",
]
